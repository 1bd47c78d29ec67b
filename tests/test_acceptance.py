"""Acceptance gates: one test per criterion, run at the stated tolerances.

Each gate prints an ``ACCEPTANCE <id>: PASS/FAIL`` line (repeated in the
terminal summary) and then asserts, so a red criterion is visible both ways.
All Monte-Carlo gates use seed 1 and 1000 realizations.
"""

import subprocess
import sys

import numpy as np

from conftest import ACCEPTANCE_RESULTS

from beamtrain import (
    ChannelParams,
    ExperimentConfig,
    PowerModel,
    beam_coverage,
    coverage_factor_rho,
    exhaustive_search,
    generate_bmw_ss,
    generate_codebook,
    generate_deact,
    hierarchical_search,
    random_awv,
    rotate,
    run_received_power,
    run_success_rate,
    sample_channel,
    subarray_phase_objective,
    validate_criterion1,
    validate_criterion2,
)
from beamtrain import search

GRID_POINTS = 4096
SEED = 1
REALIZATIONS = 1000


def gate(name: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_RESULTS.append((name, passed, detail))
    assert passed, line


def test_criterion_01_coverage_factor_values():
    ok4 = abs(coverage_factor_rho(4) - 0.65) <= 0.005
    sizes = [2**p for p in range(3, 11)]
    devs = {n: abs(coverage_factor_rho(n) - 0.64) for n in sizes}
    ok_large = all(d <= 0.01 for d in devs.values())
    gate(
        "1 coverage factor",
        ok4 and ok_large,
        f"rho(4)={coverage_factor_rho(4):.4f}, max |rho(N)-0.64|={max(devs.values()):.4f} "
        f"over N=8..1024",
    )


def test_criterion_02_criteria_validation_rho_half():
    failures = []
    for n in (8, 16, 32, 64, 128):
        for gen in (generate_deact, generate_bmw_ss):
            cb = gen(n)
            r1 = validate_criterion1(cb, rho=0.5, grid_points=GRID_POINTS)
            r2 = validate_criterion2(cb, rho=0.5, grid_points=GRID_POINTS)
            if not (r1.passed and r2.passed):
                worst1 = max(rep.n_uncovered for rep in r1.layers)
                worst2 = max(rep.n_violations for rep in r2.parents)
                failures.append(f"{cb.method.value}/N={n} (c1:{worst1} c2:{worst2} pts)")
    gate(
        "2 criteria validation at rho=0.5",
        not failures,
        "all pass" if not failures else "failing: " + ", ".join(failures),
    )


def test_criterion_03_rotation_shifts_coverage():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(50):
        w = random_awv(32, rng)
        psi = rng.uniform(-2.0, 2.0)
        base = beam_coverage(w, 0.5, GRID_POINTS)
        rot = beam_coverage(rotate(w, psi), 0.5, GRID_POINTS)
        shifted = np.roll(base, round(psi * GRID_POINTS / 2))

        def dilate(mask):
            return mask | np.roll(mask, 1) | np.roll(mask, -1)

        if not (np.all(dilate(shifted)[rot]) and np.all(dilate(rot)[shifted])):
            ok = False
            break
    gate(
        "3 rotation shifts coverage",
        ok,
        "50 random weight vectors (N=32): rotated coverage equals the rolled "
        "coverage within one grid step",
    )


def test_criterion_04_structural_identities():
    problems = []
    for n in (8, 16, 32, 64, 128):
        cb_d, cb_b = generate_deact(n), generate_bmw_ss(n)
        for i in range(n):
            if np.max(np.abs(cb_d.layers[-1][i] - cb_b.layers[-1][i])) > 1e-12:
                problems.append(f"last layer differs at N={n}")
                break
        for k, counts in enumerate(cb_d.active_counts):
            if any(c != 2**k for c in counts):
                problems.append(f"deact active counts at N={n} layer {k}")
        for k in range(cb_b.depth):
            ell = cb_b.depth - k
            want = max(n if ell % 2 == 0 else n // 2, 1)
            if any(c != want for c in cb_b.active_counts[k]):
                problems.append(f"bmw-ss active counts at N={n} layer {k}")
        for cb in (cb_d, cb_b):
            for k, layer in enumerate(cb.layers):
                for i, row in enumerate(layer):
                    want = rotate(layer[0], 2 * i / 2**k)
                    if np.max(np.abs(row - want)) > 1e-12:
                        problems.append(f"{cb.method.value} rotation at N={n} layer {k}")
                        break
    gate(
        "4 structural identities",
        not problems,
        "shared leaves, active counts, rotation identity (1e-12), N=8..128"
        if not problems
        else "; ".join(sorted(set(problems))),
    )


def test_criterion_05_subarray_phase_optimum():
    thetas = np.linspace(-np.pi, np.pi, 10_000)
    ok = True
    for n_sub in (2, 4, 8, 16):
        best = abs(subarray_phase_objective(n_sub, -np.pi * (n_sub - 1) / n_sub))
        grid_max = max(abs(subarray_phase_objective(n_sub, t)) for t in thetas)
        if best < grid_max:
            ok = False
    gate(
        "5 sub-array phase optimum",
        ok,
        "stationary phase dominates a 10^4-point grid for sub-array sizes 2..16",
    )


def test_criterion_06_noiseless_search_matches_exhaustive():
    pm = PowerModel.total(1.0, 0.0)
    counts = {}
    for n in (16, 64):
        for method in ("deact", "bmw-ss"):
            cb = generate_codebook(method, n)
            params = ChannelParams(n_tx=n, n_rx=n, n_paths=1)
            hits = 0
            for r in range(REALIZATIONS):
                ch = sample_channel(params, np.random.default_rng((SEED, 60, r)))
                out = hierarchical_search(
                    cb, cb, ch, pm, np.random.default_rng((SEED, 61, r))
                )
                hits += out.pair == exhaustive_search(ch, pm)[:2]
            counts[(method, n)] = hits
    ok = all(v == REALIZATIONS for v in counts.values())
    gate(
        "6 noiseless oracle equivalence",
        ok,
        ", ".join(f"{m}/N={n}: {v}/{REALIZATIONS}" for (m, n), v in counts.items()),
    )


def test_criterion_07_search_cost(monkeypatch):
    calls = []
    real_measure = search.measure

    def counted_measure(*args):
        calls.append(None)
        return real_measure(*args)

    monkeypatch.setattr(search, "measure", counted_measure)
    pm = PowerModel.from_snr_db("total", 20.0)
    params = ChannelParams(n_tx=64, n_rx=64, n_paths=3)
    ok = True
    for method in ("deact", "bmw-ss"):
        cb = generate_codebook(method, 64)
        for r in range(25):
            ch = sample_channel(params, np.random.default_rng((SEED, 70, r)))
            calls.clear()
            out = hierarchical_search(cb, cb, ch, pm, np.random.default_rng((SEED, 71, r)))
            if len(out.trace) != 12 or len(calls) != 24:
                ok = False
    gate("7 search cost", ok, "every N=64 trace has 12 stages and 24 measurements")


def _power_run(mode: str):
    cfg = ExperimentConfig(
        n_tx=64, n_rx=64, channel="both", n_paths=3, eta_db=15.0,
        power_mode=mode, snr_db=(40.0,), realizations=REALIZATIONS, seed=SEED,
    )
    return cfg, run_received_power(cfg)


def test_criterion_08_received_power_total():
    cfg, res = _power_run("total")
    details = []
    ok = True
    for method in cfg.methods:
        los_gap = res.stats["bound_db"]["los"] - res.stats["power"][("los", method)]["mean_power_db"][-1]
        nlos_gap = res.stats["bound_db"]["nlos"] - res.stats["power"][("nlos", method)]["mean_power_db"][-1]
        details.append(f"{method}: los gap {los_gap:.2f} dB, nlos gap {nlos_gap:.2f} dB")
        if abs(los_gap) > 0.2:
            ok = False
        if not 0.0 <= nlos_gap <= 1.5:
            ok = False
        for kind in ("los", "nlos"):
            finals = res.stats["power"][(kind, method)]["mean_power_w"][-1]
            if finals > res.stats["bound_w"][kind] * (1 + 1e-12):
                ok = False
                details.append(f"{method}/{kind} above the bound")
    gate("8 received power vs bound (total power)", ok, "; ".join(details))


def test_criterion_09_received_power_per_antenna():
    cfg, res = _power_run("per-antenna")
    details = []
    ok = True
    for kind in ("los", "nlos"):
        gaps = (
            res.stats["power"][(kind, "bmw-ss")]["mean_power_db"]
            - res.stats["power"][(kind, "deact")]["mean_power_db"]
        )
        details.append(f"{kind}: step1 gap {gaps[0]:.2f} dB, step12 gap {gaps[-1]:.2f} dB")
        if not 12.0 <= gaps[0] <= 18.0:
            ok = False
        if abs(gaps[-1]) > 0.5:
            ok = False
    gate("9 per-antenna power gap", ok, "; ".join(details))


def test_criterion_10a_success_endpoint_single_path():
    cfg = ExperimentConfig(
        channel="nlos", n_paths=1, power_mode="total", snr_db=(30.0,),
        realizations=REALIZATIONS, seed=SEED,
    )
    res = run_success_rate(cfg)
    rates = {m: res.stats["success"][(m, "align-any-mpc")][0] for m in cfg.methods}
    ok = all(rate >= 0.99 for rate in rates.values())
    gate(
        "10a single-path success at 30 dB",
        ok,
        ", ".join(f"{m}: {v:.3f}" for m, v in rates.items()) + " (target >= 0.99)",
    )


def test_criterion_10b_success_ordering_nlos():
    cfg = ExperimentConfig(
        channel="nlos", n_paths=3, power_mode="total",
        snr_db=(0.0, 10.0, 20.0, 30.0, 40.0), realizations=REALIZATIONS, seed=SEED,
    )
    res = run_success_rate(cfg)
    bmw = res.stats["success"][("bmw-ss", "align-any-mpc")]
    deact = res.stats["success"][("deact", "align-any-mpc")]
    se = (
        res.stats["stderr"][("bmw-ss", "align-any-mpc")]
        + res.stats["stderr"][("deact", "align-any-mpc")]
    )
    ok = bool(np.all(bmw >= deact - 2 * se))
    gate(
        "10b diffuse-channel success ordering",
        ok,
        "bmw-ss >= deact within 2 SE at "
        + ", ".join(f"{s:g} dB ({b:.2f} vs {d:.2f})" for s, b, d in zip(cfg.snr_db, bmw, deact)),
    )


def test_criterion_10c_success_ordering_los_per_antenna():
    cfg = ExperimentConfig(
        channel="los", n_paths=3, eta_db=15.0, power_mode="per-antenna",
        snr_db=(-10.0, 0.0, 10.0, 20.0, 30.0), realizations=REALIZATIONS, seed=SEED,
    )
    res = run_success_rate(cfg)
    bmw = res.stats["success"][("bmw-ss", "align-strongest")]
    deact = res.stats["success"][("deact", "align-strongest")]
    se = (
        res.stats["stderr"][("bmw-ss", "align-strongest")]
        + res.stats["stderr"][("deact", "align-strongest")]
    )
    ok = bool(np.all(bmw >= deact - 2 * se))
    gate(
        "10c dominant-path per-antenna ordering",
        ok,
        "bmw-ss >= deact within 2 SE at "
        + ", ".join(f"{s:g} dB ({b:.2f} vs {d:.2f})" for s, b, d in zip(cfg.snr_db, bmw, deact)),
    )


def test_criterion_11_deterministic_csv_output(tmp_path):
    base = [
        sys.executable, "-m", "beamtrain", "mc-success", "--n", "32",
        "--paths", "2", "--snr-grid", "10,25", "--realizations", "30", "--seed", "9",
    ]
    blobs = []
    for jobs, name in (("1", "a"), ("2", "b"), ("1", "c")):
        path = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            base + ["--jobs", jobs, "--out", str(path)], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()
        blobs.append(path.read_bytes())
    power = [
        sys.executable, "-m", "beamtrain", "mc-power", "--n", "32", "--paths", "2",
        "--channel", "nlos", "--realizations", "20", "--seed", "9",
    ]
    pblobs = []
    for jobs, name in (("1", "pa"), ("3", "pb")):
        path = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            power + ["--jobs", jobs, "--out", str(path)], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()
        pblobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2] and pblobs[0] == pblobs[1]
    gate(
        "11 deterministic output",
        ok,
        "mc-success and mc-power emit byte-identical CSVs across reruns and worker counts",
    )
