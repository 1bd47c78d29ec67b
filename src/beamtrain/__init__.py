"""Hierarchical beam-training codebooks and search for half-wave ULAs."""

from .arrays import (
    angle_grid,
    beam_coverage,
    beam_gain,
    coverage_factor_rho,
    leaf_angles,
    random_awv,
    rotate,
    steering_weights,
    subarray_phase_objective,
)
from .channels import (
    Channel,
    ChannelKind,
    ChannelParams,
    Mpc,
    assemble_matrix,
    channel_from_paths,
    draw_paths,
    dump_channel,
    load_channel,
    sample_channel,
)
from .codebooks import (
    Codebook,
    export_codebook,
    generate_bmw_ss,
    generate_codebook,
    generate_deact,
    load_codebook,
    validate_criterion1,
    validate_criterion2,
)
from .experiments import (
    ExperimentConfig,
    run_beam_patterns,
    run_received_power,
    run_success_rate,
)
from .search import (
    AdjudicationPolicy,
    PowerMode,
    PowerModel,
    adjudicate,
    exhaustive_search,
    hierarchical_search,
    measure,
    nearest_leaf,
)

__version__ = "0.1.0"
