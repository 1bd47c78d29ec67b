"""Hierarchical beam-training codebooks and search for half-wave ULAs."""

from .arrays import (
    angle_grid,
    beam_gain,
    coverage_factor_rho,
    leaf_angles,
    rotate,
    steering_weights,
)
from .channels import ChannelParams, draw_paths
from .codebooks import (
    Codebook,
    export_codebook,
    generate_bmw_ss,
    generate_codebook,
    generate_deact,
    load_codebook,
    validate_codebook,
)
from .experiments import (
    ExperimentConfig,
    run_beam_patterns,
    run_received_power,
    run_search,
    run_success_rate,
)
from .search import PowerModel, nearest_leaf

__version__ = "0.1.0"
