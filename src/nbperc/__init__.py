"""Non-backtracking spectral quantities and percolation bounds for digraphs."""

__version__ = "0.1.0"

from .bounds import (
    BoundsReport,
    compute_bounds_report,
    improved_out_bound,
    out_component_probability_bound,
    pc_lower_bounds,
    sac_bound_closed,
    sac_bound_logdet,
    sac_bound_trace,
)
from .cycles import (
    CycleReport,
    enumerate_elementary_circuits,
    expected_sac_count,
    nb_cycle_count,
)
from .generators import (
    gen_complete_sym,
    gen_cycle,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_random_tree_sym,
    gen_star_sym,
)
from .graph import (
    ComponentLabeling,
    DiGraph,
    induced_subgraph,
    is_robustly_strongly_connected,
    is_strongly_connected,
    parse_edge_list,
    serialize_edge_list,
    strongly_connected_components,
    symmetric_arc_pairs,
)
from .hashimoto import (
    HashimotoOperator,
    build_hashimoto,
    trace_power,
    trace_powers,
)
from .percolation import (
    MultiplicityProbe,
    OutProbEstimate,
    PercolationConfig,
    SweepResult,
    estimate_out_prob,
    estimate_threshold,
    measure_components,
    multiplicity_probe,
    sample_open_set,
    sweep,
    trial_rng,
)
from .spectral import (
    SpectralReport,
    adjacency_spectral_radius,
    compute_spectral_report,
    induced_norms,
    left_perron_vector,
    olg_strongly_connected,
    spectral_radius,
)

__all__ = [name for name in dir() if not name.startswith("_")]
