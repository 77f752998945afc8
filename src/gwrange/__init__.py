"""Simulation and exact analytics for diffusive biased walks on marked
Galton-Watson trees: random environments, quenched walk traces, constrained
k-tuple range statistics, genealogical signatures of sampled vertices, and
desk-scale verification of the associated limit predictions."""

from .environment import (
    EnvironmentLaw,
    Schedule,
    c_infinity,
    c_zero,
    check_assumptions,
    classify_regime,
    compute_schedule,
    default_law,
    estimate_c_infinity,
    gaussian_law,
    generic_law,
    kappa,
    law_from_text,
    law_to_text,
    log_laplace,
    log_laplace_prime,
    many_to_one_step_law,
    moment_c_j,
    sample_tilted_walk,
    two_point_law,
)
from .genealogy import (
    Constraint,
    GenealogySignature,
    IncreasingCollection,
    Partition,
    coalescent_times,
    enumerate_increasing_collections,
    first_full_split,
    genealogy_indicator,
    make_F_ell_s,
    make_f_lambda,
    make_f_m,
    partition_process,
    reduce_collection,
    signature_from_mrca,
    upsilon_member,
)
from .quenched import (
    hit_before_return,
    hit_before_return_oracle,
    phi,
    quenched_mean_quasi_independent,
)
from .rangestats import (
    RangeStat,
    band_mrca_generations,
    delta_k_count,
    excursion_class_masses,
    general_range,
    sample_uniform_tuple,
    sample_uniform_tuples,
    weighted_range_A_l,
)
from .rng import stream
from .theory import (
    desk_band,
    esp_partition_law,
    estimate_esp_partition,
    limit_report,
    local_time_law_probe,
    run_band_experiment,
)
from .tree import (
    MarkedTree,
    additive_martingale,
    enumerate_delta_k,
    generate,
    grow,
    is_ancestor,
    load_snapshot,
    mrca,
    mrca_generation,
    save_snapshot,
    tree_from_parents,
)
from .walk import (
    RangeSlice,
    WalkTrace,
    range_slice,
    run_excursions,
    trace_to_csv,
)

__version__ = "0.1.0"
