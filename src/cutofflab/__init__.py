"""Exact mixing-time, hitting-time, and spectral diagnostics for finite
reversible chains, with verification suites for the inequalities that tie
them together."""

from .chain import (
    Chain,
    ChainSpec,
    ChainValidationError,
    Spectrum,
    chain_from_json,
    chain_to_json,
    load_chain,
    spectral_decomposition,
    write_json_atomic,
)
from .families import (
    FAMILIES,
    biased_path,
    birth_death,
    plateau_chain,
    random_corpus,
    random_reversible,
    random_tree,
    two_cliques,
)
from .hitting import (
    BlowUpSet,
    GoodSet,
    HitResult,
    KacQuantities,
    KilledSystem,
    TargetSet,
    WorstTailProfile,
    blow_up_set,
    good_set,
    hit_time,
    hitting_tail,
    kac_quantities,
    mgf,
    qs_decomposition,
    worst_tail_profile,
)
from .mixing import (
    MixingProfile,
    maximal_function,
    mixing_profile,
    mixing_time,
    worst_tv,
)
from .oracle import MCEstimate, simulate_hitting, simulate_tv_proxy
from .reporting import Record, Report, check_identity, check_le, fingerprint
from .sbd import (
    BlockDecomposition,
    CentralBlockHit,
    SBDClassification,
    block_correlation_mc,
    blocks,
    central_block_hit,
    classify_sbd,
    comparable_start_bound,
)
from .trees import (
    CrossingTime,
    RootedTreeChain,
    TreeSpec,
    build_tree_chain,
    crossing_time,
    path_variance,
    tail_bound_check,
    tau_root,
    tau_sandwich_check,
    tree_from_chain,
    tree_from_json,
    tree_to_json,
    window_check,
)
from .verify import SUITE_IDS, CutoffScan, cutoff_scan, run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "Chain", "ChainSpec", "ChainValidationError", "Spectrum",
    "chain_from_json", "chain_to_json", "load_chain",
    "spectral_decomposition", "write_json_atomic",
    "FAMILIES", "biased_path", "birth_death", "plateau_chain",
    "random_corpus", "random_reversible", "random_tree", "two_cliques",
    "BlowUpSet", "GoodSet", "HitResult", "KacQuantities", "KilledSystem",
    "TargetSet", "WorstTailProfile", "blow_up_set", "good_set", "hit_time",
    "hitting_tail", "kac_quantities", "mgf", "qs_decomposition",
    "worst_tail_profile",
    "MixingProfile", "maximal_function", "mixing_profile", "mixing_time",
    "worst_tv",
    "MCEstimate", "simulate_hitting", "simulate_tv_proxy",
    "Record", "Report", "check_identity", "check_le", "fingerprint",
    "BlockDecomposition", "CentralBlockHit", "SBDClassification",
    "block_correlation_mc", "blocks", "central_block_hit", "classify_sbd",
    "comparable_start_bound",
    "CrossingTime", "RootedTreeChain", "TreeSpec", "build_tree_chain",
    "crossing_time", "path_variance", "tail_bound_check", "tau_root",
    "tau_sandwich_check", "tree_from_chain", "tree_from_json",
    "tree_to_json", "window_check",
    "SUITE_IDS", "CutoffScan", "cutoff_scan", "run_suite", "run_suites",
]
