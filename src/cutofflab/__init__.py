"""Exact mixing-time, hitting-time, and spectral diagnostics for finite
reversible chains, with verification suites for the inequalities that tie
them together.

The exported names are looked up in their submodules on first access
(PEP 562), so importing the package, or ``cutofflab.cli``, loads no numpy:
the CLI's ``--threads`` can still cap the linear-algebra thread pools.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "chain": ("Chain", "ChainSpec", "ChainValidationError", "Spectrum",
              "chain_from_json", "chain_to_json", "load_chain",
              "spectral_decomposition", "write_json_atomic"),
    "families": ("FAMILIES", "biased_path", "birth_death", "plateau_chain",
                 "random_corpus", "random_reversible", "random_tree", "two_cliques"),
    "hitting": ("BlowUpSet", "GoodSet", "HitResult", "KacQuantities", "KilledSystem",
                "WorstTailProfile", "blow_up_set", "good_set", "hit_time",
                "hitting_tail", "kac_quantities", "qs_decomposition",
                "worst_tail_profile"),
    "mixing": ("MixingProfile", "maximal_function", "mixing_profile", "mixing_time",
               "worst_tv"),
    "oracle": ("MCEstimate", "simulate_hitting", "simulate_tv_proxy"),
    "reporting": ("Record", "Report", "check_identity", "check_le", "fingerprint"),
    "sbd": ("BlockDecomposition", "CentralBlockHit", "SBDClassification",
            "block_correlation_mc", "blocks", "central_block_hit", "classify_sbd",
            "comparable_start_bound"),
    "trees": ("CrossingTime", "RootedTreeChain", "TreeSpec", "build_tree_chain",
              "crossing_time", "path_variance", "tail_bound_check", "tau_root",
              "tau_sandwich_check", "tree_from_chain", "tree_from_json",
              "tree_to_json", "window_check"),
    "verify": ("SUITE_IDS", "CutoffScan", "cutoff_scan", "run_suite", "run_suites"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    # not cached here: a name patched in its submodule reads patched
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_ORIGIN[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
