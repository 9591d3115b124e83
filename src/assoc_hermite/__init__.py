"""Exact combinatorics of associated Hermite polynomials.

Polynomials in x and c over the rationals, their moments, the matching,
tableau, and rooted-map models that generate them, and brute-force
verification of every identity the package implements.

`import assoc_hermite` loads no submodule.  Each public name is resolved
on first access: `__getattr__` imports the one submodule that defines it
and caches the value here, so `assoc_hermite.moment` costs the imports of
`moments` and nothing else.  A submodule is reached as usual, by
`from assoc_hermite import verification` or `import assoc_hermite.maps`.
"""

import importlib

__version__ = "0.1.0"

# The verification levels.  They live here, not in `verification`, so that
# the CLI can build its parser without importing the suites.
LEVELS = ("desk", "extended")

# Each submodule and the public names it defines.
_EXPORTS = {
    "linearization": (
        "ConjectureReport",
        "conjecture_check",
        "conjecture_sweep",
        "inhomogeneous_gf",
        "linearization_coefficient",
        "linearization_coefficient_hypergeometric",
        "mixed_coefficient",
        "mixed_residual",
        "product_functional",
        "verify_linearization",
        "verify_mixed",
    ),
    "maps": (
        "RootedMap",
        "connected_matching_tags",
        "connected_matching_weight",
        "double_occurrence_word",
        "enumerate_rooted_maps",
        "map_to_connected_matching",
        "marked_word",
        "tail_swap",
        "tail_swap_inverse",
    ),
    "matchings": (
        "DEFAULT_CAP",
        "Blocks",
        "Matching",
        "WeightScheme",
        "edge_stats",
        "enumerate_complete",
        "enumerate_incomplete",
        "enumerate_inhomogeneous",
        "is_connected",
        "nonnested_edges",
        "weight",
    ),
    "models": (
        "AnchoredConfig",
        "anchored_config_gf",
        "anchored_config_slots",
        "associated_hermite",
        "associated_hermite_matchings",
        "associated_in_hermite_basis",
        "chebyshev_limit",
        "chebyshev_u",
        "chebyshev_u_matchings",
        "enumerate_anchored_configs",
        "enumerate_marker_edge_matchings",
        "enumerate_two_row_matchings",
        "marker_edge_model",
        "two_row_matching_gf",
        "usual_hermite",
    ),
    "moments": (
        "PairedMatching",
        "apply_functional",
        "cycle_count",
        "enumerate_paired",
        "flip_candidate",
        "inner_product",
        "left_to_right_maxima",
        "moment",
        "moment_series",
        "moment_via_matchings",
        "orthogonality_involution",
        "paired_to_permutation",
        "paired_weight",
    ),
    "polynomials": (
        "C",
        "X",
        "Poly",
        "binomial_poly",
        "rising_factorial",
        "rising_factorial_value",
    ),
    "tableaux": (
        "OscillatingTableau",
        "enumerate_tableaux",
        "forward_fillings",
        "matching_to_tableau",
        "tableau_to_matching",
        "tableau_weight",
    ),
    "verification": ("Failure", "RunReport", "run_all"),
}

# The one table `__getattr__` reads: each public name and its submodule.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        # Also how `from assoc_hermite import maps` learns to import the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})
