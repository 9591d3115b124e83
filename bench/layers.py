"""Per-layer metrics derived from the traced run's span table.

The layers are the modules under `src/assoc_hermite/`.  Every metric named
here is reported on every workload, with 0 where the workload does not
reach the layer.  The README's prediction table says which end-to-end
metric each one should move.
"""

from __future__ import annotations

from tracer import CALLS, CASES, OBJECTS, SELF, TERMS, TOTAL

# The desk-level suites, by the suffix of their `suite_*` function.
SUITES = (
    "moment_tables",
    "orthogonality",
    "involution",
    "linearization",
    "published_values",
    "mixed",
    "polynomial_models",
    "bijections",
    "chebyshev",
    "conjecture",
    "moment_sequence",
)

# Every CLI command some workload runs.
COMMANDS = (
    "verify-all",
    "moments",
    "orthogonality",
    "gf",
    "conjecture",
    "poly",
    "bijection",
    "linearize",
    "mixed",
)

MATCHING_ENUMERATORS = (
    "matchings.enumerate_complete",
    "matchings.enumerate_incomplete",
    "matchings.enumerate_inhomogeneous",
)

# The cached recurrences of `models`; every other `models` span is one of
# the matching-model generators (or their enumerators and gf sums).
MODEL_RECURRENCES = ("models.associated_hermite", "models.usual_hermite", "models.chebyshev_u")


def merge(tables) -> dict[tuple[str, str], list]:
    """Sum span rows [name, parent, *record] from several children."""
    out: dict[tuple[str, str], list] = {}
    for rows in tables:
        for name, parent, *rec in rows:
            acc = out.setdefault((name, parent), [0] * len(rec))
            for i, value in enumerate(rec):
                acc[i] += value
    return out


def _by_name(table: dict[tuple[str, str], list]) -> dict[str, list]:
    out: dict[str, list] = {}
    for (name, _parent), rec in table.items():
        acc = out.setdefault(name, [0] * len(rec))
        for i, value in enumerate(rec):
            acc[i] += value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    table: dict[tuple[str, str], list],
    cache: dict[str, list[int]],
    trace_overhead: float,
) -> dict[str, dict]:
    """Every per-layer metric as {name: {"value": v, "unit": u}}."""
    spans = _by_name(table)
    zero = [0] * 7

    def field(name: str, index: int):
        return spans.get(name, zero)[index]

    def hit_ratio(name: str) -> float:
        hits, misses = cache.get(name, (0, 0))
        return _ratio(hits, hits + misses)

    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for span in ("polynomials.mul", "polynomials.add"):
        put(f"{span}.calls", field(span, CALLS), "count")
        put(f"{span}.self_s", field(span, SELF), "s")
    put("polynomials.to_json.self_s", field("polynomials.to_json", SELF), "s")

    for span in MATCHING_ENUMERATORS:
        put(f"{span}.objects", field(span, OBJECTS), "count")
    put("matchings.enumerate.self_s", sum(field(s, SELF) for s in MATCHING_ENUMERATORS), "s")
    put("matchings.weight.calls", field("matchings.weight", CALLS), "count")
    put("matchings.weight.self_s", field("matchings.weight", SELF), "s")
    put("matchings.edge_stats.calls", field("matchings.edge_stats", CALLS), "count")

    put("moments.moment.calls", field("moments.moment", CALLS), "count")
    put("moments.moment.self_s", field("moments.moment", SELF), "s")
    put("moments.moment.hit_ratio", hit_ratio("moments.moment"), "ratio")
    put("moments.apply_functional.self_s", field("moments.apply_functional", SELF), "s")
    put("moments.enumerate_paired.objects", field("moments.enumerate_paired", OBJECTS), "count")
    put("moments.paired_weight.self_s", field("moments.paired_weight", SELF), "s")

    put("models.associated_hermite.calls", field("models.associated_hermite", CALLS), "count")
    put("models.associated_hermite.self_s", field("models.associated_hermite", SELF), "s")
    put("models.associated_hermite.hit_ratio", hit_ratio("models.associated_hermite"), "ratio")
    generators = [n for n in spans if n.startswith("models.") and n not in MODEL_RECURRENCES]
    put("models.generators.self_s", sum(field(n, SELF) for n in generators), "s")

    for fn in ("inhomogeneous_gf", "product_functional", "linearization_coefficient"):
        put(f"linearization.{fn}.calls", field(f"linearization.{fn}", CALLS), "count")
        put(f"linearization.{fn}.self_s", field(f"linearization.{fn}", SELF), "s")
    enumerated = table.get(
        ("matchings.enumerate_inhomogeneous", "linearization.inhomogeneous_gf"), zero
    )[OBJECTS]
    put(
        "linearization.inhomogeneous_gf.objects_per_term",
        _ratio(enumerated, field("linearization.inhomogeneous_gf", TERMS)),
        "ratio",
    )

    put("tableaux.matching_to_tableau.calls", field("tableaux.matching_to_tableau", CALLS), "count")
    put("tableaux.matching_to_tableau.self_s", field("tableaux.matching_to_tableau", SELF), "s")
    put("maps.enumerate_rooted_maps.objects", field("maps.enumerate_rooted_maps", OBJECTS), "count")
    put("maps.enumerate_rooted_maps.self_s", field("maps.enumerate_rooted_maps", SELF), "s")
    put("maps.tail_swap.self_s", field("maps.tail_swap", SELF), "s")

    for suite in SUITES:
        put(f"verification.{suite}.s", field(f"verification.{suite}", TOTAL), "s")
        put(f"verification.{suite}.cases", field(f"verification.{suite}", CASES), "count")

    put("cli.main.calls", sum(field(f"cli.{c}", CALLS) for c in COMMANDS), "count")
    for command in COMMANDS:
        put(f"cli.{command}.s", field(f"cli.{command}", TOTAL), "s")

    put("trace_overhead", trace_overhead, "ratio")
    return metrics
