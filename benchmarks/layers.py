"""Per-layer metrics: names, units, and how a trace yields them.

Each metric belongs to one layer of sepstats; README.md maps each layer to
the end-to-end metric and workload it should move.

Time metrics are self times (span duration minus nested spans) unless the
name is a verify check or a CLI command, which are whole calls.
"""

from __future__ import annotations

# Every suite entry of ``verify.ALL_CHECKS``, in suite order.
VERIFY_CHECK_IDS = (
    "counting-identities",
    "counting-gf-radicals",
    "asc-des-relations",
    "master-vs-enumeration",
    "fixpoint-specialization-consistency",
    "specialized-systems",
    "single-stat-closed-forms",
    "pair-set2-closed-forms",
    "pair-set1-closed-forms",
    "triple-closed-forms",
    "quad-closed-form",
    "e-function-identities",
    "equidistribution-classes",
    "equidistribution-negative-control",
    "symmetry-reducibility-flips",
    "reducible-factorization",
    "transfer-identity",
    "series-snippets",
    "tables-golden",
    "rising-factorial-rmax",
    "eulerian-descents",
    "conjectures",
)

# (name, unit, better); the layer is the name's first component.
METRICS: list[tuple[str, str, str]] = [
    ("permutations.stats_calls", "count", "lower"),
    ("permutations.stats_s", "s", "lower"),
    ("permutations.is_separable_calls", "count", "lower"),
    ("permutations.is_separable_s", "s", "lower"),
    ("enumeration.stream_words", "count", "lower"),
    ("enumeration.stream_s", "s", "lower"),
    ("enumeration.memo_words", "count", "lower"),
    ("enumeration.filter_candidates", "count", "lower"),
    ("enumeration.filter_yield", "ratio", "higher"),
    ("enumeration.filter_s", "s", "lower"),
    ("distributions.census_s", "s", "lower"),
    ("distributions.dist_s", "s", "lower"),
    ("distributions.stream_walks", "count", "lower"),
    ("distributions.profiles", "count", "lower"),
    ("series.poly_mul_calls", "count", "lower"),
    ("series.poly_mul_terms", "count", "lower"),
    ("series.poly_mul_s", "s", "lower"),
    ("series.trunc_mul_s", "s", "lower"),
    ("series.invert_calls", "count", "lower"),
    ("series.invert_s", "s", "lower"),
    ("series.sqrt_s", "s", "lower"),
    ("series.divide_s", "s", "lower"),
    ("series.fraction_share", "ratio", "lower"),
    ("series.result_coeffs", "count", "lower"),
    ("series.fixpoint_calls", "count", "lower"),
    ("series.fixpoint_s", "s", "lower"),
    ("series.fixpoint_cache_hits", "count", "higher"),
    ("series.fixpoint_cache_misses", "count", "lower"),
    ("series.serialize_s", "s", "lower"),
    ("series.deserialize_s", "s", "lower"),
    ("series.render_s", "s", "lower"),
    ("closedforms.discriminant_root_s", "s", "lower"),
    ("closedforms.S_single_s", "s", "lower"),
    ("closedforms.pair_s", "s", "lower"),
    ("closedforms.triple_s", "s", "lower"),
    ("closedforms.e_function_s", "s", "lower"),
    ("closedforms.quad_s", "s", "lower"),
    ("closedforms.cache_hits", "count", "higher"),
    ("closedforms.cache_misses", "count", "lower"),
    *((f"verify.check.{cid}_s", "s", "lower") for cid in VERIFY_CHECK_IDS),
    ("verify.reports", "count", "higher"),
    ("verify.reports_failed", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.series_joint_miss_s", "s", "lower"),
    ("cli.series_joint_hit_s", "s", "lower"),
    ("cli.series_lane_miss_s", "s", "lower"),
    ("cli.series_lane_hit_s", "s", "lower"),
    ("cli.tables_s", "s", "lower"),
    ("cli.dist_s", "s", "lower"),
    ("cli.cache_hits", "count", "higher"),
    ("cli.cache_misses", "count", "lower"),
    ("cli.cache_bytes_written", "bytes", "lower"),
    ("cli.cache_bytes_read", "bytes", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace_overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in METRICS}

# Span or aggregate name -> metric fed by its self time.
_SELF_TIME = {
    "permutations._stats_of_sequence": "permutations.stats_s",
    "enumeration.is_separable": "permutations.is_separable_s",
    "permutations.is_separable": "permutations.is_separable_s",
    "enumeration.stream": "enumeration.stream_s",
    "distributions.iter_separable_bytes": "enumeration.stream_s",
    "verify.iter_separable_bytes": "enumeration.stream_s",
    "cli.iter_separable_bytes": "enumeration.stream_s",
    "enumeration.filter": "enumeration.filter_s",
    "distributions.census": "distributions.census_s",
    "distributions.dist": "distributions.dist_s",
    "series.poly_mul": "series.poly_mul_s",
    "series.trunc_mul": "series.trunc_mul_s",
    "series.invert": "series.invert_s",
    "series.sqrt": "series.sqrt_s",
    "series.divide": "series.divide_s",
    "series.fixpoint": "series.fixpoint_s",
    "series.serialize": "series.serialize_s",
    "series.deserialize": "series.deserialize_s",
    "series.render": "series.render_s",
    "closedforms.discriminant_root": "closedforms.discriminant_root_s",
    "closedforms.single": "closedforms.S_single_s",
    "closedforms.pair": "closedforms.pair_s",
    "closedforms.triple": "closedforms.triple_s",
    "closedforms.e_function": "closedforms.e_function_s",
    "closedforms.quad": "closedforms.quad_s",
}

# Metric -> span or aggregate names whose call counts it sums.
_CALLS = {
    "permutations.stats_calls": ("permutations._stats_of_sequence",),
    "permutations.is_separable_calls": ("enumeration.is_separable", "permutations.is_separable"),
    "enumeration.filter_candidates": ("enumeration.is_separable",),
    "distributions.stream_walks": ("distributions.iter_separable_bytes",),
    "series.poly_mul_calls": ("series.poly_mul",),
    "series.invert_calls": ("series.invert",),
    "series.fixpoint_calls": ("series.fixpoint",),
}


def raw_from_trace(totals: dict[str, list], counters: dict[str, int]) -> dict[str, float]:
    """Additive per-layer quantities of one traced process.

    Ratios are kept as numerator and denominator (keys starting with ``_``)
    so that the quantities of several processes can be summed first.
    """
    raw: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        raw[key] = raw.get(key, 0) + value

    for name, (calls, self_s, incl_s, extra) in totals.items():
        if name in _SELF_TIME:
            add(_SELF_TIME[name], self_s)
        if name.startswith("verify.check."):
            add(name + "_s", incl_s)
    for metric, names in _CALLS.items():
        add(metric, sum(totals[n][0] for n in names if n in totals))
    extra = {name: rec[3] for name, rec in totals.items()}
    add("enumeration.stream_words", extra.get("enumeration.stream", 0))
    add("series.poly_mul_terms", extra.get("series.poly_mul", 0))
    add("_filter_separable", extra.get("enumeration.is_separable", 0))
    add("distributions.profiles", counters.get("distributions.profiles", 0))
    add("series.result_coeffs", counters.get("series.result_coeffs", 0))
    add("_fraction_coeffs", counters.get("series.fraction_coeffs", 0))
    return raw


def cache_counts(caches: dict) -> dict[str, int]:
    """Hit and miss counts of the fixpoint memo and the closed-form memos."""
    out = {
        "series.fixpoint_cache_hits": 0,
        "series.fixpoint_cache_misses": 0,
        "closedforms.cache_hits": 0,
        "closedforms.cache_misses": 0,
    }
    for qualname, fn in caches.items():
        info = fn.cache_info()
        if qualname == "sepstats.series._solve_fixpoint_cached":
            out["series.fixpoint_cache_hits"] += info.hits
            out["series.fixpoint_cache_misses"] += info.misses
        elif qualname.startswith("sepstats.closedforms."):
            out["closedforms.cache_hits"] += info.hits
            out["closedforms.cache_misses"] += info.misses
    return out


def memo_words() -> int:
    """Permutations held in the enumeration memo tables, all lengths."""
    from sepstats import enumeration

    return sum(len(tables[0]) for tables in enumeration._TABLES.values())


def finish(raw: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric (0 where its layer did not run), ratios formed."""
    out = {name: raw.get(name, 0) for name, _, _ in METRICS}
    cand = raw.get("enumeration.filter_candidates", 0)
    out["enumeration.filter_yield"] = raw.get("_filter_separable", 0) / cand if cand else 0.0
    coeffs = raw.get("series.result_coeffs", 0)
    out["series.fraction_share"] = raw.get("_fraction_coeffs", 0) / coeffs if coeffs else 0.0
    return out
