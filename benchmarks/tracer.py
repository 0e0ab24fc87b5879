"""Span tracing of the sepstats layers, installed from outside the package.

The tracer replaces, in the namespaces where callers look them up, the
functions and methods at each layer boundary with timing wrappers.  Nothing
under ``src/`` is edited; :func:`install` returns an ``uninstall`` callable
that puts every original back.

Two kinds of record are kept in memory and written once, at the end:

* **spans** for coarse calls (series products, closed-form builders, verify
  checks, ...): name, start, end, parent span, self time;
* **aggregates** for per-word or per-monomial calls (the statistics kernel,
  the separability test, stream ``next()`` calls, ``MultiPoly`` products),
  summed per (name, size, parent span) so the overhead stays bounded.

Self time is a record's duration minus the time of the records nested in it.
Bookkeeping done outside a timed call (counting Fraction coefficients, sizes
of results) is charged to nobody: it is subtracted from the enclosing span.
"""

from __future__ import annotations

import time
from fractions import Fraction

_clock = time.perf_counter


class Tracer:
    """In-memory span and aggregate recorder."""

    def __init__(self) -> None:
        # name, start, end, parent span id, self seconds
        self.spans: list[tuple[str, float, float, int, float]] = []
        # (name, size, parent span id) -> [calls, self_s, incl_s, extra]
        self.aggregates: dict[tuple[str, int, int], list] = {}
        # counts taken from call results, e.g. coefficient types
        self.counters: dict[str, int] = {}
        # frames of the open calls: [span id, seconds of nested records]
        self._stack: list[list] = [[-1, 0.0]]

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, size: int, parent: int, d: float, nested: float, extra: int) -> None:
        key = (name, size, parent)
        rec = self.aggregates.get(key)
        if rec is None:
            rec = self.aggregates[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += d - nested
        rec[2] += d
        rec[3] += extra

    def _uncharged(self, seconds: float) -> None:
        """Hide tracer bookkeeping from the enclosing record's self time."""
        self._stack[-1][1] += seconds

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that every call records one span.

        ``on_result(tracer, result)`` runs after the span has closed and is
        charged to nobody.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id for nested spans
            frame = [span_id, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                parent[1] += end - start
                tracer.spans[span_id] = (name, start, end, parent[0], end - start - frame[1])
            if on_result is not None:
                t0 = _clock()
                on_result(tracer, result)
                tracer._uncharged(_clock() - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, size=None, extra=None):
        """Wrap ``fn`` so that calls are summed per (name, size, parent)."""
        tracer = self

        def wrapper(*args):
            stack = tracer._stack
            parent = stack[-1]
            frame = [parent[0], 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args)
            finally:
                d = _clock() - start
                stack.pop()
                parent[1] += d
            if result is NotImplemented:
                return result
            tracer._record(
                name,
                size(args) if size is not None else 0,
                parent[0],
                d,
                frame[1],
                extra(args, result) if extra is not None else 0,
            )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, name: str, size: int, iterator):
        """Yield from ``iterator``, recording each ``next()`` as one call;
        the record's extra counts the items yielded."""
        nxt = iter(iterator).__next__
        stack = self._stack
        done = object()
        while True:
            parent = stack[-1]
            frame = [parent[0], 0.0]
            stack.append(frame)
            start = _clock()
            try:
                item = nxt()
            except StopIteration:
                item = done
            finally:
                d = _clock() - start
                stack.pop()
                parent[1] += d
            self._record(name, size, parent[0], d, frame[1], item is not done)
            if item is done:
                return
            yield item

    # -- read-out ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, self_s, incl_s, extra], over spans and aggregates."""
        out: dict[str, list] = {}
        for name, start, end, _parent, self_s in self.spans:
            rec = out.setdefault(name, [0, 0.0, 0.0, 0])
            rec[0] += 1
            rec[1] += self_s
            rec[2] += end - start
        for (name, _size, _parent), (calls, self_s, incl_s, extra) in self.aggregates.items():
            rec = out.setdefault(name, [0, 0.0, 0.0, 0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += incl_s
            rec[3] += extra
        return out

    def document(self) -> dict:
        """Every span and aggregate, JSON-ready."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [
                [name, size, parent, *rec]
                for (name, size, parent), rec in self.aggregates.items()
            ],
            "counters": self.counters,
        }


# ---------------------------------------------------------------------------
# What is wrapped, and where callers look it up
# ---------------------------------------------------------------------------


def _word_len(args) -> int:
    return len(args[0])


def _poly_terms(args, result) -> int:
    other = args[1]
    return len(args[0]._terms) * (len(other._terms) if hasattr(other, "_terms") else 1)


def _fraction_coeffs(tracer: Tracer, result) -> None:
    """Count the Fraction-typed coefficients of an invert/sqrt/divide result."""
    for poly in result.coefficients():
        coeffs = poly._terms.values()
        tracer.count("series.result_coeffs", len(coeffs))
        tracer.count("series.fraction_coeffs", sum(isinstance(c, Fraction) for c in coeffs))


def _census_profiles(tracer: Tracer, result) -> None:
    tracer.count("distributions.profiles", sum(len(poly) for poly in result.coefficients()))


def _dist_profiles(tracer: Tracer, result) -> None:
    tracer.count("distributions.profiles", sum(len(row) for row in result.rows.values()))


def install(tracer: Tracer):
    """Wrap every layer boundary; return a callable that undoes it."""
    from sepstats import cli, closedforms, distributions, enumeration, permutations, series, verify

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_everywhere(owners, attr: str, make) -> None:
        original = getattr(owners[0], attr)
        wrapped = make(original)
        for owner in owners:
            if getattr(owner, attr) is original:
                patch(owner, attr, wrapped)

    # permutations: the statistics kernel and the separability test
    patch_everywhere(
        (permutations, distributions, verify),
        "_stats_of_sequence",
        lambda f: tracer.counted("permutations._stats_of_sequence", f, size=_word_len),
    )
    sep = permutations.is_separable
    patch(enumeration, "is_separable", tracer.counted(
        "enumeration.is_separable", sep, size=lambda a: len(a[0]), extra=lambda a, r: int(r)
    ))
    other_sep = tracer.counted("permutations.is_separable", sep, size=lambda a: len(a[0]))
    for owner in (permutations, verify):
        patch(owner, "is_separable", other_sep)

    # enumeration: the structural byte stream and the brute-force filter
    stream = enumeration.iter_separable_bytes

    def stream_opener(site: str):
        opener = tracer.counted(site, stream, size=lambda a: a[0])

        def open_stream(n, cls="all"):
            return tracer.timed_iter("enumeration.stream", n, opener(n, cls))

        return open_stream

    for owner, site in (
        (distributions, "distributions.iter_separable_bytes"),
        (verify, "verify.iter_separable_bytes"),
        (cli, "cli.iter_separable_bytes"),
    ):
        patch(owner, "iter_separable_bytes", stream_opener(site))
    filt = enumeration.enumerate_filter

    def traced_filter(n):
        return tracer.timed_iter("enumeration.filter", n, filt(n))

    for owner in (enumeration, cli):
        patch(owner, "enumerate_filter", traced_filter)

    # distributions: the census and the distribution tables
    patch_everywhere(
        (distributions, verify),
        "series_from_enumeration",
        lambda f: tracer.span("distributions.census", f, on_result=_census_profiles),
    )
    patch_everywhere(
        (distributions, verify, cli),
        "dist_from_enumeration",
        lambda f: tracer.span("distributions.dist", f, on_result=_dist_profiles),
    )

    # series: the polynomial kernel, series algebra, fixpoint, serialization
    MultiPoly, TruncSeries = series.MultiPoly, series.TruncSeries
    poly_mul = tracer.counted("series.poly_mul", MultiPoly.__mul__, extra=_poly_terms)
    patch(MultiPoly, "__mul__", poly_mul)
    patch(MultiPoly, "__rmul__", poly_mul)
    patch(MultiPoly, "__str__", tracer.counted("series.render", MultiPoly.__str__))
    trunc_mul = tracer.span("series.trunc_mul", TruncSeries.__mul__)
    patch(TruncSeries, "__mul__", trunc_mul)
    patch(TruncSeries, "__rmul__", trunc_mul)
    for method in ("invert", "sqrt", "divide"):
        patch(TruncSeries, method, tracer.span(
            f"series.{method}", getattr(TruncSeries, method), on_result=_fraction_coeffs
        ))
    patch_everywhere(
        (series, closedforms, verify, cli),
        "solve_fixpoint",
        lambda f: tracer.span("series.fixpoint", f),
    )
    for attr, name in (
        ("series_to_document", "series.serialize"),
        ("canonical_json", "series.serialize"),
        ("document_to_series", "series.deserialize"),
    ):
        patch_everywhere((series, cli), attr, lambda f, name=name: tracer.span(name, f))

    # closedforms: every builder, looked up through the module by all callers
    for attr, name in (
        ("discriminant_root", "closedforms.discriminant_root"),
        ("_single_gf_by_lane", "closedforms.single"),
        ("_single_split_by_lane", "closedforms.single"),
        ("closed_form_S_single", "closedforms.single"),
        ("closed_form_I_single", "closedforms.single"),
        ("closed_form_R_single", "closedforms.single"),
        ("closed_form_pair_set1", "closedforms.pair"),
        ("closed_form_pair_set2", "closedforms.pair"),
        ("closed_form_triple", "closedforms.triple"),
        ("e_function", "closedforms.e_function"),
        ("closed_form_quad", "closedforms.quad"),
    ):
        patch(closedforms, attr, tracer.span(name, getattr(closedforms, attr)))

    # verify: one span per suite entry (run_all calls check_conjectures directly)
    for check_id, fn in list(verify.ALL_CHECKS.items()):
        wrapped = tracer.span(f"verify.check.{check_id}", fn)
        undo.append((verify.ALL_CHECKS, check_id, fn))
        verify.ALL_CHECKS[check_id] = wrapped
        if fn is verify.check_conjectures:
            patch(verify, "check_conjectures", wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return uninstall


def lru_caches(*modules):
    """Every ``lru_cache`` wrapper defined at module level, by qualified name."""
    out = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                out[f"{mod.__name__}.{attr}"] = obj
    return out
