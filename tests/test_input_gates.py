"""One gate per input kind: every length, order, count and coefficient an
entry point takes is an ``int`` in range before any memo or ``range()``
sees it, and every memo is typed, so an unchecked key never meets a
checked one."""

import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import sepstats
from sepstats import closedforms, distributions, enumeration, numbers, series, verify
from sepstats.enumeration import FILTER_CAP, HARD_CAP
from sepstats.series import MAX_ORDER, MultiPoly, TruncSeries

#: What the message of a structural length names.
LENGTH = "structural enumeration length"


def listed(stream):
    """``stream`` read to the end, so that a lazy stream is checked too."""
    return lambda v: [*stream(v)]


#: (entry point, what its message names, the call with the checked argument
#: as ``v``, lowest valid value or None for any int, highest valid value or
#: None)
GATES = [
    ("binomial(n)", "binomial n", lambda v: numbers.binomial(v, 2), 0, None),
    ("binomial(k)", "binomial k", lambda v: numbers.binomial(5, v), None, None),
    ("catalan", "catalan n", numbers.catalan, 0, None),
    ("catalan_bruteforce", "catalan_bruteforce n", numbers.catalan_bruteforce, 0, None),
    ("schroeder_eq1", "schroeder_eq1 n", numbers.schroeder_eq1, 0, None),
    ("dyck_peak_count(n)", "dyck_peak_count n", lambda v: numbers.dyck_peak_count(v, 1), 1, None),
    ("dyck_peak_count(k)", "dyck_peak_count k", lambda v: numbers.dyck_peak_count(3, v), None, None),
    ("schroeder_eq2", "schroeder_eq2 n", numbers.schroeder_eq2, 0, None),
    ("stirling2(n)", "stirling2 n", lambda v: numbers.stirling2(v, 1), 0, None),
    ("stirling2(k)", "stirling2 k", lambda v: numbers.stirling2(3, v), 0, None),
    ("factorial", "factorial n", numbers.factorial, 0, None),
    ("eulerian_poly", "eulerian_poly n", numbers.eulerian_poly, 1, None),
    ("rising_factorial_coeffs", "rising_factorial_coeffs n", numbers.rising_factorial_coeffs, 1, None),
    ("count_separable", "count_separable n", enumeration.count_separable, 1, None),
    ("count_irreducible", "count_irreducible n", enumeration.count_irreducible, 1, None),
    ("iter_separable_bytes", LENGTH, listed(enumeration.iter_separable_bytes), 1, HARD_CAP),
    ("_key_stream", LENGTH, listed(enumeration._key_stream), 1, HARD_CAP),
    ("enumerate_structural", LENGTH, listed(enumeration.enumerate_structural), 1, HARD_CAP),
    ("enumerate_filter", "filter enumeration length", listed(enumeration.enumerate_filter), 1, FILTER_CAP),
    ("dist_from_enumeration", LENGTH, distributions.dist_from_enumeration, 1, HARD_CAP),
    ("series_from_enumeration", LENGTH, distributions.series_from_enumeration, 1, HARD_CAP),
    ("table_rows", LENGTH, lambda v: distributions.table_rows(4, v), 1, HARD_CAP),
    ("render_table", LENGTH, lambda v: distributions.render_table(3, v), 1, HARD_CAP),
    # a table number below or above (3, 4, 5) is "no such table"
    ("table_rows(which)", "table", lambda v: distributions.table_rows(v, 3), 3, 5),
    ("render_table(which)", "table", lambda v: distributions.render_table(v, 3), 3, 5),
    ("check_order", "series order", series.check_order, 1, MAX_ORDER),
    ("solve_fixpoint", "series order", lambda v: series.solve_fixpoint(v, "qu"), 1, MAX_ORDER),
    ("closed_form_S_single", "series order", closedforms.closed_form_S_single, 1, MAX_ORDER),
    ("check_conjectures", "conjecture evidence max_n", verify.check_conjectures, 5, MAX_ORDER),
    ("TruncSeries.zero", "truncation order", TruncSeries.zero, 0, None),
    ("TruncSeries.one", "truncation order", TruncSeries.one, 0, None),
    ("TruncSeries.t", "truncation order", TruncSeries.t, 0, None),
    ("TruncSeries.term(order)", "truncation order", lambda v: TruncSeries.term(v, 0, 1), 0, None),
    ("TruncSeries.term(power)", "t power", lambda v: TruncSeries.term(3, v, 1), 0, None),
    # a coefficient is any int, and nothing else
    ("MultiPoly.constant", "coefficient", MultiPoly.constant, None, None),
    ("from_exponents", "coefficient", lambda v: MultiPoly.from_exponents({(0,) * 6: v}), None, None),
    ("scalar *", "coefficient", lambda v: MultiPoly.variable("x") * v, None, None),
    ("specialize", "specialize value", lambda v: MultiPoly.variable("x").specialize("x", v), None, None),
    ("TruncSeries.term(poly)", "coefficient", lambda v: TruncSeries.term(3, 1, v), None, None),
]

#: Entry points whose memo answers a lower order by truncating the highest
#: one built: their warm phase builds this order first.
LONGEST_FIRST = {"solve_fixpoint": 20, "closed_form_S_single": 20}

CASES = [
    pytest.param(call, bad, low, high, what, LONGEST_FIRST.get(name), id=f"{name}-{bad!r}")
    for name, what, call, low, high in GATES
    for bad in (
        True,
        False,
        3.0,
        Fraction(1, 2),
        *(() if low is None else (low - 1,)),
        *(() if high is None else (high + 1,)),
    )
]


@pytest.fixture
def cold(fresh_memos, cold_memos, monkeypatch):
    """Every length-keyed memo of the census and the counts empty, and
    every series memo."""
    series._solve_fixpoint_cached.cache_clear()
    monkeypatch.setattr(enumeration, "_SEPARABLE_COUNTS", [0, 1])
    monkeypatch.setattr(enumeration, "_IRREDUCIBLE_COUNTS", [0, 1])
    monkeypatch.setattr(numbers, "_CATALANS", [1])
    numbers._dyck_peak_table.cache_clear()


@pytest.mark.parametrize("call, bad, low, high, what, longest", CASES)
def test_an_entry_point_refuses_a_bad_length_cold_and_warm(
    cold, call, bad, low, high, what, longest
):
    with pytest.raises(ValueError) as cold_error:
        call(bad)
    # warm: each valid int among 0, 1 and 3 (False, True, 3.0) is answered
    # first, after the longest series where a memo truncates one
    if longest is not None:
        call(longest)
    first = 0 if low is None else max(low, 0)
    for good in range(first, first + 4 if high is None else min(first + 4, high + 1)):
        call(good)
    with pytest.raises(ValueError) as warm_error:
        call(bad)
    for error in (cold_error, warm_error):
        assert what in str(error.value)
        assert repr(bad) in str(error.value)


def test_every_memo_is_typed():
    # one policy for every memo: typed, unbounded, and named in the README
    memos = []
    for info in pkgutil.iter_modules(sepstats.__path__):
        module = importlib.import_module(f"sepstats.{info.name}")
        memos += [
            (info.name, name, obj)
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__
        ]
    assert len(memos) >= 7
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [
        f"{module}.{name}"
        for module, name, memo in memos
        if memo.cache_parameters() != {"maxsize": None, "typed": True}
        or (f"`{module}.{name}`" not in readme and f"`{name}`" not in readme)
    ] == []


#: Every ``verify`` check made by ``_check``, with its body's parameters.
CHECK_PARAMETERS = [
    (check, name)
    for check in verify.ALL_CHECKS.values()
    if hasattr(check, "__wrapped__")
    for name in check.__wrapped__.__code__.co_varnames[
        : check.__wrapped__.__code__.co_argcount
    ]
]


@pytest.mark.parametrize("bad", [True, False, 0, -1, 3.0])
@pytest.mark.parametrize(
    "check, name", CHECK_PARAMETERS, ids=[f"{c.check_id}-{n}" for c, n in CHECK_PARAMETERS]
)
def test_a_check_refuses_a_bad_depth_before_its_body_runs(check, name, bad):
    # at depth 0 a check would pass having checked nothing, at True n = 1 only
    what = f"{check.__name__} {name}"
    with pytest.raises(ValueError, match=f"^{what} must be") as by_name:
        check(**{name: bad})
    assert repr(bad) in str(by_name.value)
    position = check.__wrapped__.__code__.co_varnames.index(name)
    with pytest.raises(ValueError, match=f"^{what} must be"):
        check(*[1] * position, bad)
