"""Cross-checks between independent routes to the classical numbers."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

import sepstats
from sepstats.numbers import (
    binomial,
    catalan,
    catalan_bruteforce,
    dyck_peak_count,
    eulerian_poly,
    factorial,
    rising_factorial_coeffs,
    schroeder_eq1,
    schroeder_eq2,
    stirling2,
)

LARGE_SCHROEDER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718]


def test_binomial_matches_math_comb():
    for n in [*range(0, 15), 300, 1201]:
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_catalan_against_bruteforce():
    for n in range(0, 10):
        assert catalan(n) == catalan_bruteforce(n)


def test_catalan_segner_recurrence():
    for n in range(1, 12):
        assert catalan(n) == sum(
            catalan(i) * catalan(n - 1 - i) for i in range(n)
        )


def test_schroeder_formulas_agree_and_match_frozen_values():
    for n, want in enumerate(LARGE_SCHROEDER):
        assert schroeder_eq1(n) == want
        assert schroeder_eq2(n) == want


def test_dyck_peak_counts_are_narayana():
    # peak counts of Dyck paths are the Narayana numbers N(n,k)
    for n in range(1, 9):
        for k in range(1, n + 1):
            narayana = binomial(n, k) * binomial(n, k - 1) // n
            assert dyck_peak_count(n, k) == narayana
        assert sum(dyck_peak_count(n, k) for k in range(n + 1)) == catalan(n)
    with pytest.raises(ValueError):
        dyck_peak_count(0, 0)


def test_stirling2_recurrence_and_bell_sums():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(len(bell)):
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell[n]
    for n in range(2, 9):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(
                n - 1, k - 1
            )


def test_factorial():
    for n in range(10):
        assert factorial(n) == math.factorial(n)


def test_eulerian_poly_row_sums_and_symmetry():
    for n in range(1, 9):
        row = eulerian_poly(n)
        assert sum(row.values()) == math.factorial(n)
        # Eulerian numbers are symmetric: A(n, k) = A(n, n-1-k)
        for k, c in row.items():
            assert row.get(n - 1 - k, 0) == c


def test_rising_factorial_coeffs_expand_the_product():
    # y(y+1)...(y+n-1) expanded naively with Fraction-free integer math
    for n in range(1, 9):
        poly = {0: 1}
        for a in range(n):
            nxt: dict[int, int] = {}
            for e, c in poly.items():
                nxt[e + 1] = nxt.get(e + 1, 0) + c
                if a:
                    nxt[e] = nxt.get(e, 0) + c * a
            poly = nxt
        poly = {e: c for e, c in poly.items() if c}
        assert rising_factorial_coeffs(n) == poly


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        catalan(-1)
    with pytest.raises(ValueError):
        schroeder_eq1(-1)
    with pytest.raises(ValueError):
        schroeder_eq2(-2)
    with pytest.raises(ValueError):
        factorial(-1)


def test_deep_sequences_work_cold():
    # a fresh interpreter, so no smaller argument has been computed before
    src = Path(sepstats.__file__).resolve().parent.parent
    code = (
        "from math import comb, factorial\n"
        "from sepstats.enumeration import count_separable\n"
        "from sepstats.numbers import binomial, catalan, eulerian_poly, "
        "schroeder_eq1, stirling2\n"
        "assert catalan(1100) == comb(2200, 1100) // 1101\n"
        "assert binomial(1100, 3) == comb(1100, 3)\n"
        "assert stirling2(1100, 2) == 2**1099 - 1\n"
        "assert schroeder_eq1(600) == count_separable(601)\n"
        "a = eulerian_poly(1100)\n"
        "assert sum(a.values()) == factorial(1100)\n"
        "assert a[1] == 2**1100 - 1101 and a[1] == a[1098]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cold_schroeder_sum_retains_little_memory():
    # schroeder_eq1(600) reads binomials from rows up to 1200; a memoized
    # Pascal triangle that far holds about 80 MB
    src = Path(sepstats.__file__).resolve().parent.parent
    code = (
        "import tracemalloc\n"
        "from sepstats.numbers import schroeder_eq1\n"
        "tracemalloc.start()\n"
        "schroeder_eq1(600)\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 2**20
