"""Exact integer sequences and polynomial identities.

This module provides the combinatorial number machinery used throughout the
package: Catalan numbers, the two classical summation formulas for the large
Schroeder numbers, peak counts of Dyck paths, Stirling numbers of the second
kind, the Eulerian polynomials, and rising factorials.

Every value is an exact Python integer (or an exact polynomial); no floating
point is used anywhere.  The Dyck-path peak counts are computed by a dynamic
program over lattice paths rather than a closed formula, so they can serve as
an independent oracle for the summation identities.

>>> [catalan(n) for n in range(6)]
[1, 1, 2, 5, 14, 42]
>>> [schroeder_eq1(n) for n in range(7)]
[1, 2, 6, 22, 90, 394, 1806]
>>> schroeder_eq2(3)
22
"""

from __future__ import annotations

import functools

__all__ = [
    "binomial",
    "catalan",
    "schroeder_eq1",
    "dyck_peak_count",
    "schroeder_eq2",
    "stirling2",
    "factorial",
    "eulerian_poly",
    "rising_factorial_coeffs",
]


#: Catalan numbers C_0, C_1, ..., filled from the bottom up.
_CATALANS: list[int] = [1]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), multiplicatively in integers.

    After step i the running value is C(n - k + i, i), so every division is
    exact.  Nothing is memoized: Pascal rows up to 1200, which
    ``schroeder_eq1(600)`` reads, would hold about 80 MB.

    >>> binomial(5, 2)
    10
    >>> binomial(5, 7)
    0
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
    return c


def catalan(n: int) -> int:
    """The n-th Catalan number, by the convolution recurrence.

    >>> catalan(0)
    1
    >>> catalan(5)
    42
    """
    if n < 0:
        raise ValueError(f"catalan requires n >= 0, got n={n}")
    c = _CATALANS
    for m in range(len(c), n + 1):
        c.append(sum(c[i] * c[m - 1 - i] for i in range(m)))
    return c[n]


def catalan_bruteforce(n: int) -> int:
    """Count balanced 01-sequences of length 2n directly (oracle for catalan).

    Enumerates prefix-balanced sequences by depth-first search, so it is only
    meant for small n.

    >>> [catalan_bruteforce(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError(f"catalan_bruteforce requires n >= 0, got n={n}")

    def count(opens_left: int, height: int) -> int:
        if opens_left == 0:
            return 1 if height == 0 else 0
        total = 0
        if height > 0:
            total += count(opens_left - 1, height - 1)
        if height < opens_left:
            total += count(opens_left - 1, height + 1)
        return total

    return count(2 * n, 0)


def schroeder_eq1(n: int) -> int:
    """Large Schroeder number s_n as sum_{i=0..n} C(2n-i, i) * catalan(n-i).

    >>> [schroeder_eq1(n) for n in range(5)]
    [1, 2, 6, 22, 90]
    """
    if n < 0:
        raise ValueError(f"schroeder_eq1 requires n >= 0, got n={n}")
    return sum(binomial(2 * n - i, i) * catalan(n - i) for i in range(n + 1))


@functools.lru_cache(maxsize=None)
def _dyck_peak_table(n: int) -> dict[int, int]:
    """Peak distribution {k: count} of Dyck paths of semilength n, by forward DP.

    States are (height, last step was up, peaks so far); a peak is a UD factor,
    counted when a down step closes an up step.
    """
    states: dict[tuple[int, bool, int], int] = {(0, False, 0): 1}
    for _step in range(2 * n):
        nxt: dict[tuple[int, bool, int], int] = {}
        for (height, was_up, peaks), cnt in states.items():
            key_u = (height + 1, True, peaks)
            nxt[key_u] = nxt.get(key_u, 0) + cnt
            if height > 0:
                key_d = (height - 1, False, peaks + (1 if was_up else 0))
                nxt[key_d] = nxt.get(key_d, 0) + cnt
        states = nxt
    result: dict[int, int] = {}
    for (height, _was_up, peaks), cnt in states.items():
        if height == 0:
            result[peaks] = result.get(peaks, 0) + cnt
    return result


def dyck_peak_count(n: int, k: int) -> int:
    """Number of Dyck paths of semilength n with exactly k peaks.

    Computed by dynamic programming over paths; no closed formula is assumed.
    Out-of-range k yields 0.

    >>> dyck_peak_count(1, 1)
    1
    >>> [dyck_peak_count(3, k) for k in (1, 2, 3)]
    [1, 3, 1]
    """
    if n < 1:
        raise ValueError(f"dyck_peak_count requires n >= 1, got n={n}")
    if k < 1 or k > n:
        return 0
    return _dyck_peak_table(n).get(k, 0)


def schroeder_eq2(n: int) -> int:
    """Large Schroeder number s_n as sum_{k=0..n} 2^k * C_{n,k}.

    C_{n,k} is the Dyck-path peak count.  The k = 0 term is taken to be 0 for
    n >= 1 (a nonempty Dyck path has at least one peak), and the empty sum at
    n = 0 is taken to be 1, matching schroeder_eq1.

    >>> schroeder_eq2(0)
    1
    >>> schroeder_eq2(3)
    22
    """
    if n < 0:
        raise ValueError(f"schroeder_eq2 requires n >= 0, got n={n}")
    if n == 0:
        return 1
    return sum((2**k) * dyck_peak_count(n, k) for k in range(1, n + 1))


def _stirling2_row(n: int, width: int) -> list[int]:
    """S(n, 0..width), by S(m, j) = j S(m-1, j) + S(m-1, j-1) row after row
    from m = 0, keeping only the current row (the whole triangle at
    n = 1100 would hold about 270 MB of integers)."""
    row = [1] + [0] * width
    for _ in range(n):
        for j in range(width, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), by the standard recurrence.

    >>> stirling2(4, 2)
    7
    >>> stirling2(3, 3)
    1
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 requires n, k >= 0, got n={n}, k={k}")
    return _stirling2_row(n, k)[k]


def factorial(n: int) -> int:
    """n!, exact.

    >>> factorial(5)
    120
    """
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got n={n}")
    result = 1
    for i in range(2, n + 1):
        result *= i
    return result


def eulerian_poly(n: int) -> dict[int, int]:
    """Coefficients of the Eulerian polynomial A_n(q) = sum_pi q^des(pi).

    Computed via the identity A_n(q) = sum_{k=1..n} k! S(n,k) (q-1)^{n-k},
    returned as a sparse map {exponent: coefficient} with zero coefficients
    removed.

    >>> eulerian_poly(1)
    {0: 1}
    >>> eulerian_poly(3) == {0: 1, 1: 4, 2: 1}
    True
    """
    if n < 1:
        raise ValueError(f"eulerian_poly requires n >= 1, got n={n}")
    stirling_row = _stirling2_row(n, n)
    coeffs: list[int] = []  # of q^0, q^1, ...
    k_factorial = 1
    for k in range(1, n + 1):
        # Horner's rule in (q - 1): coeffs <- coeffs * (q - 1) + k! S(n, k)
        k_factorial *= k
        coeffs = [a - b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += k_factorial * stirling_row[k]
    return {e: c for e, c in enumerate(coeffs) if c != 0}


def rising_factorial_coeffs(n: int) -> dict[int, int]:
    """Coefficients of y (y+1) (y+2) ... (y+n-1) as {exponent: coefficient}.

    This is the distribution of the number of right-to-left maxima over all
    of S_n (the signless Stirling numbers of the first kind).

    >>> rising_factorial_coeffs(1)
    {1: 1}
    >>> rising_factorial_coeffs(3) == {1: 2, 2: 3, 3: 1}
    True
    """
    if n < 1:
        raise ValueError(f"rising_factorial_coeffs requires n >= 1, got n={n}")
    poly: dict[int, int] = {1: 1}  # y
    for a in range(1, n):
        nxt: dict[int, int] = {}
        for e, c in poly.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
            nxt[e] = nxt.get(e, 0) + c * a
        poly = nxt
    return dict(sorted(poly.items()))
