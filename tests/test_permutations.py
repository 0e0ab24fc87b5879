"""Permutation core: construction, statistics, symmetries, decomposition."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from sepstats.permutations import (
    FORBIDDEN_PATTERNS,
    Permutation,
    StatProfile,
    _has_2413_or_3142,
    _stats_of_sequence,
    block_decompose,
    complement,
    components,
    contains_pattern,
    direct_sum,
    inverse,
    is_irreducible,
    is_separable,
    reassemble_blocks,
    reverse,
    skew_sum,
    stats,
)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


# -- construction and text form ---------------------------------------------


def test_parse_and_str_round_trip_digits():
    pi = Permutation.parse("2165743")
    assert pi.values == (2, 1, 6, 5, 7, 4, 3)
    assert str(pi) == "2165743"


def test_parse_and_str_round_trip_commas():
    text = "10,2,1,3,4,5,6,7,8,9"
    pi = Permutation.parse(text)
    assert len(pi) == 10
    assert str(pi) == text


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation.parse("")


@pytest.mark.parametrize("values", [(1.0, 2.0), (2.0, 1.0), (True,), (2, True)])
def test_values_that_are_not_ints_are_rejected(values):
    with pytest.raises(ValueError, match="bijection"):
        Permutation(values)


def test_of_and_indexing():
    pi = Permutation.of(3, 1, 2)
    assert pi[0] == 3
    assert list(pi) == [3, 1, 2]
    assert len(pi) == 3


# -- statistics -------------------------------------------------------------


def test_stats_on_reference_example():
    # 3142: ascents at 1<4, descents at 3>1 and 4>2
    prof = stats(Permutation.parse("3142"))
    assert (prof.asc, prof.des) == (1, 2)
    assert (prof.lmax, prof.rmax) == (2, 2)  # 3,4 from left; 4,2 from right
    assert (prof.lmin, prof.rmin) == (2, 2)  # 3,1 from left; 1,2 from right


def test_stats_identity_and_reversal():
    n = 6
    ident = Permutation(tuple(range(1, n + 1)))
    prof = stats(ident)
    assert (prof.asc, prof.des) == (n - 1, 0)
    assert (prof.lmax, prof.rmax) == (n, 1)
    assert (prof.lmin, prof.rmin) == (1, n)
    prof_rev = stats(reverse(ident))
    assert (prof_rev.asc, prof_rev.des) == (0, n - 1)
    assert (prof_rev.lmax, prof_rev.rmax) == (1, n)


def test_monomial_order_is_p_q_x_y_u_v():
    prof = stats(Permutation.parse("3142"))
    assert prof.monomial() == (1, 2, 2, 2, 2, 2)


def _naive_stats(vals):
    """The definitions, position by position: v is a left-to-right maximum
    iff it exceeds every value before it, and so on."""
    adjacent = list(zip(vals, vals[1:]))
    return (
        sum(a < b for a, b in adjacent),
        sum(a > b for a, b in adjacent),
        sum(all(v > w for w in vals[:i]) for i, v in enumerate(vals)),
        sum(all(v > w for w in vals[i + 1 :]) for i, v in enumerate(vals)),
        sum(all(v < w for w in vals[:i]) for i, v in enumerate(vals)),
        sum(all(v < w for w in vals[i + 1 :]) for i, v in enumerate(vals)),
    )


_permutation_1_to_40 = st.integers(1, 40).flatmap(
    lambda n: st.permutations(range(1, n + 1))
)


@settings(max_examples=300, deadline=None)
@given(_permutation_1_to_40)
def test_stats_kernel_matches_the_definitions(vals):
    want = _naive_stats(vals)
    for word in (tuple(vals), bytes(vals)):
        prof = _stats_of_sequence(word)
        assert type(prof) is StatProfile
        assert tuple(prof) == want, word


def test_stat_profile_fields_repr_and_monomial():
    prof = StatProfile(1, 2, 3, 4, 5, 6)
    assert StatProfile._fields == ("asc", "des", "lmax", "rmax", "lmin", "rmin")
    assert repr(prof) == "StatProfile(asc=1, des=2, lmax=3, rmax=4, lmin=5, rmin=6)"
    assert (prof.asc, prof.des, prof.lmax, prof.rmax, prof.lmin, prof.rmin) == (
        1, 2, 3, 4, 5, 6,
    )
    mono = prof.monomial()
    assert type(mono) is tuple and mono == (1, 2, 3, 4, 5, 6)
    assert StatProfile(asc=1, des=2, lmax=3, rmax=4, lmin=5, rmin=6) == prof


def test_stat_sum_invariants():
    # asc + des = n - 1; first element is counted by lmax and lmin, etc.
    for pi in all_perms(5):
        prof = stats(pi)
        assert prof.asc + prof.des == 4
        assert 1 <= prof.lmax <= 5 and 1 <= prof.rmin <= 5


# -- symmetries -------------------------------------------------------------


def test_symmetries_are_involutions():
    for pi in all_perms(5):
        assert reverse(reverse(pi)) == pi
        assert complement(complement(pi)) == pi
        assert inverse(inverse(pi)) == pi


@settings(max_examples=200, deadline=None)
@given(_permutation_1_to_40)
def test_images_equal_validated_permutations(vals):
    pi = Permutation(tuple(vals))
    n = len(vals)
    inv = [0] * n
    for i, v in enumerate(vals):
        inv[v - 1] = i + 1
    for image, values in (
        (reverse(pi), vals[::-1]),
        (complement(pi), [n + 1 - v for v in vals]),
        (inverse(pi), inv),
    ):
        assert image == Permutation(tuple(values))
        assert type(image.values) is tuple
        assert hash(image) == hash(Permutation(tuple(values)))
    assert reverse(reverse(pi)) == pi
    assert complement(complement(pi)) == pi
    identity = tuple(range(1, n + 1))
    assert tuple(pi[v - 1] for v in inverse(pi)) == identity
    assert tuple(inverse(pi)[v - 1] for v in pi) == identity


def test_reverse_complement_inverse_values():
    pi = Permutation.parse("3142")
    assert reverse(pi) == Permutation.parse("2413")
    assert complement(pi) == Permutation.parse("2413")
    assert inverse(pi) == Permutation.parse("2413")


# -- pattern containment and separability -----------------------------------


def test_contains_pattern_basics():
    assert contains_pattern(Permutation.parse("35142"), Permutation.parse("2413"))
    assert not contains_pattern(Permutation.parse("1234"), Permutation.parse("21"))


def test_separable_forbidden_patterns():
    assert not is_separable(Permutation.parse("2413"))
    assert not is_separable(Permutation.parse("3142"))
    assert is_separable(Permutation.parse("2165743"))


def _avoids_both_patterns(pi):
    """The oracle: generic pattern search for 2413 and for 3142."""
    return not any(contains_pattern(pi, Permutation(pat)) for pat in FORBIDDEN_PATTERNS)


def test_is_separable_matches_the_pattern_oracle_for_n_up_to_7():
    for n in range(1, 8):
        for pi in all_perms(n):
            assert is_separable(pi) == _avoids_both_patterns(pi), pi


def _scan_with_mask_lists(vals):
    """The two-pattern scan with its prefix and suffix masks built as lists
    up front: the reference for the running-mask scan."""
    n = len(vals)
    before = [0] * n
    after = [0] * n
    seen = 0
    for i in range(n):
        before[i] = seen
        seen |= 1 << vals[i]
    seen = 0
    for i in range(n - 1, -1, -1):
        after[i] = seen
        seen |= 1 << vals[i]
    for j in range(1, n - 2):
        left = before[j]
        a = vals[j]
        top = 1 << a
        above = 2 << a
        for k in range(j + 1, n - 1):
            b = vals[k]
            if a > b:
                twos = left & (top - (2 << b))
                if twos and after[k] & (top - ((twos & -twos) << 1)):
                    return True
            else:
                threes = left & ((1 << b) - above)
                if threes and after[k] & ((1 << (threes.bit_length() - 1)) - above):
                    return True
    return False


def test_the_running_mask_scan_equals_the_mask_list_scan_on_all_of_s8():
    separable = 0
    for n in range(1, 9):
        for vals in itertools.permutations(range(1, n + 1)):
            found = _has_2413_or_3142(vals)
            assert found == _scan_with_mask_lists(vals), vals
            separable += n == 8 and not found
    assert separable == 8558


@st.composite
def _near_separable(draw):
    """A permutation of length 8..14: a random sum/skew tree, then
    possibly one transposition, so both answers come up often."""
    n = draw(st.integers(8, 14))

    def build(size):
        if size == 1:
            return Permutation((1,))
        left = draw(st.integers(1, size - 1))
        op = draw(st.sampled_from([direct_sum, skew_sum]))
        return op(build(left), build(size - left))

    vals = list(build(n).values)
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        vals[i], vals[j] = vals[j], vals[i]
    return Permutation(tuple(vals))


_any_permutation = st.integers(8, 14).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(Permutation)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_near_separable(), _any_permutation))
def test_is_separable_matches_the_pattern_oracle_on_longer_permutations(pi):
    assert is_separable(pi) == _avoids_both_patterns(pi)


def test_separability_closed_under_sums():
    a = Permutation.parse("21")
    b = Permutation.parse("132")
    assert is_separable(direct_sum(a, b))
    assert is_separable(skew_sum(a, b))
    assert direct_sum(a, b) == Permutation.parse("21354")
    assert skew_sum(a, b) == Permutation.parse("54132")


def test_components_and_irreducibility():
    # 213546 is the direct sum 21 + 1 + 21 + 1 of irreducible components
    pi = Permutation.parse("213546")
    comps = components(pi)
    assert [str(c) for c in comps] == ["21", "1", "21", "1"]
    assert not is_irreducible(pi)
    assert is_irreducible(Permutation.parse("1"))
    assert all(is_irreducible(c) for c in comps)
    rebuilt = comps[0]
    for c in comps[1:]:
        rebuilt = direct_sum(rebuilt, c)
    assert rebuilt == pi


def test_block_decomposition_round_trip():
    pi = Permutation.parse("2165743")
    l_blocks, r_blocks = block_decompose(pi)
    assert l_blocks == ((2, 1), (6, 5))
    assert r_blocks == ((), (4, 3))
    assert reassemble_blocks(l_blocks, r_blocks, len(pi)) == pi


def test_block_decomposition_round_trips_every_separable_6():
    from sepstats.enumeration import enumerate_structural

    for pi in enumerate_structural(6):
        l_blocks, r_blocks = block_decompose(pi)
        assert reassemble_blocks(l_blocks, r_blocks, 6) == pi
        # blocks must tile positions: total size is n - 1
        total = sum(len(b) for b in l_blocks) + sum(len(b) for b in r_blocks)
        assert total == 5


def test_block_decomposition_rejects_nonseparable():
    with pytest.raises(ValueError):
        block_decompose(Permutation.parse("2413"))
