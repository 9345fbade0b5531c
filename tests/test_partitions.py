"""Partition arithmetic against independent counting and valuation oracles."""

import itertools

import label_reference
import pytest

from blockiso.partitions import (
    conjugate,
    contains,
    enumerate_partitions,
    format_partition,
    is_prime,
    multipartitions,
    p_adic_digits,
    parse_partition,
    scale,
    sqcup,
    v_p,
)
from blockiso.wreath import labels_in_U_s


def pentagonal_count(n: int, memo={0: 1}) -> int:
    """Partition counts from the classical pentagonal recurrence."""
    if n < 0:
        return 0
    if n in memo:
        return memo[n]
    total = 0
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = -1 if k % 2 == 0 else 1
        total += sign * pentagonal_count(n - k * (3 * k - 1) // 2)
        total += sign * pentagonal_count(n - k * (3 * k + 1) // 2)
        k += 1
    memo[n] = total
    return total


def test_counts_match_pentagonal_recurrence():
    for n in range(0, 31):
        assert len(enumerate_partitions(n)) == pentagonal_count(n)


def test_enumeration_is_descending_lex():
    for n in range(0, 12):
        parts = enumerate_partitions(n)
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        assert all(sum(lam) == n for lam in parts)
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert enumerate_partitions(0) == ((),)


def test_wire_format_round_trip():
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            assert parse_partition(format_partition(lam)) == lam
    assert parse_partition("") == ()
    assert format_partition(()) == ""
    assert parse_partition("4,2,1") == (4, 2, 1)
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")


def test_conjugate_involution_and_frozen_values():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for n in range(0, 10):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n
            assert len(conjugate(lam)) == (lam[0] if lam else 0)


def test_sqcup_scale_contains():
    assert sqcup((3, 1), (2, 2)) == (3, 2, 2, 1)
    assert sqcup((), (5,)) == (5,)
    assert scale(3, (2, 1)) == (6, 3)
    assert scale(2, ()) == ()
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))
    assert contains((3, 2), ())


def test_multipartitions_match_product_filter():
    for w in range(5):
        pool = [mu for m in range(w + 1) for mu in enumerate_partitions(m)]
        for k in range(5):
            got = multipartitions(k, w)
            want = {t for t in itertools.product(pool, repeat=k) if sum(map(sum, t)) == w}
            assert set(got) == want
            assert all(a > b for a, b in zip(got, got[1:]))
    assert multipartitions(0, 0) == ((),)
    assert multipartitions(0, 3) == ()
    for k, w in [(k, w) for k in range(9) for w in range(7)] + [(60, 2)]:
        assert multipartitions(k, w) == label_reference.multipartitions(k, w), (k, w)
    # Each tuple is built once, so a whole list at p = 19 or past it is cheap.
    assert len(multipartitions(200, 2)) == 20300
    # The generator recurses once per nonempty component, not once per
    # component, so it reaches the 490 classes of S_19 that a recursion per
    # component could not: the labels in U_2 of
    # S_19 wr S_3 are the partitions of 3, and the partitions of 2 with one
    # more pair over any other class.
    assert len(multipartitions(489, 1)) == 489
    assert len(labels_in_U_s(19, 3, 2)) == 3 + 2 * 489


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13}
    for m in range(0, 15):
        assert is_prime(m) == (m in primes)


def test_v_p_and_digits():
    assert v_p(12, 2) == 2
    assert v_p(12, 3) == 1
    assert v_p(-8, 2) == 3
    with pytest.raises(ValueError):
        v_p(0, 2)
    assert p_adic_digits(11, 2) == [1, 1, 0, 1]
    assert p_adic_digits(0, 5) == []
    for n in range(1, 200):
        for p in (2, 3, 5):
            digits = p_adic_digits(n, p)
            assert sum(d * p**i for i, d in enumerate(digits)) == n
            assert v_p(n, p) == next(i for i, d in enumerate(digits + [1]) if d)
