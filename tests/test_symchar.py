"""Character values, tables, and block bookkeeping for symmetric groups."""

from fractions import Fraction
from math import factorial

import pytest
import strip_reference
from deal_reference import reference_induced_mn
from row_reference import block_projection, d_alpha, decompose, skew_class_function, tilde_pi_rho
from strip_reference import mask_of, shape_of

from blockiso.abacus import partitions_with_core
from blockiso.partitions import (
    contains,
    enumerate_partitions,
)
from blockiso.symchar import (
    SnClassFunction,
    centralizer_order_sn,
    character_value,
    degree,
    height_by_tower,
    height_by_valuation,
    induced_row,
    irr_class_function,
    mn_value,
    skew_row,
    strips,
)


def table_rows(n):
    """The character table of S_n as the cached irreducible rows, in order."""
    return [list(irr_class_function(lam).values) for lam in enumerate_partitions(n)]


def test_table_s3_frozen():
    # rows and columns both follow the descending-lex partition order
    assert table_rows(3) == [
        [1, 1, 1],
        [-1, 0, 2],
        [1, -1, 1],
    ]


def test_table_s4_frozen():
    assert table_rows(4) == [
        [1, 1, 1, 1, 1],
        [-1, 0, -1, 1, 3],
        [0, -1, 2, 0, 2],
        [1, 0, -1, -1, 3],
        [-1, 1, 1, -1, 1],
    ]


def test_centralizer_orders_sum_to_group_order():
    for n in range(1, 9):
        assert sum(
            factorial(n) // centralizer_order_sn(tau)
            for tau in enumerate_partitions(n)
        ) == factorial(n)


def test_first_orthogonality():
    for n in range(1, 8):
        parts = enumerate_partitions(n)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                a, b = irr_class_function(lam), irr_class_function(mu)
                got = a.space.inner(a.values, b.values)
                assert got == (1 if lam == mu else 0), (lam, mu)


def test_second_orthogonality():
    for n in range(1, 8):
        parts = enumerate_partitions(n)
        table = table_rows(n)
        for i, sig in enumerate(parts):
            for j, tau in enumerate(parts):
                total = sum(row[i] * row[j] for row in table)
                expect = centralizer_order_sn(tau) if i == j else 0
                assert total == expect, (sig, tau)


def test_degree_matches_identity_value():
    for n in range(0, 9):
        total = 0
        for lam in enumerate_partitions(n):
            d = degree(lam)
            assert d == character_value(lam, (1,) * n)
            assert d > 0
            total += d * d
        assert total == factorial(n)
    # Frobenius's product against the hook length product it replaced, on
    # every partition of n <= 30 and on the principal block at (19,3).
    for n in range(31):
        for lam in enumerate_partitions(n):
            assert degree(lam) == strip_reference.hook_degree(lam), lam
    for lam in partitions_with_core(57, (), 19):
        assert degree(lam) == strip_reference.hook_degree(lam), lam


def test_skew_decomposition_integral_nonnegative():
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            for e in range(1, n):
                for mu in enumerate_partitions(e):
                    if not contains(lam, mu):
                        continue
                    coeffs = decompose(skew_class_function(lam, mu))
                    for nu, c in coeffs.items():
                        assert c.denominator == 1 and c >= 0, (lam, mu, nu, c)


def test_skew_frozen():
    coeffs = decompose(skew_class_function((3, 1), (1,)))
    assert {k: int(v) for k, v in coeffs.items() if v} == {(3,): 1, (2, 1): 1}
    coeffs = decompose(skew_class_function((2, 2), (1,)))
    assert {k: int(v) for k, v in coeffs.items() if v} == {(2, 1): 1}


def test_skew_outside_shape_vanishes():
    xi = skew_class_function((2, 2), (3,))
    assert all(xi.value(tau) == 0 for tau in enumerate_partitions(xi.n))


def test_pushdown_equals_skew_on_irreducibles():
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            for rho in ((1,), (2,), (1, 1)):
                if sum(rho) > n:
                    continue
                down = tilde_pi_rho(irr_class_function(lam), rho)
                skew = skew_class_function(lam, rho)
                assert down.values == skew.values, (lam, rho)


def shape_strips(lam, k):
    """symchar.strips on the bead mask of lam, read back as partitions."""
    return tuple((shape_of(nu), sign) for nu, sign in strips(mask_of(lam), k))


def test_strips_frozen():
    assert shape_strips((3, 1), 2) == (((1, 1), 1),)
    assert shape_strips((2, 2), 2) == (((1, 1), -1), ((2,), 1))
    assert shape_strips((2, 2), 3) == (((1,), -1),)
    assert shape_strips((), 1) == ()


def test_mask_kernel_matches_tuple_recursion():
    # Skew and straight shapes up to n = 12 against the tuple recursion;
    # the inner shape mu need not lie inside lam.
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(0, 12))
        lam = data.draw(st.sampled_from(enumerate_partitions(n)))
        mu = data.draw(st.sampled_from(enumerate_partitions(data.draw(st.integers(0, n)))))
        if data.draw(st.booleans()):
            mu = ()
        tau = data.draw(st.sampled_from(enumerate_partitions(n - sum(mu))))
        tau = tuple(data.draw(st.permutations(tau)))
        want = strip_reference.mn(lam, mu, tuple(sorted(tau, reverse=True)))
        assert mn_value(lam, mu, tau) == want, (lam, mu, tau)
        # A short row of shuffled cycle types, read in one skew_row call.
        types = data.draw(st.lists(st.sampled_from(enumerate_partitions(n - sum(mu))), max_size=4))
        taus = [tuple(data.draw(st.permutations(t))) for t in types]
        assert skew_row(lam, mu, taus) == [strip_reference.mn(lam, mu, t) for t in types], (lam, mu, taus)
        k = data.draw(st.integers(1, n + 1))
        assert shape_strips(lam, k) == strip_reference.strips(lam, k), (lam, k)
        factors = [((1,), lam, mu)]
        if data.draw(st.booleans()):
            factors.append(((-2,), data.draw(st.sampled_from(enumerate_partitions(2))), ()))
        size = sum(sum(a) - sum(b) for _, a, b in factors)
        labels = [[(k, 0) for k in data.draw(st.sampled_from(enumerate_partitions(size)))]]
        assert induced_row(factors, labels) == [reference_induced_mn(factors, labels[0])]

    check()


def test_size_mismatch_raises_at_any_position():
    # skew_row checks every cycle type of its row, and mn_value is its one-tau case.
    good, bad = (2, 1), (2, 2)
    for at in range(3):
        taus = [good] * 3
        taus[at] = bad
        with pytest.raises(ValueError):
            skew_row((4, 1), (2,), taus)
    with pytest.raises(ValueError):
        mn_value((4, 1), (2,), bad)
    with pytest.raises(ValueError):
        mn_value((3,), (), (2,))


def test_induced_row_matches_deal_reference():
    # One call shares one memo over all its labels, so the labels come
    # shuffled, with repeats, and in pairs that end in the same cycles.
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    def draw_label(data, size, n_classes):
        cycles = data.draw(st.sampled_from(enumerate_partitions(size)))
        pairs = [(k, data.draw(st.integers(0, n_classes - 1))) for k in cycles]
        return data.draw(st.permutations(pairs))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def check(data):
        w = data.draw(st.integers(0, 4))
        n_classes = data.draw(st.integers(1, 3))
        labels = [draw_label(data, w, n_classes) for _ in range(data.draw(st.integers(1, 4)))]
        for label in list(labels):
            cut = data.draw(st.integers(0, len(label)))
            head = sum(k for k, _ in label[:cut])
            labels.append(draw_label(data, head, n_classes) + label[cut:])
        labels += data.draw(st.lists(st.sampled_from(labels), max_size=3))
        labels = data.draw(st.permutations(labels))
        cuts = sorted(data.draw(st.lists(st.integers(0, w), max_size=2)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [w])]
        factors = []
        for size in sizes:
            mu = data.draw(st.sampled_from(((), (1,))))
            lam = data.draw(st.sampled_from(enumerate_partitions(size + sum(mu))))
            row = data.draw(st.lists(st.integers(-3, 3), min_size=n_classes, max_size=n_classes))
            factors.append((tuple(row), lam, mu))
        got = induced_row(factors, labels)
        assert got == [reference_induced_mn(factors, label) for label in labels], labels

    check()
    with pytest.raises(ValueError):
        induced_row([((1,), (2,), ())], [[(2, 0)], [(1, 0)]])
    assert induced_row([((1,), (2,), (1, 1))], [[], []]) == [0, 0]
    assert induced_row([((1,), (2,), ())], []) == []


def test_d_alpha_spot_values():
    xi = d_alpha(irr_class_function((2, 1)), (1,), 3)
    assert xi.n == 0 and xi.values == (-1,)
    xi = d_alpha(irr_class_function((4,)), (1,), 2)
    assert xi.values == (1, 1)
    # sign character picks up the parity of the adjoined transposition
    xi = d_alpha(irr_class_function((1, 1, 1, 1)), (1,), 2)
    assert xi.values == (1, -1)
    with pytest.raises(ValueError):
        d_alpha(irr_class_function((2,)), (2,), 2)


def test_height_definitions_agree():
    for p in (2, 3):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert height_by_tower(lam, p) == height_by_valuation(lam, p), (
                    lam,
                    p,
                )


def test_heights_frozen_weight_two():
    heights = [height_by_tower(lam, 2) for lam in enumerate_partitions(4)]
    assert heights == [0, 0, 1, 0, 0]
    assert height_by_tower((2, 1, 1), 2) == 0


def test_irr_in_block_frozen():
    # Irr(B) lists the block's partitions in descending-lex order
    assert partitions_with_core(4, (), 2) == enumerate_partitions(4)
    assert partitions_with_core(4, (1,), 3) == ((4,), (2, 2), (1, 1, 1, 1))
    assert partitions_with_core(3, (), 3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_with_core(5, (1, 1), 3) == ((4, 1), (3, 2), (1, 1, 1, 1, 1))
    assert partitions_with_core(5, (2,), 3) == ((5,), (2, 2, 1), (2, 1, 1, 1))


def test_block_projection_splits_identity():
    # summing the projections over all cores recovers the original function
    from blockiso.abacus import p_core

    n, p = 4, 3
    xi = SnClassFunction(n, tuple(sum(t) for t in enumerate_partitions(n)))
    total = [Fraction(0)] * len(enumerate_partitions(n))
    seen = set()
    for lam in enumerate_partitions(n):
        rho = p_core(lam, p)
        if rho in seen:
            continue
        seen.add(rho)
        proj = block_projection(xi, p, rho)
        total = [a + b for a, b in zip(total, proj.values)]
    assert tuple(total) == xi.values


def test_character_values_are_integers():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            for tau in enumerate_partitions(n):
                assert isinstance(character_value(lam, tau), int)
