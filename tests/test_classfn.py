"""The shared class-function kernel against per-class Fraction sums.

Each reference below is the textbook formula evaluated one class at a time,
sum of a * b / z_c over the classes c, in exact rationals; the kernel's
single weighted integer dot product must agree with it exactly.
"""

import copy
from fractions import Fraction

import pytest

from blockiso.abacus import partitions_with_core
from blockiso.classfn import ClassFunction
from blockiso.isometry import block_basis
from blockiso.partitions import enumerate_partitions
from blockiso.perfect import I_mu, R_mu, build_mu
from blockiso.symchar import (
    SnClassFunction,
    centralizer_order_sn,
    irr_class_function,
    sn_space,
)
from blockiso.wreath import (
    WreathClassFunction,
    centralizer_order_wreath,
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    wreath_space,
    zeta_irr,
)
from row_reference import (
    block_projection,
    dense_I_mu,
    dense_R_mu,
    tilde_pi_rho,
    wreath_block_projection,
)


def sn_reference(a, b, n):
    return sum(
        (
            Fraction(x * y, centralizer_order_sn(tau))
            for tau, x, y in zip(enumerate_partitions(n), a, b)
        ),
        Fraction(0),
    )


def wreath_reference(a, b, p, w):
    return sum(
        (
            Fraction(x * y, centralizer_order_wreath(lbl, p))
            for lbl, x, y in zip(enumerate_wreath_classes(p, w), a, b)
        ),
        Fraction(0),
    )


def test_sn_orthonormality_matches_reference():
    for n in range(0, 9):
        parts = enumerate_partitions(n)
        for lam in parts:
            for mu in parts:
                a, b = irr_class_function(lam), irr_class_function(mu)
                got = a.space.inner(a.values, b.values)
                assert got == sn_reference(a.values, b.values, n) == (lam == mu), (lam, mu)


def test_wreath_orthonormality_matches_reference():
    for p in (2, 3):
        for w in range(0, 3):
            irr = enumerate_irr_wreath(p, w)
            for phi in irr:
                for psi in irr:
                    a, b = zeta_irr(p, w, phi), zeta_irr(p, w, psi)
                    got = a.space.inner(a.values, b.values)
                    assert got == wreath_reference(a.values, b.values, p, w) == (phi == psi)


def test_transfers_on_fraction_inputs_match_reference():
    p, w, rho = 3, 2, (1,)
    n = p * w + sum(rho)
    mu_rows, basis = build_mu(p, w, rho), block_basis(p, w, rho)[1:]
    classes = enumerate_partitions(n)
    labels = enumerate_wreath_classes(p, w)
    fractional = 0
    for i in range(len(classes)):
        indicator = SnClassFunction(n, (int(k == i) for k in range(len(classes))))
        xi = block_projection(indicator, p, rho)
        fractional += any(v.denominator != 1 for v in xi.values)
        want = tuple(
            sn_reference(xi.values, [row[j] for row in mu_rows], n) for j in range(len(labels))
        )
        assert R_mu(basis, xi, p, w).values == want
    assert fractional
    for j in range(len(labels)):
        indicator = WreathClassFunction(p, w, (int(k == j) for k in range(len(labels))))
        theta = wreath_block_projection(indicator)
        want = tuple(wreath_reference(theta.values, row, p, w) for row in mu_rows)
        assert I_mu(basis, theta, n).values == want


@pytest.mark.parametrize("p, w, rho", [(5, 2, ()), (5, 2, (1,))])
def test_factored_transfers_match_the_dense_bicharacter(p, w, rho):
    # At p = 5 both groups have irreducibles outside the block, and every
    # input keeps a component there, which the transfers must kill.
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import assume, given, settings

    n = p * w + sum(rho)
    mu_rows, basis = build_mu(p, w, rho), block_basis(p, w, rho)[1:]
    entries = st.integers(-50, 50) | st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    sn_values = st.tuples(*[entries] * len(sn_space(n).labels))
    wr_values = st.tuples(*[entries] * len(wreath_space(p, w).labels))

    @settings(max_examples=30, deadline=None, database=None)
    @given(sn_values, wr_values)
    def check(a, b):
        xi, theta = SnClassFunction(n, a), WreathClassFunction(p, w, b)
        assume(block_projection(xi, p, rho) != xi and wreath_block_projection(theta) != theta)
        assert R_mu(basis, xi, p, w).values == dense_R_mu(mu_rows, xi, p, w).values
        assert I_mu(basis, theta, n).values == dense_I_mu(mu_rows, theta, n).values

    check()
    # R_mu of class c's raw indicator is (|c|/|G|) * mu(c, .), a row of the
    # bicharacter, and I_mu of label l's is (|l|/|H|) * mu(., l), a column;
    # verify type reads its images there.
    classes, labels = enumerate_partitions(n), enumerate_wreath_classes(p, w)
    for i, tau in enumerate(classes):
        indicator = SnClassFunction(n, (int(k == i) for k in range(len(classes))))
        want = tuple(Fraction(m, centralizer_order_sn(tau)) for m in mu_rows[i])
        assert R_mu(basis, indicator, p, w).values == want, tau
    for j, lbl in enumerate(labels):
        indicator = WreathClassFunction(p, w, (int(k == j) for k in range(len(labels))))
        want = tuple(Fraction(row[j], centralizer_order_wreath(lbl, p)) for row in mu_rows)
        assert I_mu(basis, indicator, n).values == want, lbl


def test_block_projection_matches_reference():
    n, p, rho = 5, 2, (1,)
    xi = SnClassFunction(n, (Fraction(k + 1, 3) for k in range(len(enumerate_partitions(n)))))
    want = [Fraction(0)] * len(xi.values)
    for lam in partitions_with_core(n, rho, p):
        row = irr_class_function(lam).values
        c = sn_reference(xi.values, row, n)
        want = [x + c * y for x, y in zip(want, row)]
    got = block_projection(xi, p, rho)
    assert got.values == tuple(want)


def test_combine_matches_per_entry_sums():
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    space = sn_space(4)
    size = len(space.labels)
    entries = st.integers(-50, 50) | st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    terms = st.lists(st.tuples(entries | st.just(0), st.tuples(*[entries] * size)), max_size=6)

    @settings(max_examples=150, deadline=None, database=None)
    @given(terms)
    def check(terms):
        coeffs, rows = [c for c, _ in terms], [row for _, row in terms]
        want = [sum(c * row[k] for c, row in terms) for k in range(size)]
        assert space.combine(coeffs, rows) == want

    check()
    assert space.combine([], []) == [0] * size


def test_pushdown_by_empty_core_is_identity():
    for lam in enumerate_partitions(6):
        xi = irr_class_function(lam)
        assert tilde_pi_rho(xi, ()) is xi
    frac = SnClassFunction(3, (Fraction(1, 2), 0, Fraction(-7, 3)))
    assert tilde_pi_rho(frac, ()).values == (Fraction(1, 2), 0, Fraction(-7, 3))


def test_cached_rows_are_shared_immutable_tuples():
    assert irr_class_function((3, 2)) is irr_class_function((3, 2))
    phi = enumerate_irr_wreath(3, 2)[1]
    assert zeta_irr(3, 2, phi) is zeta_irr(3, 2, phi)
    for row in (irr_class_function((3, 2)), zeta_irr(3, 2, phi)):
        assert type(row.values) is tuple
        with pytest.raises(AttributeError):
            row.values = ()


def test_class_function_is_a_pair_equal_over_one_space_object():
    row = irr_class_function((2, 1))
    space, values = row
    assert row == (space, values) and hash(row) == hash((space, values))
    assert repr(row) == f"ClassFunction(space={space!r}, values={values!r})"
    assert ClassFunction(sn_space(3), values) == row
    assert ClassFunction(copy.copy(space), values) != row
    with pytest.raises(AttributeError):
        row.extra = 1
    with pytest.raises(AttributeError):
        del row.values
