"""Integer lattice routines against brute-force membership and hand examples."""

import itertools
import random
from fractions import Fraction

import pytest

from blockiso.lattice import hnf_basis, is_saturated
import lattice_reference as ref
from span_reference import lattice_le


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_hand_reduced_example():
    # row-reduce [[2,4],[1,3]] by hand: swap, clear, normalise residues
    assert hnf_basis([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]


def test_hnf_shape_and_transform():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(rng.randint(1, 5))]
        h, k = ref.echelon_with_kernel(rows)
        # K is a kernel basis, the two bases share out the input rows, and
        # the library's echelon of M alone gives the same H
        assert all(not any(r) for r in matmul(k, rows))
        assert len(h) + len(k) == len(rows)
        assert hnf_basis(rows) == h
        pivots = []
        for r in h:
            nz = [j for j, x in enumerate(r) if x]
            if nz:
                j = nz[0]
                assert r[j] > 0
                pivots.append(j)
        assert pivots == sorted(pivots)
        # canonical residues above each pivot
        basis = [r for r in h if any(r)]
        for i, r in enumerate(basis):
            j = next(k for k, x in enumerate(r) if x)
            for above in basis[:i]:
                assert 0 <= above[j] < r[j]


def test_hnf_matches_the_extended_gcd_oracle():
    """The library's basis, and the kernel read off the echelon of [M | I],
    equal the old route's: an extended-gcd HNF that carries a unimodular U
    (checked here, U * M = H) and takes the kernel by a second HNF of U's
    rows.  The rows mix rank-deficient spans, scaled rows (so the
    span need not be saturated), zero rows and columns, and no rows at all.
    Containment agrees with reducing each vector against the old HNF basis,
    for lattices A of members, of arbitrary vectors and of no rows."""
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.data())
    def check(data):
        ncols = data.draw(st.integers(0, 5))
        entries = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
        gens = data.draw(st.lists(entries, min_size=1, max_size=3))
        rows = []
        for _ in range(data.draw(st.integers(0, 6))):
            coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
            scale = data.draw(st.sampled_from((1, 2, 3, -1, 0)))
            rows.append([scale * sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)])
        if data.draw(st.booleans()):
            rows, ncols = [r + [0] for r in rows], ncols + 1
        member = st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)).map(
            lambda cs: [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(ncols)]
        )
        anything = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
        a = data.draw(st.lists(st.one_of(member, anything), max_size=3))
        h, u = ref.hnf(rows)
        assert matmul(u, rows) == h
        assert len(u) == len(rows) and all(len(r) == len(rows) for r in u)
        assert hnf_basis(rows) == ref.hnf_basis(rows), rows
        assert ref.echelon_with_kernel(rows)[1] == ref.kernel_lattice(rows), rows
        assert is_saturated(rows) == ref.is_saturated(rows), rows
        assert lattice_le(a, rows) == ref.lattice_le(a, rows), (a, rows)

    check()


def test_non_integer_entries_raise():
    # int() would truncate these to a lattice they do not describe
    for call in (
        lambda: lattice_le([[Fraction(5, 2), 0]], [[2, 0], [0, 2]]),
        lambda: lattice_le([[2.9, 0]], [[2, 0], [0, 2]]),
        lambda: hnf_basis([[Fraction(1, 2), 1]]),
        lambda: is_saturated([[1.0, 0]]),
    ):
        with pytest.raises(TypeError):
            call()


def test_hnf_is_generating_set_invariant():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        mixed = [row[:] for row in rows]
        mixed.append([a + 2 * b for a, b in zip(rows[0], rows[1])])
        rng.shuffle(mixed)
        assert hnf_basis(rows) == hnf_basis(mixed)
        assert lattice_le(rows, mixed) and lattice_le(mixed, rows)


def brute_member(rows, vec, bound=4):
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
        cand = [
            sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(vec))
        ]
        if cand == list(vec):
            return True
    return False


def solve_triangular(basis, vec):
    """Integer coefficients over an HNF basis, or None."""
    from fractions import Fraction

    coeffs = []
    rem = [Fraction(x) for x in vec]
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        c = rem[j] / row[j]
        coeffs.append(c)
        rem = [r - c * x for r, x in zip(rem, row)]
    if any(rem) or any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


def test_membership_against_brute_force():
    rng = random.Random(23)
    for _ in range(15):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        basis = hnf_basis(rows)
        for _ in range(8):
            vec = [rng.randint(-6, 6) for _ in range(3)]
            got = lattice_le([vec], basis)
            assert brute_member(rows, vec) <= got  # brute members are members
            sol = solve_triangular(basis, vec)
            assert got == (sol is not None)
            if sol is not None:
                for j in range(3):
                    assert sum(c * row[j] for c, row in zip(sol, basis)) == vec[j]


def test_membership_frozen():
    basis = hnf_basis([[1, 1], [0, 2]])
    assert lattice_le([[3, 5]], basis)
    assert not lattice_le([[1, 0]], basis)
    assert lattice_le([[0, 0]], basis)
    assert not lattice_le([[0, 1]], basis)


def test_lattice_le_and_equal():
    a = [[2, 0], [0, 2]]
    b = [[1, 0], [0, 1]]
    assert lattice_le(a, b)
    assert not lattice_le(b, a)
    assert hnf_basis(a) != hnf_basis(b)
    assert hnf_basis(a) == hnf_basis([[2, 2], [0, 2], [2, 0]])


def test_kernel_lattice():
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    ker = ref.echelon_with_kernel(rows)[1]
    # third row is the sum of the first two
    assert len(ker) == 1
    dep = ker[0]
    for j in range(3):
        assert sum(dep[i] * rows[i][j] for i in range(3)) == 0
    assert is_saturated(ker)
    assert ref.echelon_with_kernel([[1, 0], [0, 1]])[1] == []


def test_kernel_is_saturated_even_with_multiplicity():
    rows = [[2, 4], [1, 2], [3, 6]]
    ker = ref.echelon_with_kernel(rows)[1]
    assert len(ker) == 2
    for dep in ker:
        for j in range(2):
            assert sum(dep[i] * rows[i][j] for i in range(3)) == 0
    assert is_saturated(ker)


def test_saturation():
    assert is_saturated([[1, 1]])
    assert not is_saturated([[0, 2]])
    assert not is_saturated([[2, 0], [0, 1]])
    assert is_saturated([[1, 0], [0, 1]])
    assert is_saturated([])


def _sympy_columns(rows, dim):
    """rows (a list of integer vectors of length dim) as sympy columns."""
    from sympy import Matrix

    return Matrix.hstack(*[Matrix(r) for r in rows]) if rows else Matrix.zeros(dim, 0)


def _in_column_lattice(basis, vec) -> bool:
    """Whether vec is an integer combination of the independent columns of basis."""
    if basis.cols == 0:
        return not any(vec)
    try:
        coeffs, free = basis.gauss_jordan_solve(vec)
    except ValueError:  # no rational solution
        return False
    assert free.rows == 0, "basis columns must be independent"
    return all(c.is_integer for c in coeffs)


def test_hnf_lattice_matches_sympy_oracle():
    """hnf_basis spans the same lattice as sympy's Hermite normal form.

    sympy's form is column-style, so the forms are not compared entry by
    entry: each basis must lie in the other's lattice.  Saturation is
    checked against sympy's Smith form: the row lattice is saturated exactly
    when every nonzero invariant is a unit."""
    pytest.importorskip("sympy")
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

    rng = random.Random(31)
    cases = [
        [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rng.randint(1, 5))]
        for ncols in (rng.randint(1, 5) for _ in range(60))
    ]
    cases += [ref.block_projective_lattice(2, 2, ()), ref.block_projective_lattice(3, 2, ())]
    for rows in cases:
        dim = len(rows[0])
        ours = _sympy_columns(hnf_basis(rows), dim)
        theirs = hermite_normal_form(Matrix(rows).T)
        assert ours.cols == theirs.cols == Matrix(rows).rank(), rows
        assert all(_in_column_lattice(theirs, ours[:, j]) for j in range(ours.cols)), rows
        assert all(_in_column_lattice(ours, theirs[:, j]) for j in range(theirs.cols)), rows
        snf = smith_normal_form(Matrix(rows))
        invariants = [snf[i, i] for i in range(min(snf.shape)) if snf[i, i]]
        assert is_saturated(rows) == all(abs(d) == 1 for d in invariants), rows


def test_block_projective_lattice_is_the_saturated_kernel():
    """At 2/2 and 3/2 the lattice is the whole integer kernel of the block's
    values on p-singular classes: it has the kernel's rank, each row is in
    the kernel, and sympy's Smith form of its rows has only unit invariants.
    This is the kernel the perfproj oracle pushes forward, so sympy vouches
    for what the library's certificate is compared against."""
    pytest.importorskip("sympy")
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    from blockiso.abacus import partitions_with_core
    from blockiso.partitions import enumerate_partitions
    from blockiso.symchar import character_value

    for p, w in ((2, 2), (3, 2)):
        n = p * w
        singular = [tau for tau in enumerate_partitions(n) if any(part % p == 0 for part in tau)]
        block = partitions_with_core(n, (), p)
        values = Matrix([[character_value(lam, tau) for tau in singular] for lam in block])
        lattice = Matrix(ref.block_projective_lattice(p, w, ()))
        assert lattice.rows == values.rows - values.rank()
        assert lattice * values == Matrix.zeros(lattice.rows, values.cols)
        snf = smith_normal_form(lattice)
        assert [abs(snf[i, i]) for i in range(lattice.rows)] == [1] * lattice.rows
