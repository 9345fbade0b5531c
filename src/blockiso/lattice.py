"""Integer row lattices: Hermite normal form, containment, saturation.

Everything here is exact integer arithmetic on lists of Python ints; an
entry that is not an integer (a float, a Fraction) raises TypeError.  The
HNF convention is row-style: pivots are positive, sit at the first nonzero
column of their row, move strictly right going down, and entries above a
pivot are reduced into [0, pivot).  Zero rows are dropped, which makes the
form unique per lattice, so every question about lattices here is a
plain comparison of canonical bases.
"""

from operator import index

Matrix = list[list[int]]


def hnf_basis(rows: Matrix) -> Matrix:
    """The canonical basis of the row lattice.

    One echelon of the rows.  Each column is cleared by Euclid: the rows
    below are reduced by the one of least absolute entry until one is left,
    and the entries above its pivot are then reduced.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    m = [list(map(index, r)) for r in rows]
    top = 0
    for col in range(ncols):
        while live := [r for r in range(top, nrows) if m[r][col]]:
            least = min(live, key=lambda r: abs(m[r][col]))
            m[top], m[least] = m[least], m[top]
            if len(live) == 1:
                break
            piv = m[top]
            for r in range(top + 1, nrows):
                if q := m[r][col] // piv[col]:
                    m[r] = [a - q * b for a, b in zip(m[r], piv)]
        if not live:
            continue
        if m[top][col] < 0:
            m[top] = [-x for x in m[top]]
        piv = m[top]
        for r in range(top):
            if q := m[r][col] // piv[col]:
                m[r] = [a - q * b for a, b in zip(m[r], piv)]
        top += 1
    return m[:top]


def lattice_le(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Whether the lattice of A lies in the lattice of B: adding A's rows
    to B's canonical basis leaves the basis as it is."""
    basis = hnf_basis(rows_b)
    return hnf_basis([*basis, *rows_a]) == basis


def is_saturated(rows: Matrix) -> bool:
    """Whether the row lattice equals its rational closure in Z^n.

    The r rows of the HNF basis H are independent, so the lattice is
    saturated exactly when H's elementary divisors are all 1, that is, when
    H's columns span Z^r and their HNF is the r x r identity.
    """
    basis = hnf_basis(rows)
    rank = len(basis)
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return hnf_basis([list(col) for col in zip(*basis)]) == identity
