"""Integer row lattices: Hermite normal form, membership, equality, kernels.

Everything here is exact integer arithmetic on lists of Python ints; an
entry that is not an integer (a float, a Fraction) raises TypeError.  The
HNF convention is row-style: pivots are positive, sit at the first nonzero
column of their row, move strictly right going down, and entries above a
pivot are reduced into [0, pivot).  Zero rows are dropped, which makes the
form unique per lattice and lets equality be a plain comparison.
"""

from operator import index

Matrix = list[list[int]]


def hnf(rows: Matrix) -> tuple[Matrix, Matrix]:
    """HNF bases (H, K) of the row lattice of M and of {x : x * M = 0}.

    One echelon of [M | I].  Each column is cleared by Euclid: the rows
    below are reduced by the one of least absolute entry until one is left,
    and the entries above its pivot are then reduced.  The rows nonzero on
    M give H; the others, read on I, give K.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    m = [[*map(index, r), *(int(i == j) for j in range(nrows))] for i, r in enumerate(rows)]
    top = 0
    for col in range(ncols + nrows):
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
    rank = sum(any(r[:ncols]) for r in m)
    return [r[:ncols] for r in m[:rank]], [r[ncols:] for r in m[rank:]]


def hnf_basis(rows: Matrix) -> Matrix:
    """The canonical basis of the row lattice."""
    return hnf(rows)[0]


def kernel_lattice(rows: Matrix) -> Matrix:
    """Basis of {x integral : x * M = 0}; always a saturated lattice."""
    return hnf(rows)[1]


def _reduces(basis: Matrix, vec: list[int]) -> bool:
    """Whether vec reduces to zero against an HNF basis."""
    v = list(map(index, vec))
    if basis and len(basis[0]) != len(v):
        raise ValueError("dimension mismatch")
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        if v[col] % row[col]:
            return False
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def lattice_contains(rows: Matrix, vec: list[int]) -> bool:
    """Whether vec lies in the integer row span of rows."""
    return _reduces(hnf_basis(rows), vec)


def lattice_le(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Whether every generator of A lies in the lattice of B."""
    basis = hnf_basis(rows_b)
    return all(_reduces(basis, r) for r in rows_a)


def lattice_equal(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Equality of row lattices via canonical HNF bases."""
    return hnf_basis(rows_a) == hnf_basis(rows_b)


def is_saturated(rows: Matrix) -> bool:
    """Whether the row lattice equals its rational closure in Z^n.

    Checked by double annihilation: the kernel of the kernel is the
    saturation of the row span.
    """
    basis = hnf_basis(rows)
    if not basis:
        return True
    ncols = len(basis[0])
    ann = kernel_lattice(_columns(basis, ncols))
    return lattice_equal(basis, kernel_lattice(_columns(ann, ncols)))


def _columns(rows: Matrix, ncols: int) -> Matrix:
    """The transpose of rows, which have ncols entries each (ncols rows out
    even when rows is empty)."""
    return [[r[j] for r in rows] for j in range(ncols)]
