"""Integer row lattices: Hermite normal form, membership, equality, kernels.

Everything here is exact integer arithmetic on lists of Python ints.  The
HNF convention is row-style: pivots are positive, sit at the first nonzero
column of their row, move strictly right going down, and entries above a
pivot are reduced into [0, pivot).  Zero rows are dropped, which makes the
form unique per lattice and lets equality be a plain comparison.
"""

Matrix = list[list[int]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with g = a*x + b*y, g >= 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def hnf(rows: Matrix) -> tuple[Matrix, Matrix]:
    """Hermite normal form H of the row span, with unimodular U, U*M = H.

    H keeps the full row count (zero rows at the bottom) so that U stays
    square; use the nonzero rows of H as the canonical basis.
    """
    m = [list(map(int, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(r) != ncols for r in m):
        raise ValueError("ragged matrix")
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        # clear column below pivot_row with gcd row ops
        for r in range(pivot_row + 1, nrows):
            if m[r][col] == 0:
                continue
            a, b = m[pivot_row][col], m[r][col]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            m[pivot_row], m[r] = (
                [x * p + y * q for p, q in zip(m[pivot_row], m[r])],
                [-bg * p + ag * q for p, q in zip(m[pivot_row], m[r])],
            )
            u[pivot_row], u[r] = (
                [x * p + y * q for p, q in zip(u[pivot_row], u[r])],
                [-bg * p + ag * q for p, q in zip(u[pivot_row], u[r])],
            )
        if m[pivot_row][col] == 0:
            continue
        if m[pivot_row][col] < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        piv = m[pivot_row][col]
        for r in range(pivot_row):
            q = m[r][col] // piv
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[pivot_row])]
                u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
        pivot_row += 1
    return m, u


def hnf_basis(rows: Matrix) -> Matrix:
    """Nonzero rows of the HNF: the canonical basis of the row lattice."""
    h, _ = hnf(rows)
    return [r for r in h if any(r)]


def _reduces(basis: Matrix, vec: list[int]) -> bool:
    """Whether vec reduces to zero against an HNF basis."""
    v = list(map(int, vec))
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


def kernel_lattice(rows: Matrix) -> Matrix:
    """Basis of {x integral : x * M = 0}; always a saturated lattice."""
    h, u = hnf(rows)
    return hnf_basis([u[i] for i in range(len(h)) if not any(h[i])]) if rows else []


def is_saturated(rows: Matrix) -> bool:
    """Whether the row lattice equals its rational closure in Z^n.

    Checked by double annihilation: the kernel of the kernel is the
    saturation of the row span.
    """
    basis = hnf_basis(rows)
    if not basis:
        return True
    ncols = len(basis[0])
    ann = kernel_lattice(_transpose(basis))
    sat = kernel_lattice(_transpose(ann)) if ann else [
        [int(i == j) for j in range(ncols)] for i in range(ncols)
    ]
    return lattice_equal(basis, sat)


def _transpose(rows: Matrix) -> Matrix:
    return [list(col) for col in zip(*rows)] if rows else []
