"""The extended-gcd HNF route the library replaced, kept as a test oracle.

`hnf` clears each column below the pivot with 2x2 unimodular steps from
`_xgcd` while it carries the full unimodular U in lockstep, so U * M = H,
with H keeping the full row count (zero rows at the bottom).  The kernel
is the HNF of the rows of U against the zero rows of H, a second HNF, and
saturation is double annihilation through that kernel.  Containment
reduces each vector against an HNF basis, pivot by pivot.  The library
answers containment and saturation by comparing HNF bases; these must
agree with it.

`echelon_with_kernel` is the echelon of [M | I] the library ran before it
stopped computing kernels: the rows nonzero on M give the HNF basis of
M's row lattice, and the others, read on I, the HNF basis of M's integer
kernel.  `block_projective_lattice` takes that kernel of the block's
values on the p-singular classes.

`perfproj_report` is the `verify perfproj` route the library replaced: it
pushes that kernel forward through the signed bijection into wreath
coordinates and compares HNF bases there, where the library pulls the
projective tuples back into block coordinates and certifies that they
span the kernel without computing it.  It reads `perfect.isometry_row`,
`modular.principal_gibr` and `modular.zeta_projective` at call
time, so a test that patches any of them patches both routes.
"""

from operator import index

from blockiso import modular, perfect
from blockiso.abacus import partitions_with_core
from blockiso.partitions import enumerate_partitions, format_multipartition, format_partition
from blockiso.reporting import Report
from blockiso.symchar import character_value
from blockiso.wreath import enumerate_irr_wreath, lambda_psi, zeta_irr
from label_reference import principal_block_filter


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


def hnf(rows):
    """Hermite normal form H of the row span, with unimodular U, U*M = H."""
    m = [list(map(int, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
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


def hnf_basis(rows):
    """Nonzero rows of the HNF: the canonical basis of the row lattice."""
    h, _ = hnf(rows)
    return [r for r in h if any(r)]


def kernel_lattice(rows):
    """Basis of {x integral : x * M = 0}, the HNF of U's rows over H's zero rows."""
    h, u = hnf(rows)
    return hnf_basis([u[i] for i in range(len(h)) if not any(h[i])]) if rows else []


def is_saturated(rows):
    """Whether the row lattice equals the kernel of its kernel."""
    basis = hnf_basis(rows)
    if not basis:
        return True
    ncols = len(basis[0])
    ann = kernel_lattice([list(col) for col in zip(*basis)])
    sat = kernel_lattice([list(col) for col in zip(*ann)]) if ann else [
        [int(i == j) for j in range(ncols)] for i in range(ncols)
    ]
    return hnf_basis(basis) == hnf_basis(sat)


def echelon_with_kernel(rows):
    """HNF bases (H, K) of the row lattice of M and of {x : x * M = 0}.

    One echelon of [M | I], each column cleared by Euclid as in the
    library's `hnf_basis`, which runs the same steps on M alone.
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


def block_projective_lattice(p, w, rho):
    """Integer combinations of block irreducibles vanishing p-singularly,
    as coefficient rows over the block's canonical label list."""
    n = p * w + sum(rho)
    singular = [tau for tau in enumerate_partitions(n) if perfect.tp_p(tau, p) != ()]
    matrix = [[character_value(lam, tau) for tau in singular] for lam in partitions_with_core(n, rho, p)]
    return echelon_with_kernel(matrix)[1]


def reduces(basis, vec):
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


def lattice_le(rows_a, rows_b):
    """Whether every row of A reduces to zero against the HNF basis of B."""
    basis = hnf_basis(rows_b)
    return all(reduces(basis, r) for r in rows_a)


def perfproj_report(p, w, rho):
    """The `verify perfproj` records, from the kernel's image in wreath
    coordinates."""
    rep = Report("perfproj", {"p": p, "w": w})
    n = p * w + sum(rho)
    block = partitions_with_core(n, rho, p)
    irr_wr = enumerate_irr_wreath(p, w)
    idx = {phi: i for i, phi in enumerate(irr_wr)}
    principal_wr = set(principal_block_filter(irr_wr, p))
    targets = []
    for lam in block:
        sign, psi = perfect.isometry_row(lam, rho, p)
        targets.append((sign, idx[lambda_psi(psi, p)]))
    image_rows = []
    for coeff_row in block_projective_lattice(p, w, rho):
        vec = [0] * len(irr_wr)
        for c, (sign, k) in zip(coeff_row, targets):
            if c:
                vec[k] += c * sign
        image_rows.append(vec)

    proj_rows = []
    principal = modular.principal_gibr(p, w)
    irr_rows = [zeta_irr(p, w, phi).values for phi in irr_wr]
    for psi in principal:
        hat = modular.zeta_projective(p, w, psi)
        coeffs = hat.space.pairings(hat.values, irr_rows)
        if any(c.denominator != 1 for c in coeffs):
            raise AssertionError("projective tuple has fractional coefficients")
        vec = [int(c) for c in coeffs]
        ok_support = all(phi in principal_wr for phi, c in zip(irr_wr, vec) if c)
        rep.add({"psi": format_multipartition(psi), "support": "principal"}, ok_support)
        proj_rows.append(vec)

    image, projective = hnf_basis(image_rows), hnf_basis(proj_rows)
    rep.add(
        {"core": format_partition(rho), "rank_image": len(image), "rank_projective": len(projective)},
        image == projective,
    )
    return rep
