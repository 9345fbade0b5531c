"""Transfer along the bicharacter attached to the signed bijection.

The bicharacter sums block characters against their wreath images, so its
two convolution transforms factor through those pairs.  They recover the
bijection on block class functions and kill the other blocks; the
bicharacter separates classes whose p-multiplied cycle data disagree; and
it carries the block's projective lattice onto the span of the principal
projective tuples.  All checks run classwise over exact rationals; the
valuation probe fails only where theory gives a verdict (w < p), since the
divisibility half genuinely fails once the weight reaches p.
"""

from operator import mul

from .abacus import partitions_with_core
from .classfn import ClassFunction
from .isometry import block_basis, isometry_inverse, isometry_row, pushdown_to_wreath
from .partitions import (
    Partition,
    enumerate_partitions,
    format_multipartition,
    format_partition,
    multipartitions,
    v_p,
)
from .reporting import Report
from .symchar import (
    SnClassFunction,
    centralizer_order_sn,
    irr_class_function,
    skew_row,
    sn_space,
)
from .wreath import (
    WreathClassFunction,
    centralizer_order_wreath,
    embed_to_sn,
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    format_class_label,
    lambda_psi,
    tp_wr,
    wreath_space,
    zeta_irr,
)


def tp_p(tau: Partition, p: int) -> Partition:
    """The p-divisible parts of tau, divided by p."""
    return tuple(x // p for x in tau if x % p == 0)


def label_p_regular(label, p: int) -> bool:
    """Whether the label's embedded cycle type has no p-divisible part."""
    return all(x % p for x in embed_to_sn(label))


def build_mu(p: int, w: int, rho: Partition, basis=None):
    """Matrix of the bicharacter over (big class, wreath label): row i sums
    the block's wreath images, each weighted by its character at class i.
    basis is the pair (chis, images) of block_basis, built here if not given."""
    chis, images = basis or block_basis(p, w, rho)[1:]
    return [wreath_space(p, w).combine(column, images) for column in zip(*chis)]


def R_mu(basis, xi: ClassFunction, p: int, w: int) -> ClassFunction:
    """Transfer a big-group class function to the wreath product: the block's
    images combined by xi's inner products with their characters."""
    chis, images = basis
    return WreathClassFunction(p, w, wreath_space(p, w).combine(xi.space.pairings(xi.values, chis), images))


def I_mu(basis, theta: ClassFunction, n: int) -> ClassFunction:
    """Transfer a wreath class function back to the big group: the block's
    characters combined by theta's inner products with their images."""
    chis, images = basis
    return SnClassFunction(n, sn_space(n).combine(theta.space.pairings(theta.values, images), chis))


def in_L_lambda(values, types, lam: Partition) -> bool:
    """Vanishing off the classes whose p-multiplied data (types, in class
    order) equals lam."""
    return all(v == 0 for t, v in zip(types, values) if t != lam)


def verify_transfer(p: int, w: int, rho: Partition) -> Report:
    """The transforms restrict to the bijection and its inverse, and kill
    class functions orthogonal to the blocks."""
    rep = Report("transfer", {"p": p, "w": w, "core": format_partition(rho)})
    n = p * w + sum(rho)
    block, chis, images = block_basis(p, w, rho)
    basis = chis, images
    # mu is built from the images, so R_mu giving them back checks the transform
    # alone; the pushdown lam/rho, free of the bijection, checks them on U_w (main).
    labels, _, pushed = pushdown_to_wreath(p, w, rho, w)
    at = [wreath_space(p, w).index[lbl] for lbl in labels]
    for lam, image, down in zip(block, images, pushed):
        got = R_mu(basis, irr_class_function(lam), p, w).values
        rep.add({"lambda": format_partition(lam), "map": "forward"}, got == image and [got[i] for i in at] == down)
    members = set(block)
    for lam in enumerate_partitions(n):
        if lam not in members:
            got = R_mu(basis, irr_class_function(lam), p, w)
            rep.add({"lambda": format_partition(lam), "map": "kill"}, got.is_zero())
    for psi in multipartitions(p, w):
        phi = lambda_psi(psi, p)
        got = I_mu(basis, zeta_irr(p, w, phi), n).values
        lam = isometry_inverse(psi, rho, p)
        want = irr_class_function(lam).scaled(isometry_row(lam, rho, p)[0]).values
        rep.add({"phi": format_multipartition(phi), "map": "inverse"}, got == want)
    return rep


def verify_sep(p: int, w: int, rho: Partition) -> Report:
    """The bicharacter vanishes whenever the p-multiplied data disagree."""
    rep = Report("sep", {"p": p, "w": w, "core": format_partition(rho)})
    n = p * w + sum(rho)
    mu_rows = build_mu(p, w, rho)
    labels = [(tp_wr(lbl, p), format_class_label(lbl)) for lbl in enumerate_wreath_classes(p, w)]
    for tau, row in zip(enumerate_partitions(n), mu_rows):
        typ, text = tp_p(tau, p), format_partition(tau)
        for (lbl_typ, lbl_text), m in zip(labels, row):
            if typ == lbl_typ:
                continue
            rep.add({"class": text, "label": lbl_text}, m == 0, None if m == 0 else {"mu": m})
    return rep


def verify_type(p: int, w: int, rho: Partition) -> Report:
    """Transfer preserves the stratification by p-multiplied data.

    R_mu of the indicator of class c is (|c|/|G|) * mu(c, .), and I_mu of
    the indicator of label l is (|l|/|H|) * mu(., l), so class i's forward
    image is row i of the bicharacter and label j's backward image is its
    column j.  The indicator of class i projects onto the block as
    (|c_i|/|G|) * sum over the block's irreducibles chi of chi(c_i) * chi,
    which is those rows combined by their column i.  Only support is
    tested, so the positive factors drop."""
    rep = Report("type", {"p": p, "w": w, "core": format_partition(rho)})
    n = p * w + sum(rho)
    _, chis, images = block_basis(p, w, rho)
    mu_rows = build_mu(p, w, rho, (chis, images))
    classes = enumerate_partitions(n)
    labels = enumerate_wreath_classes(p, w)
    sn_types = [tp_p(tau, p) for tau in classes]
    wr_types = [tp_wr(lbl, p) for lbl in labels]
    sn = sn_space(n)
    for m in range(w + 1):
        for lam in enumerate_partitions(m):
            typ = format_partition(lam)
            for i, tau in enumerate(classes):
                if sn_types[i] != lam:
                    continue
                cls = {"type": typ, "class": format_partition(tau)}
                if not in_L_lambda(sn.combine([chi[i] for chi in chis], chis), sn_types, lam):
                    rep.add(dict(cls, side="projection"), False)
                    continue
                rep.add(dict(cls, side="forward"), in_L_lambda(mu_rows[i], wr_types, lam))
            for j, lbl in enumerate(labels):
                if wr_types[j] != lam:
                    continue
                key = {"type": typ, "label": format_class_label(lbl), "side": "backward"}
                rep.add(key, in_L_lambda([row[j] for row in mu_rows], sn_types, lam))
    return rep


def verify_perfproj(p: int, w: int, rho: Partition) -> Report:
    """Transfer matches the block projective lattice with the span of the
    principal projective tuples.  A signed bijection onto the principal
    irreducibles is a unimodular change of coordinates, so the tuples are
    pulled back: row psi of Y holds, at each block member, its sign times
    psi's coefficient at its image, and with every tuple principal the
    lattice's image is their span exactly when Y spans the lattice.  The
    final record also checks that premise, and its rank_image is the
    lattice's rank, which is the image's under a bijection."""
    from .lattice import hnf_basis, is_saturated
    from .modular import principal_gibr, projective_coefficients
    rep = Report("perfproj", {"p": p, "w": w})
    n = p * w + sum(rho)
    block = partitions_with_core(n, rho, p)
    bijection = [isometry_row(lam, rho, p) for lam in block]
    images = [(sign, lambda_psi(comps, p)) for sign, comps in bijection]
    irr_wr = enumerate_irr_wreath(p, w)
    principal_wr = {lambda_psi(psi, p) for psi in multipartitions(p, w)}
    principal = principal_gibr(p, w)
    proj_rows = projective_coefficients(p, w, principal)
    pulled = []
    for psi, row in zip(principal, proj_rows):
        at = dict(zip(irr_wr, row))
        ok_support = all(phi in principal_wr for phi, c in at.items() if c)
        rep.add({"psi": format_multipartition(psi), "support": "principal"}, ok_support)
        pulled.append([sign * at[phi] for sign, phi in images])

    # The lattice is {x : x * M = 0} for M, the block's values on the
    # p-singular classes: saturated, of rank |B| - rank M.  So Y spans it
    # exactly when Y * M = 0, rank Y = |B| - rank M and Y is saturated.
    singular = [tau for tau in enumerate_partitions(n) if tp_p(tau, p) != ()]
    matrix = [skew_row(lam, (), singular) for lam in block]
    rank = len(block) - len(hnf_basis(matrix))
    basis = hnf_basis(pulled)
    contained = all(sum(map(mul, y, col)) == 0 for col in zip(*matrix) for y in basis)
    onto = len(images) == len(principal_wr) and {phi for _, phi in images} == principal_wr
    rep.add(
        {"core": format_partition(rho), "rank_image": rank, "rank_projective": len(hnf_basis(proj_rows))},
        rep.ok and onto and contained and len(basis) == rank and is_saturated(basis),
    )
    return rep


def perfectness_probe(p: int, w: int, rho: Partition) -> Report:
    """Valuation and regularity check on the bicharacter.

    Both criteria are expected to hold while w < p (the isometry is then
    perfect), so there a violation fails its record.  At w >= p the
    divisibility half genuinely fails, and both records only report.
    """
    rep = Report("probe", {"p": p, "w": w, "core": format_partition(rho)})
    n = p * w + sum(rho)
    mu_rows = build_mu(p, w, rho)
    classes = enumerate_partitions(n)
    labels = enumerate_wreath_classes(p, w)
    label_data = [
        (label_p_regular(lbl, p), v_p(centralizer_order_wreath(lbl, p), p)) for lbl in labels
    ]
    divisibility_bad = []
    regularity_bad = []
    for tau, row in zip(classes, mu_rows):
        g_regular = all(x % p for x in tau)
        v_tau = v_p(centralizer_order_sn(tau), p)
        for lbl, (h_regular, v_lbl), m in zip(labels, label_data, row):
            if m == 0:
                continue
            if g_regular != h_regular:
                regularity_bad.append((tau, lbl))
            vm = v_p(m, p)
            if vm < v_tau or vm < v_lbl:
                divisibility_bad.append((tau, lbl))
    informational = w >= p
    rep.add(
        {"criterion": "regularity", "violations": len(regularity_bad)},
        informational or not regularity_bad,
        {"examples": [_pair_text(x) for x in regularity_bad[:3]]} if regularity_bad else None,
    )
    rep.add(
        {"criterion": "divisibility", "violations": len(divisibility_bad), "expected_perfect": w < p},
        informational or not divisibility_bad,
        {"examples": [_pair_text(x) for x in divisibility_bad[:3]]} if divisibility_bad else None,
    )
    return rep


def _pair_text(pair) -> dict:
    tau, lbl = pair
    return {"class": format_partition(tau), "label": format_class_label(lbl)}
