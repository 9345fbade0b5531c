"""Whole-row reference class functions that the library does not build.

The verify verbs evaluate the pushdown of a block character one class at a
time, as the skew character lam/rho at the label's cycle type.  The
whole-row maps below are the route it is checked against: the skew
character as a row, restriction along the wreath embedding, and the
pushdown `tilde_pi_rho`, which averages a whole row over the cycle types
adjoined for rho.  `decompose` pairs a row with every irreducible of its
group, `d_alpha` adjoins p-multiplied cycles to a whole row and
`delta_alpha` adjoins the pairs (alpha_j, base p-cycle) to every wreath
label; `diagram_report` is the `verify diagram` loop built on them, which
decomposes each adjoined character against all of S_m and compares the
pushdown of the adjoined row with the adjoined pushdown.  `combination_class_function`
induces from factors whose top characters are integer combinations, by
linearity over `wreath.zeta_class_function`.  `dense_mu` is the bicharacter
accumulated block character by block character, each one's image added
into every row where its character is nonzero.  `dense_R_mu` and
`dense_I_mu` are the transfers paired against the bicharacter's columns and
rows, the route the factored `R_mu`/`I_mu` are checked against.

`block_projection` and `wreath_block_projection` are the orthogonal
projections onto the block's irreducibles and onto the principal wreath
irreducibles, each one Fraction inner product per row; `type_report` is the
`verify type` loop that pushes each class's dense 0/1 indicator through them
and then through the dense transfers of `build_mu`.
"""

import itertools
from fractions import Fraction
from math import prod

from blockiso.abacus import partitions_with_core
from blockiso.classfn import ClassFunction
from blockiso.isometry import isometry_image
from blockiso.partitions import Partition, enumerate_partitions, format_partition, scale, sqcup
from blockiso.perfect import build_mu, in_L_lambda, tp_p
from blockiso.reporting import Report
from blockiso.symchar import (
    SnClassFunction,
    irr_class_function,
    mn_value,
    sn_space,
)
from blockiso.wreath import (    WreathClassFunction,
    canonical_label,
    embed_to_sn,
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    format_class_label,
    tp_wr,
    wreath_space,
    zeta_class_function,
    zeta_irr,
)
from label_reference import principal_block_filter


def decompose(xi: ClassFunction) -> "dict[Partition, Fraction]":
    """Coefficients of xi on the irreducible basis."""
    labels = enumerate_partitions(xi.n)
    coeffs = xi.space.pairings(xi.values, [irr_class_function(lam).values for lam in labels])
    return {lam: c for lam, c in zip(labels, coeffs) if c}


def tilde_pi_rho(xi: ClassFunction, rho: Partition) -> ClassFunction:
    """Push a class function down by the fixed small partition rho.

    The value at a class of the smaller group averages xi over all ways of
    adjoining a cycle type of size |rho|, weighted by the character of rho
    over the centralizer order of the adjoined type.  On an irreducible
    this produces exactly the skew character by rho; at rho = () it is xi.
    """
    if not rho:
        return xi
    e = sum(rho)
    m = xi.n - e
    if m < 0:
        raise ValueError("rho larger than the domain")
    sigmas = enumerate_partitions(e)
    adjoined = [[xi.value(sqcup(tau, s)) for s in sigmas] for tau in enumerate_partitions(m)]
    return SnClassFunction(m, sn_space(e).pairings(irr_class_function(rho).values, adjoined))


def d_alpha(xi: ClassFunction, alpha: Partition, p: int) -> ClassFunction:
    """Evaluate xi with disjoint cycles of lengths p*alpha adjoined."""
    m = xi.n - p * sum(alpha)
    if m < 0:
        raise ValueError("alpha too large")
    stretched = scale(p, alpha)
    return SnClassFunction(
        m, tuple(xi.value(sqcup(stretched, tau)) for tau in enumerate_partitions(m))
    )


def delta_alpha(xi: ClassFunction, alpha: Partition) -> ClassFunction:
    """Adjoin pairs (alpha_j, base p-cycle) to every label, then evaluate xi."""
    m = sum(alpha)
    if m > xi.w:
        raise ValueError("alpha too large")
    extra = tuple((a, (xi.p,)) for a in alpha)
    values = tuple(
        xi.value(canonical_label(tuple(lbl) + extra))
        for lbl in enumerate_wreath_classes(xi.p, xi.w - m)
    )
    return WreathClassFunction(xi.p, xi.w - m, values)


def diagram_report(p: int, w: int, rho):
    """The `verify diagram` records, from whole-row adjunction, pushdown and
    decomposition against every irreducible of the smaller group."""
    rep = Report("diagram", {"p": p, "w": w, "core": format_partition(rho)})
    e = sum(rho)
    n = p * w + e
    members = []
    for lam in partitions_with_core(n, rho, p):
        xi = irr_class_function(lam)
        members.append((lam, xi, tilde_pi_rho(xi, rho), isometry_image(lam, rho, p)))
    for alpha in (alpha for m in range(w + 1) for alpha in enumerate_partitions(m)):
        m = sum(alpha)
        small = partitions_with_core(p * (w - m) + e, rho, p)
        for lam, xi, down, image in members:
            base = {"alpha": format_partition(alpha), "lambda": format_partition(lam)}
            dxi = d_alpha(xi, alpha, p)
            pushed = d_alpha(down, alpha, p)
            rep.add(dict(base, square="left"), tilde_pi_rho(dxi, rho).values == pushed.values)

            coeffs = {}
            ok = True
            witness = None
            for nu, c in decompose(dxi).items():
                if c.denominator != 1:
                    ok, witness = False, {"nu": format_partition(nu), "coeff": str(c)}
                    break
                if nu not in small:
                    ok, witness = False, {"nu": format_partition(nu), "outside_block": True}
                    break
                coeffs[nu] = int(c)
            if ok:
                total = wreath_space(p, w - m).combine(
                    coeffs.values(), (isometry_image(nu, rho, p).values for nu in coeffs)
                )
                direct = delta_alpha(image, alpha).values
                ok = tuple(total) == direct
                if not ok:
                    witness = {
                        "via_block": [str(v) for v in total],
                        "via_wreath": [str(v) for v in direct],
                    }
            rep.add(dict(base, square="right"), ok, witness)
    return rep


def skew_class_function(lam, mu):
    """The skew character lam/mu of S_{|lam| - |mu|}, as a whole row."""
    n = sum(lam) - sum(mu)
    return SnClassFunction(n, (mn_value(lam, mu, tau) for tau in enumerate_partitions(n)))


def restrict_from_sn(chi, p: int, w: int):
    """Pull back a class function of the big symmetric group along embedding."""
    if chi.n != p * w:
        raise ValueError("degree mismatch")
    return WreathClassFunction(
        p, w, tuple(chi.value(embed_to_sn(lbl)) for lbl in enumerate_wreath_classes(p, w))
    )


def _integer_values(xi):
    if any(v.denominator != 1 for v in xi.values):
        raise AssertionError("expected integral class function values")
    return SnClassFunction(xi.n, (int(v) for v in xi.values))


def pushdown_to_wreath(lam, rho, p: int, w: int):
    """Restrict, push down by rho, and pull back along the wreath embedding."""
    pushed = _integer_values(tilde_pi_rho(irr_class_function(lam), rho))
    return restrict_from_sn(pushed, p, w)


def combination_class_function(p: int, w: int, factors):
    """The class function induced from factors (phi, {mu: coefficient}),
    expanded by linearity in each factor's top character."""
    total = [0] * len(enumerate_wreath_classes(p, w))
    for terms in itertools.product(*(chi.items() for _, chi in factors)):
        young = [(phi, mu, ()) for (phi, _), (mu, _) in zip(factors, terms)]
        c = prod(k for _, k in terms)
        total = [x + c * y for x, y in zip(total, zeta_class_function(p, w, young).values)]
    return WreathClassFunction(p, w, total)


def dense_mu(p: int, w: int, rho):
    """The bicharacter matrix over (big class, wreath label), one block
    character at a time."""
    n = p * w + sum(rho)
    labels = enumerate_wreath_classes(p, w)
    rows = [[0] * len(labels) for _ in enumerate_partitions(n)]
    for lam in partitions_with_core(n, rho, p):
        image = isometry_image(lam, rho, p).values
        for i, a in enumerate(irr_class_function(lam).values):
            if a:
                rows[i] = [x + a * y for x, y in zip(rows[i], image)]
    return rows


def dense_R_mu(mu_rows, xi, p: int, w: int):
    """R_mu by the bicharacter's columns: the value at a label is the inner
    product of xi with that column."""
    return WreathClassFunction(p, w, xi.space.pairings(xi.values, list(zip(*mu_rows))))


def dense_I_mu(mu_rows, theta, n: int):
    """I_mu by the bicharacter's rows: the value at a class is the inner
    product of theta with that row."""
    return SnClassFunction(n, theta.space.pairings(theta.values, mu_rows))


def _project(xi, rows):
    """Orthogonal projection of xi onto the span of orthonormal integer rows."""
    coeffs = [xi.space.inner(xi.values, row) for row in rows]
    out = [Fraction(0)] * len(xi.values)
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return ClassFunction(xi.space, tuple(out))


def block_projection(xi, p: int, rho):
    """Projection onto the span of the block's irreducibles."""
    block = partitions_with_core(xi.n, rho, p)
    return _project(xi, [irr_class_function(lam).values for lam in block])


def wreath_block_projection(theta):
    """Projection onto the span of the principal wreath irreducibles."""
    p, w = theta.p, theta.w
    principal = principal_block_filter(enumerate_irr_wreath(p, w), p)
    return _project(theta, [zeta_irr(p, w, phi).values for phi in principal])


def type_report(p: int, w: int, rho):
    """The `verify type` records, from the projection of each class's dense
    indicator."""
    rep = Report("type", {"p": p, "w": w, "core": format_partition(rho)})
    n = p * w + sum(rho)
    mu_rows = build_mu(p, w, rho)
    classes = enumerate_partitions(n)
    labels = enumerate_wreath_classes(p, w)
    sn_types = [tp_p(tau, p) for tau in classes]
    wr_types = [tp_wr(lbl, p) for lbl in labels]
    for m in range(w + 1):
        for lam in enumerate_partitions(m):
            typ = format_partition(lam)
            for i, tau in enumerate(classes):
                if sn_types[i] != lam:
                    continue
                indicator = SnClassFunction(n, (int(k == i) for k in range(len(classes))))
                xi = block_projection(indicator, p, rho)
                cls = {"type": typ, "class": format_partition(tau)}
                if not in_L_lambda(xi.values, sn_types, lam):
                    rep.add(dict(cls, side="projection"), False)
                    continue
                image = dense_R_mu(mu_rows, xi, p, w)
                rep.add(dict(cls, side="forward"), in_L_lambda(image.values, wr_types, lam))
            for j, lbl in enumerate(labels):
                if wr_types[j] != lam:
                    continue
                indicator = WreathClassFunction(p, w, (int(k == j) for k in range(len(labels))))
                image = dense_I_mu(mu_rows, wreath_block_projection(indicator), n)
                rep.add(
                    {"type": typ, "label": format_class_label(lbl), "side": "backward"},
                    in_L_lambda(image.values, sn_types, lam),
                )
    return rep
