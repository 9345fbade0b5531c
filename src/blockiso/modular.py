"""Modular data for the base group and its wreath products.

For a prime p the base symmetric group has one p-singular class, the
p-cycles.  Irreducible Brauer characters are the alternating hook sums for
the principal block plus the non-hook irreducibles (defect zero); their
projective partners are adjacent-hook sums and the non-hooks themselves.
Assignments of partitions to Brauer labels give a basis of class functions
on the classes with p-regular cycle products; paired with the projective
tuples they are orthonormal, which yields integer decomposition numbers.
"""

from functools import cache

from .abacus import hook_partition, is_hook
from .classfn import ClassFunction
from .partitions import (
    Partition,
    enumerate_partitions,
    format_multipartition,
    format_partition,
    is_prime,
    multipartitions,
)
from .reporting import Report
from .symchar import character_value, sn_space
from .wreath import (
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    format_assignment,
    induction_factors,
    wreath_space,
    zeta_class_function,
    zeta_irr,
)

BrauerLabel = tuple[str, object]


@cache
def brauer_labels(p: int) -> tuple[BrauerLabel, ...]:
    """Principal-block labels by leg length, then defect-zero non-hooks."""
    if not is_prime(p):
        raise ValueError("modular data needs a prime")
    labels: list[BrauerLabel] = [("leg", i) for i in range(p - 1)]
    labels += [("defect0", lam) for lam in enumerate_partitions(p) if not is_hook(lam)]
    return tuple(labels)


@cache
def brauer_values(label: BrauerLabel, p: int) -> tuple:
    """Brauer character extended by zero on the p-singular class: at leg i
    the alternating sum of the hooks of leg at most i, at a defect-zero
    label its ordinary character."""
    kind, data = label
    terms = [((-1) ** (data - j), hook_partition(j, p)) for j in range(data + 1)] if kind == "leg" else [(1, data)]
    return tuple(
        0 if c == (p,) else sum(k * character_value(mu, c) for k, mu in terms)
        for c in enumerate_partitions(p)
    )


@cache
def projective_values(label: BrauerLabel, p: int) -> tuple:
    """Projective partner: at leg i the sum of the hooks of legs i and i + 1,
    at a defect-zero label its ordinary character."""
    kind, data = label
    terms = (hook_partition(data, p), hook_partition(data + 1, p)) if kind == "leg" else (data,)
    vals = tuple(sum(character_value(mu, c) for mu in terms) for c in enumerate_partitions(p))
    if vals[sn_space(p).index[(p,)]] != 0:
        raise AssertionError("projective character fails to vanish at the p-cycle")
    return vals


def validate_base_modular(p: int) -> None:
    """Biorthogonality of the Brauer and projective families."""
    labels, space = brauer_labels(p), sn_space(p)
    for a in labels:
        for b in labels:
            if space.inner(brauer_values(a, p), projective_values(b, p)) != (1 if a == b else 0):
                raise AssertionError(f"biorthogonality failed at {a}, {b}")


GIBrLabel = tuple[Partition, ...]


def enumerate_gibr(p: int, w: int) -> tuple[GIBrLabel, ...]:
    """Assignments of partitions to Brauer labels with total size w."""
    return multipartitions(len(brauer_labels(p)), w)


def gibr_texts(p: int, w: int) -> list[str]:
    """The Brauer tuples as `name:mu;...`, each Brauer label named `leg<i>`,
    or `d0[kappa]` at a defect-zero kappa."""
    names = [f"leg{d}" if kind == "leg" else f"d0[{format_partition(d)}]" for kind, d in brauer_labels(p)]
    return [format_assignment(names, psi) for psi in enumerate_gibr(p, w)]


def principal_gibr(p: int, w: int) -> tuple[GIBrLabel, ...]:
    """The Brauer tuples supported on the principal-block labels, the legs,
    which brauer_labels lists first: empty at every defect-zero label."""
    empty = ((),) * (len(brauer_labels(p)) - (p - 1))
    return tuple(psi + empty for psi in multipartitions(p - 1, w))


def zeta_brauer(p: int, w: int, psi: GIBrLabel) -> ClassFunction:
    """Induced class function with zero-extended Brauer base factors.

    Vanishes automatically on classes with a base p-cycle pair, and on the
    remaining classes is independent of the chosen extension.
    """
    return zeta_class_function(p, w, induction_factors([brauer_values(lbl, p) for lbl in brauer_labels(p)], psi))


def zeta_projective(p: int, w: int, psi: GIBrLabel) -> ClassFunction:
    """Induced class function with projective base factors."""
    return zeta_class_function(p, w, induction_factors([projective_values(lbl, p) for lbl in brauer_labels(p)], psi))


def regular_wreath_classes(p: int, w: int):
    """Labels all of whose base classes are p-regular."""
    return tuple(
        lbl
        for lbl in enumerate_wreath_classes(p, w)
        if all(c != (p,) for _, c in lbl)
    )


def verify_orth(p: int, w: int) -> Report:
    """Projective tuples against Brauer tuples give the identity Gram matrix,
    and the Brauer family is square on the regular classes."""
    rep = Report("orth", {"p": p, "w": w})
    validate_base_modular(p)
    gibr = enumerate_gibr(p, w)
    rep.add(
        {"count": len(gibr), "regular_classes": len(regular_wreath_classes(p, w))},
        len(gibr) == len(regular_wreath_classes(p, w)),
    )
    brauer_side = [zeta_brauer(p, w, psi).values for psi in gibr]
    texts = [format_multipartition(psi) for psi in gibr]
    for a, a_text in zip(gibr, texts):
        hat = zeta_projective(p, w, a)
        for b, b_text, val in zip(gibr, texts, hat.space.pairings(hat.values, brauer_side)):
            want = 1 if a == b else 0
            rep.add(
                {"psi": a_text, "phi": b_text},
                val == want,
                None if val == want else {"gram": str(val)},
            )
    return rep


def projective_coefficients(p: int, w: int, psis) -> list[list[int]]:
    """Per tuple psi, the coefficients of the projective tuple on the ordinary
    wreath irreducibles in `enumerate_irr_wreath` order: the decomposition
    numbers of column psi, checked integral."""
    irr_rows = [zeta_irr(p, w, phi).values for phi in enumerate_irr_wreath(p, w)]
    space = wreath_space(p, w)
    out = []
    for psi in psis:
        numbers = space.pairings(zeta_projective(p, w, psi).values, irr_rows)
        if any(d.denominator != 1 for d in numbers):
            raise AssertionError("decomposition number is not an integer")
        out.append([int(d) for d in numbers])
    return out


def decomposition_matrix(p: int, w: int):
    """Integer matrix of ordinary wreath irreducibles against Brauer tuples.

    Rows follow the ordinary labels, columns the assignments; entries are
    the projective tuples' coefficients, and the restriction of each row to
    the regular classes must match the integer combination of Brauer tuples.
    """
    gibr = enumerate_gibr(p, w)
    rows = [list(row) for row in zip(*projective_coefficients(p, w, gibr))]
    brau = [zeta_brauer(p, w, psi).values for psi in gibr]
    space = wreath_space(p, w)
    regular = [space.index[lbl] for lbl in regular_wreath_classes(p, w)]
    for theta_label, row in zip(enumerate_irr_wreath(p, w), rows):
        theta = zeta_irr(p, w, theta_label).values
        recon = space.combine(row, brau)
        if any(recon[k] != theta[k] for k in regular):
            raise AssertionError("Brauer expansion fails on a regular class")
    return rows
