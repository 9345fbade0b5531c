"""Whole-row reference class functions that the library does not build.

The verify verbs evaluate the pushdown of a block character one class at a
time, as the skew character lam/rho at the label's cycle type.  The
whole-row maps below are the route it is checked against: the skew
character as a row, restriction along the wreath embedding, and the
pushdown built from `symchar.tilde_pi_rho`.  `combination_class_function`
induces from factors whose top characters are integer combinations, by
linearity over `wreath.zeta_class_function`.  `dense_mu` is the bicharacter
accumulated block character by block character, each one's image added
into every row where its character is nonzero.
"""

import itertools
from math import prod

from blockiso.abacus import partitions_with_core
from blockiso.isometry import isometry_image
from blockiso.partitions import enumerate_partitions
from blockiso.symchar import (
    SnClassFunction,
    irr_class_function,
    mn_value,
    tilde_pi_rho,
)
from blockiso.wreath import (
    WreathClassFunction,
    embed_to_sn,
    enumerate_wreath_classes,
    zeta_class_function,
)


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
