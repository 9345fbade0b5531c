"""Whole-row reference class functions that the library does not build.

The verify verbs evaluate the pushdown of a block character one class at a
time, as the skew character lam/rho at the label's cycle type.  The
whole-row maps below are the route it is checked against: the skew
character as a row, restriction along the wreath embedding, and the
pushdown built from `symchar.tilde_pi_rho`.  `combination_class_function`
induces from factors whose top characters are integer combinations, by
linearity over `wreath.zeta_class_function`.
"""

import itertools
from math import prod

from blockiso.partitions import enumerate_partitions
from blockiso.symchar import SnClassFunction, irr_class_function, mn_value, tilde_pi_rho
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
    total = None
    for terms in itertools.product(*(chi.items() for _, chi in factors)):
        young = [(phi, mu, ()) for (phi, _), (mu, _) in zip(factors, terms)]
        term = zeta_class_function(p, w, young).scaled(prod(c for _, c in terms))
        total = term if total is None else total + term
    return total
