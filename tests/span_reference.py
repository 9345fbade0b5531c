"""The wreath-span helpers of the paper's third claim, read by criterion 12.

The paper writes virtual characters of a wreath product of S_p by S_w in
terms of induced characters.  Criterion 12 of `test_acceptance.py` checks
that statement by sampling with these helpers, and `test_wreath.py` checks
the helpers themselves; the library has no caller for them.
`span_membership` asks whether a class function lies in the integer span of
`span_generators`, by `lattice_le`: containment of row lattices as a
comparison of HNF bases.
"""

import itertools

from blockiso.classfn import ClassFunction
from blockiso.lattice import Matrix, hnf_basis
from blockiso.partitions import Partition, enumerate_partitions, multipartitions
from blockiso.symchar import sn_space
from blockiso.wreath import (
    WreathClassFunction,
    canonical_label,
    enumerate_wreath_classes,
    induction_factors,
    labels_in_U_s,
    zeta_class_function,
)


def lattice_le(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Whether the lattice of A lies in the lattice of B: adding A's rows
    to B's canonical basis leaves the basis as it is."""
    basis = hnf_basis(rows_b)
    return hnf_basis([*basis, *rows_a]) == basis


def tilde_power(phi: tuple, p: int, w: int) -> ClassFunction:
    """Product of base values over a label's pairs (top group ignored)."""
    class_idx = sn_space(p).index
    values = []
    for label in enumerate_wreath_classes(p, w):
        term = 1
        for _, c in label:
            term *= phi[class_idx[c]]
        values.append(term)
    return WreathClassFunction(p, w, tuple(values))


def omega_lambda(xi: ClassFunction, lam: Partition) -> dict[tuple[Partition, ...], object]:
    """Base-class tensor of xi along labels with top cycle lengths lam."""
    if sum(lam) != xi.w:
        raise ValueError("lam must partition w")
    return {
        chosen: xi.value(canonical_label(zip(lam, chosen)))
        for chosen in itertools.product(enumerate_partitions(xi.p), repeat=len(lam))
    }


def shr_m(xi: ClassFunction, m: int) -> ClassFunction:
    """Shrink: value at a label is the value at the label with tops scaled by m."""
    if xi.w % m:
        raise ValueError("m must divide w")
    d = xi.w // m
    values = tuple(
        xi.value(canonical_label((m * k, c) for k, c in lbl))
        for lbl in enumerate_wreath_classes(xi.p, d)
    )
    return WreathClassFunction(xi.p, d, values)


def in_K_s(xi: ClassFunction, s: int) -> bool:
    """Whether xi vanishes on every class with at least s base p-cycles."""
    return not any(xi.value(lbl) for lbl in labels_in_U_s(xi.p, xi.w, s))


def span_generators(p: int, w: int, base_list: list[tuple]) -> list[ClassFunction]:
    """Induced generators with base factors drawn from the given value tuples."""
    return [
        zeta_class_function(p, w, induction_factors(base_list, assign))
        for assign in multipartitions(len(base_list), w)
    ]


def span_membership(xi: ClassFunction, base_list: list[tuple]) -> bool:
    """Whether xi lies in the integer span of the induced generators."""
    if any(int(v) != v for v in xi.values):
        raise ValueError("membership asks for integer class functions")
    gens = span_generators(xi.p, xi.w, base_list)
    rows = [[int(v) for v in g.values] for g in gens]
    return lattice_le([[int(v) for v in xi.values]], rows)
