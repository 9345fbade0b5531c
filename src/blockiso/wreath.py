"""Class functions on wreath products of a symmetric group base.

Conjugacy classes of the wreath of S_p by S_w are labelled by multisets of
pairs (k, c): a top cycle of length k whose cycle product lies in the base
class c (a partition of p), with the k summing to w.  A list of factors
(phi_i, mu_i, ()), each a row of base values and the irreducible mu_i of a
smaller top group, induces up to a class function.  Its value at a label
comes from the wreath Murnaghan-Nakayama rule: each pair (k, c) in turn is
peeled as a k-border strip off one factor's top shape, weighted by the
strip sign and that factor's base value phi_i at c.  `zeta_row` evaluates
one factor list at many labels at once, by `symchar.induced_row`.
"""

import re
from functools import cache
from math import factorial

from .abacus import hook_partition
from .classfn import ClassFunction, ClassSpace
from .partitions import (
    ArgumentError,
    Partition,
    enumerate_partitions,
    format_partition,
    multipartitions,
    parse_partition,
)
from .symchar import centralizer_order_sn, character_value, induced_row, sn_space

ClassLabel = tuple[tuple[int, Partition], ...]
PMapLabel = tuple[Partition, ...]


def canonical_label(pairs) -> ClassLabel:
    return tuple(sorted(pairs, reverse=True))


def format_class_label(label: ClassLabel) -> str:
    """Wire format `k1:c1,k2:c2,...` of a class label."""
    return ",".join(f"{k}:{format_partition(c)}" for k, c in label)


def parse_class_label(text: str, p: int, w: int) -> ClassLabel:
    """Parse `k1:c1,k2:c2,...` into a canonical class label; the empty
    string means the identity.  A pair starts at each comma whose next
    token holds a colon, and its class c is read by parse_partition."""
    if text == "":
        return identity_label(p, w)
    pairs: list[tuple[int, Partition]] = []
    for item in re.split(r",(?=[^,]*:)", text):
        head, colon, tail = item.partition(":")
        if not colon:
            raise ArgumentError(f"label must start with 'k:part': {text!r}")
        try:
            k = int(head)
        except ValueError:
            raise ArgumentError(f"bad integer {head!r} in label {text!r}") from None
        pairs.append((k, parse_partition(tail)))
    label = canonical_label(pairs)
    for k, c in label:
        if k < 1 or sum(c) != p:
            raise ArgumentError(f"bad pair ({k}, {c}) in label {text!r}")
    if sum(k for k, _ in label) != w:
        raise ArgumentError(f"label top lengths must sum to w={w}: {text!r}")
    return label


def parse_pmap(text: str, p: int, w: int) -> PMapLabel:
    """Parse `kappa:mu;...` into the dense assignment tuple."""
    kappas = enumerate_partitions(p)
    spot: dict[Partition, Partition] = {}
    if text:
        for item in text.split(";"):
            if ":" not in item:
                raise ArgumentError(f"assignment item needs 'kappa:mu': {item!r}")
            head, tail = item.split(":", 1)
            kappa = parse_partition(head)
            if sum(kappa) != p:
                raise ArgumentError(f"base label {head!r} is not a partition of {p}")
            if kappa in spot:
                raise ArgumentError(f"base label repeated: {head!r}")
            spot[kappa] = parse_partition(tail)
    phi = tuple(spot.get(kappa, ()) for kappa in kappas)
    if sum(sum(mu) for mu in phi) != w:
        raise ArgumentError(f"assignment sizes must sum to w={w}: {text!r}")
    return phi


def format_assignment(names: list[str], phi: tuple[Partition, ...]) -> str:
    """`name:mu;...` over the nonempty parts of phi, one name per base label."""
    return ";".join(f"{name}:{format_partition(mu)}" for name, mu in zip(names, phi) if mu)


def irr_names(p: int) -> list[str]:
    """Base-label names of the irreducibles of S_p: their partitions."""
    return [format_partition(kappa) for kappa in enumerate_partitions(p)]


@cache
def enumerate_wreath_classes(p: int, w: int) -> tuple[ClassLabel, ...]:
    """All class labels of the wreath of S_p by S_w, in descending order."""
    return labels_in_U_s(p, w, 0)


def wreath_group_order(p: int, w: int) -> int:
    return factorial(p) ** w * factorial(w)


def centralizer_order_wreath(label: ClassLabel, p: int) -> int:
    """Centralizer order from pair multiplicities: prod m! * (k * z_c)^m."""
    mult: dict[tuple[int, Partition], int] = {}
    for pair in label:
        mult[pair] = mult.get(pair, 0) + 1
    out = 1
    for (k, c), m in mult.items():
        out *= factorial(m) * (k * centralizer_order_sn(c)) ** m
    return out


def embed_to_sn(label: ClassLabel) -> Partition:
    """Cycle type of a label's representative inside the big symmetric group."""
    return tuple(sorted((k * x for k, c in label for x in c), reverse=True))


def tp_wr(label: ClassLabel, p: int) -> Partition:
    """Top cycle lengths over base p-cycles, as a partition."""
    return tuple(sorted((k for k, c in label if c == (p,)), reverse=True))


def in_U_s(label: ClassLabel, p: int, s: int) -> bool:
    """Whether the label's base p-cycle top lengths sum to at least s."""
    return sum(tp_wr(label, p)) >= s


def labels_in_U_s(p: int, w: int, s: int) -> tuple[ClassLabel, ...]:
    """The labels of the wreath product that lie in U_s, in descending order.
    Each is a partition of some t >= s, its parts k the top k-cycles over the
    base p-cycle, with a multipartition of w - t over the other base classes:
    part k of component c is a top k-cycle over base class c."""
    others = enumerate_partitions(p)[1:]
    labels = (
        canonical_label([(k, (p,)) for k in lam] + [(k, c) for c, mu in zip(others, mp) for k in mu])
        for t in range(max(s, 0), w + 1)
        for lam in enumerate_partitions(t)
        for mp in multipartitions(len(others), w - t)
    )
    return tuple(sorted(labels, reverse=True))


def identity_label(p: int, w: int) -> ClassLabel:
    return canonical_label(((1, (1,) * p),) * w)


@cache
def wreath_space(p: int, w: int) -> ClassSpace:
    """The classes of the wreath product, canonical label order."""
    labels = enumerate_wreath_classes(p, w)
    centralizers = [centralizer_order_wreath(lbl, p) for lbl in labels]
    return ClassSpace(labels, centralizers, wreath_group_order(p, w), p=p, w=w)


def WreathClassFunction(p: int, w: int, values) -> ClassFunction:
    """Class function on the wreath product, values in canonical label order."""
    return ClassFunction(wreath_space(p, w), tuple(values))


def zeta_row(p: int, factors: list, labels) -> list[int]:
    """Values at the labels of the class function induced from the factors."""
    return induced_row(factors, _indexed(p, tuple(labels)))


@cache
def _indexed(p: int, labels: tuple) -> tuple:
    """The labels with each base class c replaced by its index in sn_space(p),
    the form induced_row reads; built once per label list."""
    class_idx = sn_space(p).index
    return tuple(tuple((k, class_idx[c]) for k, c in lbl) for lbl in labels)


def zeta_class_function(p: int, w: int, factors: list) -> ClassFunction:
    return WreathClassFunction(p, w, zeta_row(p, factors, enumerate_wreath_classes(p, w)))


def irr_base_values(kappa: Partition, p: int) -> tuple:
    """Dense value tuple of one base irreducible over the base classes."""
    return tuple(character_value(kappa, c) for c in enumerate_partitions(p))


def induction_factors(rows, assignment) -> list:
    """The factor (row, mu, ()) of each nonempty mu of the assignment, which
    holds one mu per base row; a length mismatch raises ValueError."""
    return [(row, mu, ()) for row, mu in zip(rows, assignment, strict=True) if mu]


@cache
def irr_base_rows(p: int) -> tuple:
    """irr_base_values of every base irreducible, in canonical order."""
    return tuple(irr_base_values(kappa, p) for kappa in enumerate_partitions(p))


@cache
def zeta_irr(p: int, w: int, phi_label: PMapLabel) -> ClassFunction:
    """Wreath irreducible labelled by phi; the row is built once and shared."""
    if sum(sum(mu) for mu in phi_label) != w:
        raise ValueError("assignment sizes must sum to w")
    return zeta_class_function(p, w, induction_factors(irr_base_rows(p), phi_label))


def enumerate_irr_wreath(p: int, w: int) -> tuple[PMapLabel, ...]:
    """Assignments of partitions to base irreducibles with total size w."""
    return multipartitions(len(enumerate_partitions(p)), w)


def lambda_psi(psi: tuple[Partition, ...], p: int) -> PMapLabel:
    """Assignment placing psi[i] on the hook with leg i, empty elsewhere."""
    if len(psi) != p:
        raise ValueError("need one partition per leg length")
    kappas = enumerate_partitions(p)
    spot = {hook_partition(i, p): psi[i] for i in range(p)}
    return tuple(spot.get(kappa, ()) for kappa in kappas)

