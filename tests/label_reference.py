"""The filtering routes to the label lists that the library replaced, kept
as test oracles.

The library generates each label list from its definition: `U_s` from a
partition of t >= s on the base p-cycle and a multipartition of w - t over
the other base classes, the principal wreath irreducibles as `lambda_psi`
of the p-multipartitions, and the principal Brauer tuples as the
multipartitions over the leg labels.  The routes below reach the same
lists by filtering a list of every class or every irreducible:
`labels_in_U_s` filters every class label (`enumerate_wreath_classes`,
read off the multipartitions over all base classes), and
`principal_block_filter` and `principal_gibr_filter` keep the assignments
that `supported_on` finds on the hooks and on the leg labels.
`multipartitions` is the generator that called itself once per component,
and `embed_by_fold` is the cycle type re-sorted once per (k, c) pair.
"""

from functools import cache

from blockiso.abacus import is_hook
from blockiso.modular import GIBrLabel, brauer_labels
from blockiso.partitions import Partition, enumerate_partitions, scale, sqcup
from blockiso.wreath import ClassLabel, PMapLabel, canonical_label, in_U_s


@cache
def multipartitions(k: int, w: int) -> tuple[tuple[Partition, ...], ...]:
    """All k-tuples of partitions with total size w, descending lexicographic."""
    if k == 0:
        return ((),) if w == 0 else ()
    heads = sorted((mu for m in range(w + 1) for mu in enumerate_partitions(m)), reverse=True)
    return tuple((mu,) + rest for mu in heads for rest in multipartitions(k - 1, w - sum(mu)))


@cache
def enumerate_wreath_classes(p: int, w: int) -> tuple[ClassLabel, ...]:
    """All class labels of the wreath of S_p by S_w, in descending order.  Part k
    of component c of a multipartition is a top k-cycle over base class c."""
    bases = enumerate_partitions(p)
    labels = (
        canonical_label((k, c) for c, mu in zip(bases, mp) for k in mu)
        for mp in multipartitions(len(bases), w)
    )
    return tuple(sorted(labels, reverse=True))


def labels_in_U_s(p: int, w: int, s: int) -> tuple[ClassLabel, ...]:
    """The labels of the wreath product that lie in U_s, canonical order."""
    return tuple(lbl for lbl in enumerate_wreath_classes(p, w) if in_U_s(lbl, p, s))


def supported_on(assignments, marked) -> tuple:
    """Keep the assignments whose nonempty parts sit only where marked is true."""
    return tuple(a for a in assignments if all(m or not mu for m, mu in zip(marked, a)))


def principal_block_filter(labels, p: int) -> tuple[PMapLabel, ...]:
    """Keep the assignments concentrated on hook base irreducibles."""
    return supported_on(labels, [is_hook(kappa) for kappa in enumerate_partitions(p)])


def principal_gibr_filter(assignments, p: int) -> tuple[GIBrLabel, ...]:
    """Keep assignments supported on the principal-block Brauer labels."""
    return supported_on(assignments, [kind == "leg" for kind, _ in brauer_labels(p)])


def embed_by_fold(label: ClassLabel) -> Partition:
    """Cycle type of a label's representative inside the big symmetric group."""
    typ: Partition = ()
    for k, c in label:
        typ = sqcup(typ, scale(k, c))
    return typ
