"""Ordinary characters of symmetric groups by border-strip recursion.

A partition with L parts is held as its bead mask: the int whose L set
bits are its first-column hook lengths.  Removing a border strip of length
k moves one bead from slot s to the empty slot s - k, two bit flips, and
its sign is the parity of the beads jumped over.  Skew shapes recurse the
same way and count the paths that end on the inner shape, so the pushdown
of lam by a core rho is the skew character lam/rho, read a row of classes
at a time (skew_row).  Everything returns exact ints.
"""

from functools import cache
from math import factorial, prod

from .abacus import (
    beta_set,
    block_weight,
    core_tower_sizes,
    p_core,
    partitions_with_core,
)
from .classfn import ClassFunction, ClassSpace
from .partitions import (
    Partition,
    enumerate_partitions,
    p_adic_digits,
    v_p,
)


@cache
def _mask(lam: Partition) -> int:
    """The bead mask of lam: one bead per part, at its first-column hook lengths."""
    return sum(1 << slot for slot in beta_set(lam, len(lam)))


def skew_row(lam: Partition, mu: Partition, taus) -> list[int]:
    """Values of lam/mu at each cycle type in taus, each of size |lam| - |mu|.
    No sort: the recursion may peel the cycles in any order (James-Kerber).  No
    containment check: no strip path from lam reaches a shape outside lam."""
    size = sum(lam) - sum(mu)
    if any(sum(tau) != size for tau in taus):
        raise ValueError("cycle type size mismatch")
    mask, floor = _mask(lam), _mask(mu)
    return [_mn(mask, floor, tuple(tau)) for tau in taus]


def mn_value(lam: Partition, mu: Partition, tau: Partition) -> int:
    """Value of the (skew) character lam/mu at cycle type tau (skew_row)."""
    return skew_row(lam, mu, (tau,))[0]


@cache
def strips(mask: int, k: int) -> tuple[tuple[int, int], ...]:
    """(mask left, sign) for each border strip of length k, top bead first.

    Masks have no bead in slot 0 (no zero part): a bead moved there drops
    out with the beads packed above it."""
    out = []
    free = (mask & ~(mask << k)) >> k  # bit t: a bead at t + k, none at t
    while free:
        t = free.bit_length() - 1
        free ^= 1 << t
        nu = mask ^ (1 << (t + k)) ^ (1 << t)
        jumped = (mask >> (t + 1)) & ((1 << (k - 1)) - 1)
        if not t:
            nu >>= (nu ^ (nu + 1)).bit_length() - 1
        out.append((nu, -1 if jumped.bit_count() & 1 else 1))
    return tuple(out)


@cache
def _mn(mask: int, floor: int, tau: Partition) -> int:
    # Shapes only shrink, so a path that leaves the inner shape never meets
    # it again: counting the paths that end on it is the skew rule.
    if not tau:
        return 1 if mask == floor else 0
    rest = tau[1:]
    total = 0
    for nu, sign in strips(mask, tau[0]):
        total += sign * _mn(nu, floor, rest)
    return total


def induced_row(factors, labels) -> list[int]:
    """Values at each label of the character induced from a Young-type subgroup.

    A factor (row, lam, mu) is the skew character lam/mu of its top group,
    times the base values row; a label is a sequence of (k, c): a k-cycle
    over base class index c (always 0 for a symmetric group).  Each cycle
    in turn is peeled as a k-border strip off one factor's shape, weighted
    by that factor's row[c] (the wreath Murnaghan-Nakayama rule); all labels
    share one memo on the shapes left and the cycles still to peel.  No
    containment check: no strip path from lam reaches a mu outside it.
    """
    labels = tuple(map(tuple, labels))
    size = sum(sum(lam) - sum(mu) for _, lam, mu in factors)
    if _label_sizes(labels) - {size}:
        raise ValueError("factor sizes do not sum to the label size")
    rows = tuple(row for row, _, _ in factors)
    floors = tuple(_mask(mu) for _, _, mu in factors)
    shapes, memo = tuple(_mask(lam) for _, lam, _ in factors), {}
    return [_peel(rows, floors, shapes, label, memo) for label in labels]


@cache
def _label_sizes(labels: tuple) -> frozenset:
    """The sizes sum(k) of the labels, summed once per label list."""
    return frozenset(sum(k for k, _ in label) for label in labels)


def _peel(rows: tuple, floors: tuple, shapes: tuple, rest: tuple, memo: dict) -> int:
    # Not a closure: a recursive closure would keep the memo until a full collection.
    if not rest:
        return 1 if shapes == floors else 0
    total = memo.get((shapes, rest))
    if total is None:
        (k, c), tail = rest[0], rest[1:]
        total = 0
        for i, row in enumerate(rows):
            weight = row[c]
            if weight:
                for nu, sign in strips(shapes[i], k):
                    left = shapes[:i] + (nu,) + shapes[i + 1 :]
                    total += weight * sign * _peel(rows, floors, left, tail, memo)
        memo[shapes, rest] = total
    return total


def character_value(lam: Partition, tau: Partition) -> int:
    return mn_value(lam, (), tau)


@cache
def degree(lam: Partition) -> int:
    """Dimension by Frobenius's formula on the first-column hook lengths b_i
    (the slots of lam's bead mask): n! * prod_{i<j} (b_i - b_j) / prod b_i!."""
    b = beta_set(lam, len(lam))
    spread = prod(x - y for i, x in enumerate(b) for y in b[i + 1 :])
    q, r = divmod(factorial(sum(lam)) * spread, prod(map(factorial, b)))
    if r:
        raise AssertionError("Frobenius's formula did not divide evenly")
    return q


def centralizer_order_sn(tau: Partition) -> int:
    """Order of the centralizer of an element of cycle type tau."""
    out = 1
    mult: dict[int, int] = {}
    for part in tau:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        out *= part**m * factorial(m)
    return out


@cache
def sn_space(n: int) -> ClassSpace:
    """The classes of S_n: cycle types in canonical order."""
    classes = enumerate_partitions(n)
    return ClassSpace(classes, [centralizer_order_sn(t) for t in classes], factorial(n), n=n)


def SnClassFunction(n: int, values) -> ClassFunction:
    """Class function on S_n, values in canonical class order."""
    return ClassFunction(sn_space(n), tuple(values))


@cache
def irr_class_function(lam: Partition) -> ClassFunction:
    """Irreducible character of lam; the row is built once and shared."""
    return SnClassFunction(sum(lam), skew_row(lam, (), enumerate_partitions(sum(lam))))


def height_by_tower(lam: Partition, p: int) -> int:
    """Height from iterated core sizes against the base-p digits of the weight."""
    w = block_weight(lam, p)
    towers = core_tower_sizes(lam, p)
    total = sum(towers[1:]) - sum(p_adic_digits(w, p))
    q, r = divmod(total, p - 1)
    if r:
        raise AssertionError("height formula did not divide evenly")
    return q


def height_by_valuation(lam: Partition, p: int) -> int:
    """Height as the degree valuation minus the block minimum."""
    return v_p(degree(lam), p) - _degree_floor(sum(lam), p, p_core(lam, p))


@cache
def _degree_floor(n: int, p: int, rho: Partition) -> int:
    """The least degree valuation over the block of rho in S_n."""
    return min(v_p(degree(mu), p) for mu in partitions_with_core(n, rho, p))
