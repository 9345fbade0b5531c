"""Bead abacus for partitions: cores, quotients, and bead-move signs.

A partition with at most N - 1 parts is displayed on an abacus with N beads,
bead i sitting in slot lam_i + N - i (1-indexed parts, missing parts zero).
With p runners, slot r*p + i lies on runner i at row r.  Pushing every bead
as far up its runner as possible yields the p-core; reading each runner as a
single-runner abacus yields the p-quotient.  N must be divisible by p and
large enough that every runner holds a bead; all derived data below is
independent of the admissible N chosen.
"""

from functools import cache

from .partitions import Partition, contains, multipartitions


def default_bead_count(lam: Partition, p: int) -> int:
    """Smallest convenient N: divisible by p with N - p > len(lam)."""
    k = len(lam)
    return p * ((k + p) // p + 1)


def beta_set(lam: Partition, n_beads: int) -> tuple[int, ...]:
    """First-column hook lengths for n_beads beads, sorted decreasing."""
    if n_beads < len(lam):
        raise ValueError("need at least len(lam) beads")
    lam_pad = lam + (0,) * (n_beads - len(lam))
    return tuple(lam_pad[i] + n_beads - 1 - i for i in range(n_beads))


def partition_from_beta(beta) -> Partition:
    """Inverse of beta_set; beta is any iterable of distinct slots.

    The i-th lowest slot has i beads below it, so its part is the slot
    minus i; the zero parts, all at the bottom, are dropped."""
    parts = [s - i for i, s in enumerate(sorted(beta)) if s > i]
    parts.reverse()
    return tuple(parts)


@cache
def _reading(lam: Partition, p: int) -> tuple[Partition, tuple[Partition, ...], int]:
    """lam's p-core, p-quotient and bead sign down to the core, from one
    pass over its beads in increasing slot order on the default abacus.

    Beads are numbered in that order and pushed up their runners, carrying
    their numbers.  Beads never pass each other on a runner, so the j-th
    bead of runner i ends in slot j*p + i: these end slots spell the core,
    and the sign is their parity, the bead count minus the cycle count of
    their sorting permutation.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    rows: list[list[int]] = [[] for _ in range(p)]
    ends = []
    for slot in reversed(beta_set(lam, default_bead_count(lam, p))):
        row = rows[slot % p]
        ends.append(len(row) * p + slot % p)
        row.append(slot // p)
    order = sorted(range(len(ends)), key=ends.__getitem__)
    seen = [False] * len(order)
    cycles = 0
    for start in range(len(order)):
        if not seen[start]:
            cycles += 1
            k = start
            while not seen[k]:
                seen[k] = True
                k = order[k]
    sign = -1 if (len(order) - cycles) % 2 else 1
    return partition_from_beta(ends), tuple(partition_from_beta(row) for row in rows), sign


def p_core(lam: Partition, p: int) -> Partition:
    """Push all beads up; the partition left is the p-core."""
    return _reading(lam, p)[0]


def p_quotient(lam: Partition, p: int) -> tuple[Partition, ...]:
    """Tuple of p partitions, component i read off runner i."""
    return _reading(lam, p)[1]


def block_weight(lam: Partition, p: int) -> int:
    """Number of p-hooks removed to reach the core."""
    return (sum(lam) - sum(p_core(lam, p))) // p


@cache
def is_core(rho: Partition, p: int) -> bool:
    return p_core(rho, p) == rho


def from_core_and_quotient(rho: Partition, quot: tuple[Partition, ...], p: int) -> Partition:
    """Rebuild the partition with p-core rho and p-quotient quot: the core's
    abacus with w more beads on every runner, w the size of quot, and
    runner i read as quot[i]."""
    if len(quot) != p:
        raise ValueError("quotient must have p components")
    if not is_core(rho, p):
        raise ValueError(f"{rho} is not a p-core for p={p}")
    if any(q[i] < q[i + 1] for q in quot for i in range(len(q) - 1)):
        raise ValueError(f"quotient components must be partitions: {quot}")
    w = sum(sum(q) for q in quot)
    slots = []
    for i, (count, q) in enumerate(zip(_core_beads(rho, p), quot)):
        slots.extend(slot * p + i for slot in beta_set(q, count + w))
    return partition_from_beta(slots)


@cache
def _core_beads(rho: Partition, p: int) -> tuple[int, ...]:
    """Beads per runner of the core rho on its default abacus; a core's
    beads sit packed at the top of each runner."""
    beta = beta_set(rho, default_bead_count(rho, p))
    return tuple(sum(1 for slot in beta if slot % p == i) for i in range(p))


def contains_p(lam: Partition, mu: Partition, p: int) -> bool:
    """Whether mu is reachable from lam by moving beads up runners.

    Equivalently: equal p-cores and componentwise containment of the
    p-quotients.
    """
    core_l, quot_l, _ = _reading(lam, p)
    core_m, quot_m, _ = _reading(mu, p)
    return core_l == core_m and all(contains(a, b) for a, b in zip(quot_l, quot_m))


def p_sign(lam: Partition, mu: Partition, p: int) -> int:
    """Sign of the bead renumbering permutation from lam down to mu.

    Beads of lam are numbered in increasing slot order and moved up their
    runners, carrying their numbers, until the abacus shows mu; the sign is
    the parity of the numbers read in slot order.  That permutation depends
    only on the two abaci and composes along lam -> mu -> core, so the sign
    is lam's bead sign down to the core times mu's.  Independent of the
    admissible N.
    """
    if not contains_p(lam, mu, p):
        raise ValueError("mu is not reachable from lam by upward bead moves")
    return _reading(lam, p)[2] * _reading(mu, p)[2]


@cache
def runner_permutation(rho: Partition, p: int) -> tuple[int, ...]:
    """Rank of each runner's lowest bead among all runners' lowest beads.

    Entry i is the number of runners whose bottom bead sits in an earlier
    slot than runner i's bottom bead; independent of the admissible N.
    """
    if not is_core(rho, p):
        raise ValueError(f"{rho} is not a p-core for p={p}")
    bottoms = [p * (count - 1) + i for i, count in enumerate(_core_beads(rho, p))]
    return tuple(sum(1 for s in bottoms if s < bottoms[i]) for i in range(p))


def circularly_nondecreasing(rho: Partition, p: int) -> int | None:
    """Starting point j if the runner ranks rotate the identity, else None.

    The condition holds exactly when the runner bead counts, read from the
    starting runner around the circle, are weakly increasing.
    """
    gamma = runner_permutation(rho, p)
    for j in range(p):
        if all(gamma[i] == (i - j) % p for i in range(p)):
            return j
    return None


def core_tower_sizes(lam: Partition, p: int) -> tuple[int, ...]:
    """Row sums of the iterated core tower.

    Entry 0 is the size of the p-core; entry i sums the core sizes of the
    i-th iterated quotient components.  The sizes weighted by p**i add up
    to the size of lam.
    """
    sizes = []
    layer = [lam]
    while any(layer):
        sizes.append(sum(sum(p_core(x, p)) for x in layer))
        layer = [q for x in layer for q in p_quotient(x, p)]
    total = sum(c * p**i for i, c in enumerate(sizes))
    if total != sum(lam):
        raise AssertionError("core tower does not resolve the partition")
    return tuple(sizes)


@cache
def partitions_with_core(n: int, rho: Partition, p: int) -> tuple[Partition, ...]:
    """All partitions of n whose p-core is rho, canonical order: one for
    each p-quotient of size (n - |rho|) / p."""
    if not is_core(rho, p):
        raise ValueError(f"{rho} is not a p-core for p={p}")
    if (n - sum(rho)) % p or n < sum(rho):
        return ()
    quotients = multipartitions(p, (n - sum(rho)) // p)
    return tuple(sorted((from_core_and_quotient(rho, q, p) for q in quotients), reverse=True))


def hook_partition(i: int, p: int) -> Partition:
    """The hook with arm p - i - 1 and leg i, a partition of p."""
    if not 0 <= i < p:
        raise ValueError("leg length out of range")
    return (p - i,) + (1,) * i


def is_hook(lam: Partition) -> bool:
    return len(lam) <= 1 or lam[1] == 1
