"""Reference oracles on partition tuples for the bead-mask kernel.

`symchar` peels border strips off bead masks and lists a block from its
core and p-quotients.  The routes below are the ones it replaced: strips
read off the sorted first-column hook lengths of a partition tuple, the
Murnaghan-Nakayama recursion on tuples that keeps only the shapes
containing the inner shape, a block found by filtering every partition
of n by its p-core, and the degree as the hook length product read off the
diagram cell by cell.  They are slow and independent of the masks.
"""

from functools import cache
from math import factorial

from blockiso.abacus import beta_set, p_core, partition_from_beta
from blockiso.partitions import contains, enumerate_partitions


def mask_of(lam) -> int:
    """The bead mask of lam, one bead per part."""
    return sum(1 << (part + len(lam) - 1 - i) for i, part in enumerate(lam))


def shape_of(mask: int):
    """The partition whose bead mask is mask (any bead count)."""
    return partition_from_beta(s for s in range(mask.bit_length()) if mask >> s & 1)


@cache
def strips(lam, k: int):
    """(lam less the strip, sign) for each border strip of length k of lam."""
    beta = beta_set(lam, len(lam) or 1)
    occupied = set(beta)
    out = []
    for s in beta:
        t = s - k
        if t >= 0 and t not in occupied:
            jumped = sum(1 for x in beta if t < x < s)
            out.append((partition_from_beta((occupied - {s}) | {t}), (-1) ** jumped))
    return tuple(out)


@cache
def mn(lam, mu, tau) -> int:
    """The skew character lam/mu at the cycle type tau (sorted decreasing)."""
    if not contains(lam, mu):
        return 0
    if not tau:
        return 1
    return sum(sign * mn(nu, mu, tau[1:]) for nu, sign in strips(lam, tau[0]) if contains(nu, mu))


def block_by_filter(n: int, rho, p: int):
    """Every partition of n whose p-core is rho, canonical order."""
    return tuple(lam for lam in enumerate_partitions(n) if p_core(lam, p) == rho)


def hook_degree(lam) -> int:
    """Dimension of lam by the hook length product."""
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for x in lam[i + 1 :] if x > j)
            hooks *= arm + leg + 1
    return factorial(sum(lam)) // hooks
