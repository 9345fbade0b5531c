"""Scopes-reduced p-cores: a finite set of cores that stands for every block
of a given weight.

Place a core on an abacus with N = 0 (mod p) beads, and let b_i be the
number of beads on runner i.  Its differences are d_i = b_i - b_{i-1} for
1 <= i < p and d_0 = b_0 - b_{p-1} - 1, the wrap pair seen with one more
bead (which shifts every runner up by one).  They sum to -1, and they fix
the core, since N = 0 (mod p) fixes b up to adding one bead to every runner.

Where runner i holds k >= w more beads than runner i - 1, swapping the two
runners takes k beads off the core and gives a core whose weight-w block is
Morita equivalent (J. Scopes, J. Algebra 142, 1991).  A core is reduced when
no such move applies, that is when max d_i <= w - 1; then each d_i is also at
least -1 - (p - 1)(w - 1), so there are finitely many.  `reduced_cores`
lists them from the difference vectors, `scopes_moves` lists the moves from
any core, and `scopes_reduce` walks a core down by them, so that a test can
check that every walk ends in the list.

`degree_residues` reads the degree congruence across the signed bijection
(an observation with the shape of the Isaacs-Navarro refinement of McKay,
not the paper's claim) at one block.
"""

import itertools
from functools import cache
from math import comb

from blockiso.abacus import _core_beads, partition_from_beta, partitions_with_core
from blockiso.isometry import isometry_row, wreath_irr_degree
from blockiso.partitions import v_p
from blockiso.symchar import degree
from blockiso.wreath import lambda_psi


def core_from_counts(counts) -> tuple:
    """The core whose abacus holds counts[i] beads packed on runner i."""
    p = len(counts)
    return partition_from_beta(r * p + i for i, b in enumerate(counts) for r in range(b))


def differences(counts) -> tuple:
    """(d_0, ..., d_{p-1}): the wrap difference first, then b_i - b_{i-1}."""
    return (counts[0] - counts[-1] - 1,) + tuple(b - a for a, b in zip(counts, counts[1:]))


@cache
def reduced_cores(p: int, w: int) -> tuple:
    """Every reduced core of weight w, by size and then in reverse lex order."""
    low = -1 - (p - 1) * (w - 1)
    out = []
    for tail in itertools.product(range(low, w), repeat=p - 1):
        if -1 - sum(tail) > w - 1:
            continue
        # sum(b) = p * b_0 + sum((p - i) * d_i) must be 0 (mod p).
        if sum((p - i) * d for i, d in enumerate(tail, 1)) % p:
            continue
        partial = list(itertools.accumulate(tail, initial=0))
        b0 = -min(partial)
        out.append(core_from_counts([b0 + s for s in partial]))
    return tuple(sorted(out, key=lambda rho: (sum(rho), [-x for x in rho])))


def scopes_moves(rho, p: int, w: int) -> list:
    """The core after each Scopes move that applies, runner pairs (i - 1, i)
    in order of i and the wrap pair last."""
    counts = _core_beads(rho, p)  # on an abacus of N = 0 (mod p) beads
    d = differences(counts)
    out = []
    for i in range(1, p):
        if d[i] >= w:
            swapped = list(counts)
            swapped[i - 1], swapped[i] = counts[i], counts[i - 1]
            out.append(core_from_counts(swapped))
    if d[0] >= w:
        # With one more bead runner p - 1 becomes runner 0, one bead longer,
        # and the wrap pair becomes the pair of runners 0 and 1.
        out.append(core_from_counts((counts[0], counts[-1] + 1) + counts[1:-1]))
    return out


def scopes_reduce(rho, p: int, w: int):
    """rho walked down by the first Scopes move until none applies."""
    while moves := scopes_moves(rho, p, w):
        if sum(moves[0]) >= sum(rho):
            raise AssertionError(f"a Scopes move did not shrink {rho}")
        rho = moves[0]
    return rho


def p_prime(x: int, p: int) -> int:
    """The part of x prime to p."""
    return x // p ** v_p(x, p)


def degree_residues(p: int, w: int, rho):
    """Per block member lam with signed image (eps, phi): lam, eps and the
    residues mod p of deg(lam)_{p'} and c_rho * deg(zeta_phi)_{p'}, where
    c_rho = C(n, |rho|)_{p'} * deg(rho)_{p'}.  The congruence says the first
    residue is eps times the second."""
    n = p * w + sum(rho)
    c_rho = p_prime(comb(n, sum(rho)), p) * p_prime(degree(rho), p)
    out = []
    for lam in partitions_with_core(n, rho, p):
        sign, psi = isometry_row(lam, rho, p)
        lhs = p_prime(degree(lam), p) % p
        rhs = c_rho * p_prime(wreath_irr_degree(p, w, lambda_psi(psi, p)), p) % p
        out.append((lam, sign, lhs, rhs))
    return out
