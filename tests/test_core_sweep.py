"""Every block of a weight, through its Scopes-reduced cores."""

import itertools

from core_sweep import core_from_counts, differences, every_block, reduced_cores, scopes_moves, scopes_reduce

from blockiso import cli, isometry
from blockiso.abacus import _core_beads, is_core, partitions_with_core
from blockiso.isometry import isometry_row, verify_diagram, verify_heights, verify_main
from blockiso.partitions import enumerate_partitions, format_partition, is_prime
from blockiso.perfect import verify_perfproj, verify_transfer, verify_type
from blockiso.symchar import mn_value

# (p, w) -> (number of reduced cores, size of the largest).
COUNTS = {
    (2, 1): (1, 0), (2, 2): (2, 1), (2, 3): (3, 3), (2, 4): (4, 6), (2, 5): (5, 10),
    (3, 2): (5, 5), (3, 3): (12, 16), (3, 4): (22, 33), (5, 2): (42, 35),
}
SWEEP = [(p, w, rho) for p, w in COUNTS for rho in reduced_cores(p, w)]


def test_reduced_core_counts():
    for (p, w), (count, largest) in COUNTS.items():
        cores = reduced_cores(p, w)
        assert (len(cores), max(map(sum, cores))) == (count, largest), (p, w)
        assert len(set(cores)) == count, (p, w)
        for rho in cores:
            assert is_core(rho, p), (p, w, rho)
            assert max(differences(_core_beads(rho, p))) <= w - 1, (p, w, rho)
    assert len(SWEEP) == 96


def test_every_core_reduces_to_a_listed_core():
    # Every core of at most 24 boxes, found by filtering partitions, walks
    # by Scopes moves to a listed core, and the listed ones stay put.
    bound = 24
    partitions = [lam for k in range(bound + 1) for lam in enumerate_partitions(k)]
    for p, w in COUNTS:
        listed = set(reduced_cores(p, w))
        cores = [lam for lam in partitions if is_core(lam, p)]
        for rho in cores:
            end = scopes_reduce(rho, p, w)
            assert end in listed, (p, w, rho, end)
            assert (end == rho) == (rho in listed), (p, w, rho)


def test_main_and_heights_at_every_reduced_core():
    for p, w, rho in SWEEP:
        for rep in (verify_main(p, w, rho), verify_heights(p, w, rho)):
            assert rep.records and rep.ok, (p, w, rho, rep.check, rep.failures()[:1])


SMALL = [(p, w, rho) for p, w, rho in SWEEP if p * w + sum(rho) <= 16]


def test_diagram_at_the_reduced_cores_up_to_n_16():
    assert len(SMALL) == 50
    for p, w, rho in SMALL:
        rep = verify_diagram(p, w, rho)
        assert rep.records and rep.ok, (p, w, rho, rep.failures()[:1])


def test_whole_table_verbs_at_the_reduced_cores_up_to_n_16():
    for p, w, rho in SMALL:
        for verify in (verify_transfer, verify_type, verify_perfproj):
            rep = verify(p, w, rho)
            assert rep.records and rep.ok, (p, w, rho, rep.check, rep.failures()[:1])


def move_identity(p, w, k, row=isometry_row):
    """Every Scopes move rho -> rho' from the cores of the count vectors in
    [0, k]^p, with the members of the two blocks paired by psi; per move,
    whether the psi sets agree, and the products eps_rho(lam) * eps_rho'(lam')
    when they do.  Where that product is one constant c, also whether
    mn_value(lam, rho, p alpha) = c * mn_value(lam', rho', p alpha) at every
    alpha of w.  Returns the number of moves and the failing ones."""
    def members(core):
        return partitions_with_core(p * w + sum(core), core, p)

    cores = {core_from_counts(counts) for counts in itertools.product(range(k + 1), repeat=p)}
    moves, failed = 0, []
    for rho in sorted(cores):
        for moved in scopes_moves(rho, p, w):
            moves += 1
            big, small = ({row(lam, core, p)[1]: lam for lam in members(core)} for core in (rho, moved))
            if big.keys() != small.keys():
                failed.append((rho, moved, "psi"))
                continue
            signs = {row(lam, rho, p)[0] * row(small[psi], moved, p)[0] for psi, lam in big.items()}
            if len(signs) != 1:
                failed.append((rho, moved, "sign"))
                continue
            (c,) = signs
            for alpha in enumerate_partitions(w):
                p_alpha = tuple(p * a for a in alpha)
                pairs = big.items()
                if any(mn_value(lam, rho, p_alpha) != c * mn_value(small[psi], moved, p_alpha) for psi, lam in pairs):
                    failed.append((rho, moved, alpha))
    return moves, failed


def test_scopes_moves_carry_the_signed_skew_characters():
    # An observation on the signed bijection, not the paper's claim: across a
    # Scopes move the members with one psi have skew characters at the
    # classes p alpha that agree up to one sign per move.
    for (p, w, k), count in {(2, 2, 6): 5, (2, 3, 6): 4, (3, 2, 6): 50, (3, 3, 6): 38, (5, 2, 4): 825}.items():
        assert move_identity(p, w, k) == (count, []), (p, w, k)


def test_move_identity_fails_on_a_flipped_sign():
    # At p = 2 and w = 2 the only move onto the core (1) is the one from
    # (2, 1); one member of (1)'s block with its sign flipped breaks that
    # move's constant and no other.
    p, w = 2, 2
    victim = partitions_with_core(p * w + 1, (1,), p)[0]

    def flipped(lam, rho, p_):
        sign, psi = isometry_row(lam, rho, p_)
        return (-sign if (lam, rho) == (victim, (1,)) else sign), psi

    assert move_identity(p, w, 6, flipped) == (5, [((2, 1), (1,), "sign")])


def core_counts(p: int, bound: int) -> list:
    """c_p(m) for m <= bound, the number of p-cores of m, read off the
    generating function prod_k (1 - x^{pk})^p / (1 - x^k) (James-Kerber 2.7)."""
    series = [1] + [0] * bound
    for k in range(1, bound + 1):
        for _ in range(p):  # times (1 - x^{pk})
            for m in range(bound, p * k - 1, -1):
                series[m] -= series[m - p * k]
        for m in range(k, bound + 1):  # over (1 - x^k)
            series[m] += series[m - k]
    return series


def test_every_block_count_matches_the_core_generating_function():
    bound = 20
    blocks = every_block(bound)
    assert len(blocks) == len(set(blocks)) == 619
    for n in range(bound + 1):
        listed = sum(p * w + sum(rho) == n for p, w, rho in blocks)
        primes = [p for p in range(2, n + 1) if is_prime(p)]
        assert listed == sum(core_counts(p, n)[n - p * w] for p in primes for w in range(1, n // p + 1)), n
    assert every_block(16) == [b for b in blocks if b[0] * b[1] + sum(b[2]) <= 16]


def sweep(bound: int):
    """The main and heights reports at every block of every S_n, n <= bound."""
    for p, w, rho in every_block(bound):
        yield verify_main(p, w, rho)
        yield verify_heights(p, w, rho)


def test_main_and_heights_at_every_block_up_to_n_16():
    reports = list(sweep(16))
    assert (len(reports), sum(len(rep.records) for rep in reports)) == (2 * 252, 8993)
    for rep in reports:
        assert rep.records and rep.ok, (rep.check, rep.run, rep.failures()[:1])


def test_every_block_sweep_fails_on_a_flipped_sign(monkeypatch):
    # one member of the block of (1) at p = 2, w = 1 with its sign flipped
    victim, rho = partitions_with_core(3, (1,), 2)[0], (1,)

    def flipped(lam, core, p):
        sign, psi = isometry_row(lam, core, p)
        return (-sign if (lam, core) == (victim, rho) else sign), psi

    monkeypatch.setattr(isometry, "isometry_row", flipped)
    failing = next(rep for rep in sweep(16) if not rep.ok)
    assert (failing.check, failing.run) == ("main", {"p": 2, "w": 1, "core": "1"})
    assert {r["parameters"]["lambda"] for r in failing.failures()} == {format_partition(victim)}


# The verify verbs that take a core besides main and heights, and those that
# take none, each called through cli.VERIFY as tests/grid.py calls it.
CORE_VERBS = ("diagram", "transfer", "type", "perfproj", "sep", "probe")
CORELESS_VERBS = ("val", "unique", "lemmaf", "orth")


def verb_sweep(blocks):
    """(verb, block, report) of every CORE_VERBS verb at each block, and of
    every CORELESS_VERBS verb at each block with the empty core, that is at
    every prime p and w >= 1 with p * w <= N when the blocks are every_block(N)."""
    for p, w, rho in blocks:
        for verb in CORE_VERBS:
            yield verb, (p, w, rho), cli.VERIFY[verb][1]()(p, w, rho)
        if rho == ():
            for verb in CORELESS_VERBS:
                yield verb, (p, w, rho), cli.VERIFY[verb][1]()(p, w)


def test_every_verify_verb_at_every_block_up_to_n_12():
    blocks = every_block(12)
    reports = list(verb_sweep(blocks))
    coreless = [rep for verb, _, rep in reports if verb in CORELESS_VERBS]
    assert (len(blocks), len(reports) - len(coreless), len(coreless)) == (95, 6 * 95, 4 * 14)
    assert (sum(len(rep.records) for _, _, rep in reports), sum(len(rep.records) for rep in coreless)) == (70568, 18331)
    for verb, block, rep in reports:
        assert rep.records and rep.ok, (verb, block, rep.failures()[:1])


def test_verb_sweep_fails_on_a_negated_image(monkeypatch):
    # one member of the block of (1) at p = 3, w = 2 with its image negated;
    # the sweep runs up to that block
    victim, block = partitions_with_core(7, (1,), 3)[0], (3, 2, (1,))
    image = isometry.isometry_image

    def negated(lam, rho, p):
        got = image(lam, rho, p)
        return got.scaled(-1) if (lam, rho, p) == (victim, block[2], block[0]) else got

    monkeypatch.setattr(isometry, "isometry_image", negated)
    blocks = every_block(12)
    failing = [(verb, at, rep) for verb, at, rep in verb_sweep(blocks[: blocks.index(block) + 1]) if not rep.ok]
    assert {at for _, at, _ in failing} == {block}
    transfer = next(rep for verb, _, rep in failing if verb == "transfer")
    forward = [r["parameters"]["lambda"] for r in transfer.failures() if r["parameters"]["map"] == "forward"]
    assert forward == [format_partition(victim)]
