"""Bead combinatorics against a direct rim-hook oracle and frozen tables.

The oracle removes border strips straight off the Young diagram, with no
bead arithmetic, so core computations are confirmed by two unrelated
algorithms.
"""

import pytest
from strip_reference import block_by_filter

from blockiso.abacus import (
    beta_set,
    block_weight,
    circularly_nondecreasing,
    contains_p,
    core_tower_sizes,
    default_bead_count,
    from_core_and_quotient,
    hook_partition,
    is_core,
    is_hook,
    p_core,
    p_quotient,
    p_sign,
    partition_from_beta,
    partitions_with_core,
    runner_permutation,
)
from blockiso.partitions import conjugate, contains, enumerate_partitions


def diagram_cells(lam):
    return {(i, j) for i, row in enumerate(lam) for j in range(row)}


def rim_path(lam):
    """Boundary cells ordered along the rim from top right to bottom left.

    A cell is on the rim when its southeast neighbour is missing; each
    diagonal holds at most one such cell, so sorting by column minus row
    recovers the path order.
    """
    cells = diagram_cells(lam)
    rim = [c for c in cells if (c[0] + 1, c[1] + 1) not in cells]
    rim.sort(key=lambda c: c[1] - c[0], reverse=True)
    return rim


def remove_border_strips(lam, length):
    """All partitions left after deleting one contiguous rim segment."""
    cells = diagram_cells(lam)
    rim = rim_path(lam)
    out = set()
    for start in range(0, len(rim) - length + 1):
        rest = cells - set(rim[start : start + length])
        counts = [0] * len(lam)
        for i, _ in rest:
            counts[i] += 1
        if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
            continue
        cand = tuple(c for c in counts if c > 0)
        if rest == diagram_cells(cand):
            out.add(cand)
    return out


def oracle_core(lam, p):
    """Exhaustive strip removal; every removal order must end the same way."""
    frontier = {tuple(lam)}
    while True:
        nxt = set()
        for mu in frontier:
            nxt |= remove_border_strips(mu, p)
        if not nxt:
            return sorted(frontier)
        frontier = nxt


def rows_at(lam, p, n_beads):
    """Runner rows of lam on the abacus with n_beads beads, read straight
    off its beta-set, each list sorted increasing."""
    rows = [[] for _ in range(p)]
    for slot in sorted(beta_set(lam, n_beads)):
        rows[slot % p].append(slot // p)
    return rows


def paired_rows(lam, mu, p):
    """Reference oracle for contains_p: the runner rows of lam and of mu on
    lam's default abacus, paired bead by bead, or None when mu is not
    reachable from lam by moving beads up runners."""
    if not contains(lam, mu) or (sum(lam) - sum(mu)) % p:
        return None
    n_beads = default_bead_count(lam, p)
    rows_l, rows_m = rows_at(lam, p, n_beads), rows_at(mu, p, n_beads)
    for col_l, col_m in zip(rows_l, rows_m):
        if len(col_l) != len(col_m) or any(m > l for l, m in zip(col_l, col_m)):
            return None
    return rows_l, rows_m


def inversion_sign(seq):
    """(-1) to the number of pairs out of order, counted pair by pair."""
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])
    return -1 if inversions % 2 else 1


def inversion_p_sign(lam, mu, p):
    """Reference oracle for p_sign, for mu p-contained in lam: beads never
    pass each other on a runner, so the sign is the parity of lam's bead
    slots read in mu's slot order."""
    rows_l, rows_m = paired_rows(lam, mu, p)
    pairs = sorted((m * p + i, l * p + i) for i in range(p) for l, m in zip(rows_l[i], rows_m[i]))
    return inversion_sign([s for _, s in pairs])


def test_border_strip_oracle_agrees_on_cores():
    for p in (2, 3, 5):
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                cores = oracle_core(lam, p)
                assert len(cores) == 1, (lam, p, cores)
                assert cores[0] == p_core(lam, p)


def test_beta_set_frozen():
    assert beta_set((2, 1), 4) == (5, 3, 1, 0)
    assert beta_set((), 4) == (3, 2, 1, 0)
    assert beta_set((3, 1), 4) == (6, 3, 1, 0)
    with pytest.raises(ValueError):
        beta_set((3, 1), 1)


def test_beta_round_trip():
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            for extra in (0, 1, 3):
                nb = len(lam) + 1 + extra
                assert partition_from_beta(beta_set(lam, nb)) == lam


def test_default_bead_count_properties():
    for p in (2, 3, 5):
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                nb = default_bead_count(lam, p)
                assert nb % p == 0
                assert nb - p > len(lam)


def test_quotient_frozen_p2():
    expected = {
        (4,): ((), (2,)),
        (3, 1): ((2,), ()),
        (2, 2): ((1,), (1,)),
        (2, 1, 1): ((), (1, 1)),
        (1, 1, 1, 1): ((1, 1), ()),
    }
    for lam, quot in expected.items():
        assert p_quotient(lam, 2) == quot
        assert p_core(lam, 2) == ()


def test_quotient_bead_count_invariance():
    for p in (2, 3):
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                base = default_bead_count(lam, p)
                q0 = p_quotient(lam, p)
                for n_beads in (base, base + p, base + 3 * p):
                    rows = rows_at(lam, p, n_beads)
                    assert tuple(partition_from_beta(col) for col in rows) == q0


def test_weight_and_reconstruction():
    for p in (2, 3, 5):
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                rho = p_core(lam, p)
                quot = p_quotient(lam, p)
                w = block_weight(lam, p)
                assert sum(sum(q) for q in quot) == w
                assert sum(rho) + p * w == n
                assert from_core_and_quotient(rho, quot, p) == lam
                assert is_core(rho, p)
                assert is_core(lam, p) == (w == 0)
    # a quotient component that is not a partition is rejected, not rebuilt into a non-partition
    with pytest.raises(ValueError, match="quotient components"):
        from_core_and_quotient((), ((1, 2), ()), 2)


def test_conjugate_exchanges_quotient_components():
    # conjugation reverses and conjugates the component list
    for p in (2, 3):
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                quot = p_quotient(lam, p)
                conj_quot = p_quotient(conjugate(lam), p)
                assert conj_quot == tuple(conjugate(q) for q in reversed(quot))


def test_contains_p_matches_componentwise_containment():
    for p in (2, 3):
        for n in range(0, 7):
            for lam in enumerate_partitions(n):
                for m in range(0, n + 1, p):
                    for mu in enumerate_partitions(n - m):
                        same_core = p_core(lam, p) == p_core(mu, p)
                        comp = same_core and all(
                            contains(a, b)
                            for a, b in zip(p_quotient(lam, p), p_quotient(mu, p))
                        )
                        oracle = paired_rows(lam, mu, p) is not None
                        assert contains_p(lam, mu, p) == comp == oracle, (lam, mu, p)


def test_p_sign_frozen_and_invariance():
    signs = {
        (4,): 1,
        (3, 1): -1,
        (2, 2): 1,
        (2, 1, 1): -1,
        (1, 1, 1, 1): 1,
    }
    for lam, s in signs.items():
        assert p_sign(lam, (), 2) == s
    for p in (2, 3):
        for n in range(0, 9, p):
            for lam in enumerate_partitions(n):
                rho = p_core(lam, p)
                assert p_sign(lam, lam, p) == 1
                assert p_sign(lam, rho, p) in (1, -1)


def test_p_sign_against_murnaghan_nakayama():
    # evaluating at w cycles of length p isolates the bead-move sign times
    # the count of standard fillings by full strips
    from blockiso.symchar import character_value, degree
    from math import factorial

    for p in (2, 3):
        for w in range(1, 4):
            n = p * w
            for lam in enumerate_partitions(n):
                if p_core(lam, p) != ():
                    continue
                quot = p_quotient(lam, p)
                count = factorial(w)
                for q in quot:
                    count //= factorial(sum(q))
                for q in quot:
                    count *= degree(q)
                val = character_value(lam, (p,) * w)
                assert val == p_sign(lam, (), p) * count, (lam, p)


def test_p_sign_multiplicative_along_chains():
    for p in (2, 3):
        for n in range(p, 7):
            for lam in enumerate_partitions(n):
                rho = p_core(lam, p)
                if block_weight(lam, p) < 2:
                    continue
                for mid in partitions_with_core(n - p, rho, p):
                    if contains_p(lam, mid, p):
                        assert p_sign(lam, rho, p) == p_sign(lam, mid, p) * p_sign(
                            mid, rho, p
                        )


def simulated_p_sign(lam, mu, p, n_beads):
    """Reference oracle for p_sign, for mu p-contained in lam: number the
    n_beads beads of lam in increasing slot order, move them up one step at
    a time (carrying their numbers) until the abacus shows mu, and take the
    parity of the final number sequence read in slot order."""
    start = sorted(beta_set(lam, n_beads))
    number = {slot: i + 1 for i, slot in enumerate(start)}
    occupied = set(start)
    targets = rows_at(mu, p, n_beads)
    moved = True
    while moved:
        moved = False
        for i in range(p):
            cur = sorted(s for s in occupied if s % p == i)
            for row_now, row_want in zip((s // p for s in cur), targets[i]):
                s = row_now * p + i
                if row_now > row_want and (s - p) not in occupied:
                    occupied.remove(s)
                    occupied.add(s - p)
                    number[s - p] = number.pop(s)
                    moved = True
    return inversion_sign([number[s] for s in sorted(occupied)])


def p_contained(lam, p):
    """Every partition that lam p-contains."""
    n = sum(lam)
    return [mu for m in range(n % p, n + 1, p) for mu in enumerate_partitions(m) if contains_p(lam, mu, p)]


def test_p_sign_matches_bead_moves_on_the_grid():
    pairs = 0
    for p in (2, 3, 4, 5):
        for n in range(11):
            for lam in enumerate_partitions(n):
                for mu in p_contained(lam, p):
                    want = simulated_p_sign(lam, mu, p, default_bead_count(lam, p))
                    assert p_sign(lam, mu, p) == want, (lam, mu, p)
                    assert inversion_p_sign(lam, mu, p) == want, (lam, mu, p)
                    pairs += 1
    assert pairs == 1999


def test_p_sign_matches_bead_moves_at_any_bead_count():
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from((2, 3, 4, 5)))
        lam = data.draw(st.sampled_from(enumerate_partitions(data.draw(st.integers(0, 14)))))
        mu = data.draw(st.sampled_from(p_contained(lam, p)))
        sign = p_sign(lam, mu, p)
        base = default_bead_count(lam, p)
        for n_beads in (base, base + p, base + 2 * p):
            assert simulated_p_sign(lam, mu, p, n_beads) == sign, (lam, mu, p, n_beads)

    check()


def test_p_sign_composes_along_p_containment():
    # p_sign(lam, mu) is lam's sign down to the core times mu's, which rests
    # on this law; the inversion oracle must obey it too
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from((2, 3, 4, 5)))
        lam = data.draw(st.sampled_from(enumerate_partitions(data.draw(st.integers(0, 14)))))
        mu = data.draw(st.sampled_from(p_contained(lam, p)))
        nu = data.draw(st.sampled_from(p_contained(mu, p)))
        assert p_sign(lam, nu, p) == p_sign(lam, mu, p) * p_sign(mu, nu, p), (lam, mu, nu, p)
        chain = inversion_p_sign(lam, mu, p) * inversion_p_sign(mu, nu, p)
        assert inversion_p_sign(lam, nu, p) == chain, (lam, mu, nu, p)

    check()


def test_runner_permutation_frozen():
    assert runner_permutation((), 2) == (0, 1)
    assert runner_permutation((), 5) == (0, 1, 2, 3, 4)
    assert runner_permutation((1,), 2) == (1, 0)
    assert runner_permutation((1,), 3) == (2, 1, 0)
    assert runner_permutation((1, 1), 3) == (2, 0, 1)
    assert runner_permutation((2,), 3) == (1, 2, 0)
    with pytest.raises(ValueError):
        runner_permutation((2, 1), 3)


def test_circularly_nondecreasing_frozen():
    assert circularly_nondecreasing((), 2) == 0
    assert circularly_nondecreasing((1,), 2) == 1
    assert circularly_nondecreasing((1,), 3) is None
    assert circularly_nondecreasing((1, 1), 3) == 1
    assert circularly_nondecreasing((2,), 3) == 2
    assert circularly_nondecreasing((2, 1), 2) == 0


def test_core_tower_sizes():
    assert core_tower_sizes((2, 1, 1), 2) == (0, 0, 1)
    assert core_tower_sizes((2, 2), 2) == (0, 2)
    assert core_tower_sizes((1,), 2) == (1,)
    assert core_tower_sizes((), 3) == ()
    for p in (2, 3):
        for n in range(0, 9):
            for lam in enumerate_partitions(n):
                tower = core_tower_sizes(lam, p)
                assert sum(c * p**i for i, c in enumerate(tower)) == n


def test_partitions_with_core():
    block = partitions_with_core(4, (), 2)
    assert block == enumerate_partitions(4)
    assert partitions_with_core(4, (1,), 3) == ((4,), (2, 2), (1, 1, 1, 1))
    assert partitions_with_core(3, (2, 1), 5) == ((2, 1),)
    # Built from the quotients, against the filter over every partition of
    # n: composite p too, every p-core of size <= 6, every n <= 14.
    for p in (2, 3, 4, 5, 6):
        cores = [rho for m in range(7) for rho in enumerate_partitions(m) if is_core(rho, p)]
        for rho in cores:
            for n in range(15):
                assert partitions_with_core(n, rho, p) == block_by_filter(n, rho, p), (n, rho, p)


def test_hooks():
    assert hook_partition(0, 3) == (3,)
    assert hook_partition(2, 3) == (1, 1, 1)
    assert hook_partition(1, 4) == (3, 1)
    assert is_hook((4, 1, 1))
    assert not is_hook((2, 2))
    assert [hook_partition(i, 4) for i in range(4)] == [
        (4,),
        (3, 1),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
