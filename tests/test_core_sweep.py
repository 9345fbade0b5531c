"""Every block of a weight, through its Scopes-reduced cores."""

from core_sweep import differences, reduced_cores, scopes_reduce

from blockiso.abacus import _core_beads, is_core
from blockiso.isometry import verify_diagram, verify_heights, verify_main
from blockiso.partitions import enumerate_partitions

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


def test_diagram_at_the_reduced_cores_up_to_n_16():
    cases = [(p, w, rho) for p, w, rho in SWEEP if p * w + sum(rho) <= 16]
    assert len(cases) == 50
    for p, w, rho in cases:
        rep = verify_diagram(p, w, rho)
        assert rep.records and rep.ok, (p, w, rho, rep.failures()[:1])
