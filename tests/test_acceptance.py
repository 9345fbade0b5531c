"""Acceptance suite: twelve exact desk-scale criteria, one line printed each.

Every check is exact (integer or rational equality, tolerance zero).  The
runtime limits are asserted, so a pathologically slow environment fails
loudly rather than silently.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, gcd

from deal_reference import reference_induced_mn
from row_reference import combination_class_function, decompose
from span_reference import omega_lambda, shr_m, span_generators, span_membership, tilde_power

from blockiso.abacus import contains_p, p_quotient, p_sign
from blockiso.isometry import (
    verify_centp,
    verify_diagram,
    verify_heights,
    verify_main,
    verify_uniqueness,
    verify_val,
)
from blockiso.abacus import circularly_nondecreasing
from blockiso.lattice import hnf_basis
from blockiso.modular import decomposition_matrix, verify_orth
from blockiso.partitions import contains, enumerate_partitions, scale
from blockiso.perfect import verify_perfproj, verify_sep
from blockiso.symchar import (
    centralizer_order_sn,
    irr_class_function,
    mn_value,
)
from blockiso.wreath import (
    WreathClassFunction,
    canonical_label,
    centralizer_order_wreath,
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    irr_base_values,
    zeta_class_function,
    zeta_irr,
)

EMPTY_CORE_CASES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))
CORE_CASES = (
    (2, 2, (1,)),
    (2, 3, (2, 1)),
    (3, 2, (1,)),
    (3, 2, (1, 1)),
)


@contextmanager
def criterion(num, capsys, detail, budget=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None:
            assert elapsed < budget, f"runtime {elapsed:.1f}s over the {budget}s budget"
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: FAIL ({detail})")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: PASS ({detail}; {elapsed:.1f}s)")


def test_criterion_01_value_agreement(capsys):
    with criterion(1, capsys, "value agreement on heavy classes", budget=60):
        for p, w in EMPTY_CORE_CASES:
            rep = verify_val(p, w)
            assert rep.records, (p, w)
            assert rep.ok, rep.failures()


def test_criterion_02_nonempty_core_agreement(capsys):
    with criterion(2, capsys, "pushdown agreement for nonempty cores", budget=120):
        for p, w, rho in CORE_CASES:
            rep = verify_main(p, w, rho)
            assert rep.ok, rep.failures()
            levels = {r["parameters"]["level"] for r in rep.records}
            expected = {w} if circularly_nondecreasing(rho, p) is None else {w, w - 1}
            assert levels == expected, (p, w, rho, levels)


def test_criterion_03_heights(capsys):
    with criterion(3, capsys, "heights agree three ways"):
        for p, w in EMPTY_CORE_CASES:
            rep = verify_heights(p, w, ())
            assert rep.ok, rep.failures()
        for p, w, rho in CORE_CASES:
            rep = verify_heights(p, w, rho)
            assert rep.ok, rep.failures()


def test_criterion_04_uniqueness(capsys):
    with criterion(4, capsys, "signed pairs separated, singles nonvanishing", budget=30):
        for p, w in ((2, 2), (2, 3), (3, 2)):
            rep = verify_uniqueness(p, w)
            assert rep.ok, rep.failures()
            block = len(
                [r for r in rep.records if r["parameters"].get("single")]
            )
            pairs = len(rep.records) - block
            assert pairs == block * (block - 1)


def test_criterion_05_centralizer_bruteforce(capsys):
    grid = []
    for p in (2, 3, 5, 7):
        w = 1
        while p * w <= 8:
            for e in range(0, 8 - p * w + 1):
                grid.append((p, w, e))
            w += 1
    assert len(grid) == 31
    with criterion(5, capsys, f"centralizer scans over {len(grid)} cases", budget=300):
        for p, w, e in grid:
            rep = verify_centp(p, w, e)
            assert rep.ok, (p, w, e, rep.failures())


def test_criterion_06_gram_identity(capsys):
    with criterion(6, capsys, "modular Gram matrices are identities"):
        for p, w in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            rep = verify_orth(p, w)
            assert rep.ok, rep.failures()


def test_criterion_07_decomposition_numbers(capsys):
    with criterion(7, capsys, "decomposition numbers integral, nonnegative below p"):
        for p, w in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            mat = decomposition_matrix(p, w)
            assert all(isinstance(x, int) for row in mat for x in row)
            if w < p:
                assert all(x >= 0 for row in mat for x in row), (p, w)


def test_criterion_08_separation(capsys):
    with criterion(8, capsys, "bicharacter vanishes across mismatched cycle data"):
        for p, w in EMPTY_CORE_CASES:
            rep = verify_sep(p, w, ())
            assert rep.ok, rep.failures()
        for p, w, rho in CORE_CASES:
            rep = verify_sep(p, w, rho)
            assert rep.ok, rep.failures()


def test_criterion_09_projective_lattices(capsys):
    with criterion(9, capsys, "projective lattices map onto each other"):
        for p, w, rho in ((2, 2, ()), (2, 3, ()), (3, 2, ())):
            rep = verify_perfproj(p, w, rho)
            assert rep.ok, rep.failures()


def test_criterion_10_commuting_squares(capsys):
    with criterion(10, capsys, "restriction squares commute for all small shifts"):
        for p, w in EMPTY_CORE_CASES:
            rep = verify_diagram(p, w, ())
            assert rep.ok, rep.failures()
        for p, w, rho in CORE_CASES:
            rep = verify_diagram(p, w, rho)
            assert rep.ok, rep.failures()


# ---------------------------------------------------------------- criterion 11


def _orthogonality_upto(n_max):
    for n in range(1, n_max + 1):
        parts = enumerate_partitions(n)
        fns = [irr_class_function(lam) for lam in parts]
        for i, f in enumerate(fns):
            for g in fns[i:]:
                assert f.space.inner(f.values, g.values) == (1 if f is g else 0)
        table = [f.values for f in fns]
        for i in range(len(parts)):
            for j in range(len(parts)):
                total = sum(row[i] * row[j] for row in table)
                want = centralizer_order_sn(parts[j]) if i == j else 0
                assert total == want


def _compose(a, b):
    return tuple(a[x] for x in b)


def _order_eight_group():
    gens = ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1))
    group = {tuple(range(4))}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = _compose(g, h)
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return sorted(group)


def _classify(g):
    sigma = {b: g[2 * b] // 2 for b in range(2)}
    pairs = []
    seen = set()
    for b in range(2):
        if b in seen:
            continue
        k = 0
        cur = b
        while cur not in seen:
            seen.add(cur)
            cur = sigma[cur]
            k += 1
        pt = 2 * b
        for _ in range(k):
            pt = g[pt]
        pairs.append((k, (2,) if pt != 2 * b else (1, 1)))
    return canonical_label(pairs)


def _order_eight_table():
    group = _order_eight_group()
    assert len(group) == 8
    labels = enumerate_wreath_classes(2, 2)
    index = {lbl: i for i, lbl in enumerate(labels)}
    elem_class = {g: index[_classify(g)] for g in group}
    sizes = [0] * 5
    for g in group:
        sizes[elem_class[g]] += 1
    for i, lbl in enumerate(labels):
        assert sizes[i] == 8 // centralizer_order_wreath(lbl, 2)
    linears = []
    for bits in range(32):
        vec = [1 if bits & (1 << i) else -1 for i in range(5)]
        if all(
            vec[elem_class[g]] * vec[elem_class[h]] == vec[elem_class[_compose(g, h)]]
            for g in group
            for h in group
        ):
            linears.append(tuple(vec))
    assert len(linears) == 4
    ident = tuple(range(4))
    big = tuple(
        ((8 if i == elem_class[ident] else 0) - sum(v[i] for v in linears)) // 2
        for i in range(5)
    )
    assert sum(Fraction(sizes[i] * big[i] ** 2, 8) for i in range(5)) == 1
    implemented = {tuple(zeta_irr(2, 2, psi).values) for psi in enumerate_irr_wreath(2, 2)}
    assert implemented == set(linears) | {big}


def _farahat_shrink(p, t_max):
    # full strip evaluation: the stretched class value factors through the
    # strip quotients with the bead move sign, and dies without full strips
    for t in range(1, t_max + 1):
        for mu_size in (0, 1, 2):
            n = p * t + mu_size
            for mu in enumerate_partitions(mu_size):
                for lam in enumerate_partitions(n):
                    if not contains(lam, mu):
                        continue
                    reachable = contains_p(lam, mu, p)
                    for tau in enumerate_partitions(t):
                        lhs = mn_value(lam, mu, scale(p, tau))
                        if not reachable:
                            assert lhs == 0, (p, lam, mu, tau)
                            continue
                        factors = [
                            ((1,), lam_i, mu_i)
                            for lam_i, mu_i in zip(p_quotient(lam, p), p_quotient(mu, p))
                        ]
                        label = [(k, 0) for k in tau]
                        rhs = p_sign(lam, mu, p) * reference_induced_mn(factors, label)
                        assert lhs == rhs, (p, lam, mu, tau)


def _top_shrink(p, w_max):
    from blockiso.symchar import SnClassFunction, character_value

    def shrunk(mu, m):
        d = sum(mu) // m
        vals = tuple(
            character_value(mu, scale(m, tau)) for tau in enumerate_partitions(d)
        )
        return {k: int(v) for k, v in decompose(SnClassFunction(d, vals)).items() if v}

    for w in range(2, w_max + 1):
        for m in range(2, w + 1):
            if w % m:
                continue
            for kappa in enumerate_partitions(p):
                phi = irr_base_values(kappa, p)
                for mu in enumerate_partitions(w):
                    xi = zeta_class_function(p, w, [(phi, mu, ())])
                    new_top = shrunk(mu, m)
                    got = shr_m(xi, m)
                    if new_top:
                        want = combination_class_function(p, w // m, [(phi, new_top)])
                        assert got.values == want.values, (p, w, m, kappa, mu)
                    else:
                        assert all(v == 0 for v in got.values), (p, w, m, kappa, mu)
            # tops whose sizes the divisor misses shrink to zero
            phi1 = irr_base_values((p,), p)
            mixed = zeta_class_function(
                p, w, [(phi1, (1,), ()), (phi1, (w - 1,), ())]
            )
            if (w - 1) % m or 1 % m:
                assert all(v == 0 for v in shr_m(mixed, m).values)


def _scalar_combination(p, w):
    phi1 = irr_base_values((p,), p)
    phi2 = irr_base_values((p - 1, 1), p)
    for a1, a2 in ((1, 1), (1, -1), (2, 3), (-1, 2), (3, -2)):
        combo = tuple(a1 * x + a2 * y for x, y in zip(phi1, phi2))
        lhs = tilde_power(combo, p, w)
        total = [0] * len(lhs.values)
        s1 = tuple(a1 * x for x in phi1)
        s2 = tuple(a2 * x for x in phi2)
        for j in range(w + 1):
            factors = []
            if j:
                factors.append((s1, (j,), ()))
            if w - j:
                factors.append((s2, (w - j,), ()))
            term = zeta_class_function(p, w, factors)
            total = [t + v for t, v in zip(total, term.values)]
        assert tuple(total) == lhs.values, (a1, a2)


def test_criterion_11_oracles(capsys):
    with criterion(11, capsys, "independent oracles agree"):
        _orthogonality_upto(8)
        _order_eight_table()
        _farahat_shrink(2, 3)
        _farahat_shrink(3, 3)
        _top_shrink(2, 3)
        _top_shrink(3, 3)
        _scalar_combination(2, 3)


# ---------------------------------------------------------------- criterion 12

BASE = (0, 2)


def _tensor_premise_holds(xi):
    """Every base tensor entry vanishes on singular keys and the rest are
    divisible by two once per tensor slot."""
    for lam in enumerate_partitions(xi.w):
        omega = omega_lambda(xi, lam)
        for key, value in omega.items():
            if any(c == (2,) for c in key):
                if value != 0:
                    return False
            elif value % (2 ** len(lam)):
                return False
    return True


def _members(w, rng, count):
    gens = span_generators(2, w, [BASE])
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-3, 3) for _ in gens]
        if not any(coeffs):
            continue
        values = tuple(
            sum(c * g.values[i] for c, g in zip(coeffs, gens))
            for i in range(len(gens[0].values))
        )
        out.append(WreathClassFunction(2, w, values))
    return out


def test_criterion_12_span_characterization(capsys):
    with criterion(12, capsys, "tensor condition matches the induced span"):
        rng = random.Random(20260823)
        members = _members(2, rng, 10) + _members(3, rng, 10)
        assert len(members) == 20
        for xi in members:
            assert _tensor_premise_holds(xi)
            assert span_membership(xi, [BASE])
        spoilers = {
            2: [zeta_irr(2, 2, ((2,), ())), zeta_irr(2, 2, ((), (2,)))],
            3: [zeta_irr(2, 3, ((3,), ())), zeta_irr(2, 3, ((), (3,)))],
        }
        bad = 0
        for xi in members:
            spoil = spoilers[xi.w][bad % 2]
            sign = 1 if bad % 4 < 2 else -1
            perturbed = WreathClassFunction(
                xi.p,
                xi.w,
                tuple(a + sign * b for a, b in zip(xi.values, spoil.values)),
            )
            assert not _tensor_premise_holds(perturbed)
            assert not span_membership(perturbed, [BASE])
            bad += 1
        assert bad == 20
        # non-members inside the rational span, so that the integrality of
        # the span is tested: a basis row of the generators whose entries
        # share a factor d > 1, divided by d
        for w in (2, 3):
            rows = [[int(v) for v in g.values] for g in span_generators(2, w, [BASE])]
            row = next(r for r in hnf_basis(rows) if gcd(*r) > 1)
            part = WreathClassFunction(2, w, tuple(x // gcd(*row) for x in row))
            assert not _tensor_premise_holds(part)
            assert not span_membership(part, [BASE])
