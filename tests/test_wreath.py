"""Wreath product classes and characters, checked against a brute force
permutation model of the order eight group (two blocks of two points).
"""

import random
from fractions import Fraction
from math import factorial, gcd

import label_reference
import pytest
from deal_reference import reference_zeta_value
from row_reference import combination_class_function, decompose, delta_alpha, restrict_from_sn

from blockiso.lattice import hnf_basis
from blockiso.modular import (
    brauer_labels,
    brauer_values,
    enumerate_gibr,
    projective_values,
    zeta_brauer,
    zeta_projective,
)
from blockiso.partitions import enumerate_partitions, multipartitions, scale
from blockiso.symchar import SnClassFunction, character_value, irr_class_function
from blockiso.wreath import (
    WreathClassFunction,
    canonical_label,
    centralizer_order_wreath,
    embed_to_sn,
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    identity_label,
    in_K_s,
    in_U_s,
    induction_factors,
    irr_base_rows,
    irr_base_values,
    labels_in_U_s,
    lambda_psi,
    omega_lambda,
    shr_m,
    span_generators,
    span_membership,
    tilde_power,
    tp_wr,
    wreath_group_order,
    zeta_class_function,
    zeta_irr,
    zeta_row,
)

SMALL = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))


def test_class_counts_frozen():
    expected = {
        (2, 1): 2,
        (2, 2): 5,
        (2, 3): 10,
        (2, 4): 20,
        (3, 2): 9,
        (3, 3): 22,
        (5, 2): 35,
    }
    for (p, w), count in expected.items():
        assert len(enumerate_wreath_classes(p, w)) == count
        assert len(enumerate_irr_wreath(p, w)) == count


def test_table_guards():
    # The wreath guard is the CLI's (test_guard_exit_three); the library
    # enumerates past it: 15 partitions of 7, 36 bipartitions of 5.
    assert len(enumerate_wreath_classes(7, 1)) == 15
    assert len(enumerate_wreath_classes(2, 5)) == 36


def pair_multiset_classes(p, w):
    """Reference enumeration: multisets of pairs (k, c) with the k summing
    to w, drawn from a pool in canonical pair order, then sorted."""
    key = lambda pair: (-pair[0], tuple(-x for x in pair[1]))
    pool = sorted(((k, c) for k in range(1, w + 1) for c in enumerate_partitions(p)), key=key)

    def gen(start, rem):
        if rem == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            if pool[i][0] <= rem:
                for rest in gen(i, rem - pool[i][0]):
                    yield (pool[i],) + rest

    labels = [canonical_label(lbl) for lbl in gen(0, w)]
    return tuple(sorted(labels, key=lambda lbl: tuple(key(pr) for pr in lbl)))


def test_classes_match_pair_multiset_reference():
    for p in range(2, 6):
        for w in range(5):
            assert enumerate_wreath_classes(p, w) == pair_multiset_classes(p, w)
    assert enumerate_wreath_classes(7, 1) == pair_multiset_classes(7, 1)


def test_labels_in_U_s_match_the_filtered_list():
    # U_s is generated from its definition, never from the list of every
    # class; the filter of that list is the reference, at composite p too.
    for p in range(2, 8):
        for w in range(6):
            for s in range(-1, w + 2):
                assert labels_in_U_s(p, w, s) == label_reference.labels_in_U_s(p, w, s), (p, w, s)


def test_principal_irreducibles_match_the_hook_filter():
    # lambda_psi of the p-multipartitions, in their order, is the filter of
    # every irreducible to those supported on the hooks.
    for p in range(1, 8):
        for w in range(5):
            want = label_reference.principal_block_filter(enumerate_irr_wreath(p, w), p)
            assert tuple(lambda_psi(psi, p) for psi in multipartitions(p, w)) == want, (p, w)


def test_class_equation():
    for p, w in SMALL + ((2, 4), (3, 3), (5, 2)):
        order = wreath_group_order(p, w)
        assert order == factorial(p) ** w * factorial(w)
        assert (
            sum(order // centralizer_order_wreath(lbl, p) for lbl in enumerate_wreath_classes(p, w))
            == order
        )


def test_canonical_label_sorts():
    shuffled = ((1, (1, 1)), (2, (2,)), (1, (2,)))
    assert canonical_label(shuffled) == ((2, (2,)), (1, (2,)), (1, (1, 1)))
    assert canonical_label(canonical_label(shuffled)) == canonical_label(shuffled)


def _pair_key(pair):
    # Longer top cycles first, then larger base classes, by negating both.
    k, c = pair
    return (-k, tuple(-x for x in c))


def test_canonical_order_is_the_negated_pair_key():
    # Descending tuple order is the ascending negated key, since no partition
    # of p is a proper prefix of another and no label of total w is a proper
    # prefix of another label of total w.
    rng = random.Random(0)
    for p in (2, 3, 5, 7):
        for w in range(5):
            labels = enumerate_wreath_classes(p, w)
            assert list(labels) == sorted(labels, key=lambda lbl: [_pair_key(pr) for pr in lbl])
            for lbl in labels:
                shuffled = rng.sample(lbl, len(lbl))
                assert canonical_label(shuffled) == tuple(sorted(shuffled, key=_pair_key)) == lbl


def test_embed_frozen():
    assert embed_to_sn(((2, (2, 1)),)) == (4, 2)
    assert embed_to_sn(((2, (2,)),)) == (4,)
    assert embed_to_sn(((1, (2,)), (1, (1, 1)))) == (2, 1, 1)
    assert embed_to_sn(identity_label(3, 2)) == (1,) * 6


# --- brute force model of the order eight group ------------------------------

T0 = (1, 0, 2, 3)
T1 = (0, 1, 3, 2)
SW = (2, 3, 0, 1)


def compose(a, b):
    return tuple(a[x] for x in b)


def inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def group_closure():
    ident = tuple(range(4))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in (T0, T1, SW):
                gh = compose(g, h)
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return sorted(group)


def classify(g):
    """Top permutation of the two blocks plus per cycle internal products."""
    sigma = {}
    for b in range(2):
        assert g[2 * b] // 2 == g[2 * b + 1] // 2
        sigma[b] = g[2 * b] // 2
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


def cycle_type(g):
    seen = set()
    lens = []
    for i in range(len(g)):
        if i in seen:
            continue
        k = 0
        cur = i
        while cur not in seen:
            seen.add(cur)
            cur = g[cur]
            k += 1
        lens.append(k)
    return tuple(sorted(lens, reverse=True))


def conjugacy_classes(group):
    remaining = set(group)
    out = []
    while remaining:
        g = min(remaining)
        orbit = {compose(compose(x, g), inverse(x)) for x in group}
        out.append(sorted(orbit))
        remaining -= orbit
    return out


def test_brute_force_classes_match():
    group = group_closure()
    assert len(group) == 8
    labels = enumerate_wreath_classes(2, 2)
    classes = conjugacy_classes(group)
    assert len(classes) == len(labels)
    seen = {}
    for cls in classes:
        tags = {classify(g) for g in cls}
        assert len(tags) == 1
        (tag,) = tags
        assert tag in labels
        assert len(cls) == 8 // centralizer_order_wreath(tag, 2)
        seen[tag] = cls
    assert set(seen) == set(labels)
    for g in group:
        assert cycle_type(g) == embed_to_sn(classify(g))


def test_brute_force_character_table_matches():
    group = group_closure()
    labels = enumerate_wreath_classes(2, 2)
    index = {lbl: i for i, lbl in enumerate(labels)}
    elem_class = {g: index[classify(g)] for g in group}
    sizes = [0] * len(labels)
    for g in group:
        sizes[elem_class[g]] += 1

    # linear characters: sign vectors constant on classes and multiplicative
    linears = []
    for bits in range(32):
        vec = [1 if bits & (1 << i) else -1 for i in range(5)]
        if all(
            vec[elem_class[g]] * vec[elem_class[h]] == vec[elem_class[compose(g, h)]]
            for g in group
            for h in group
        ):
            linears.append(tuple(vec))
    assert len(linears) == 4

    # the last irreducible comes from the regular character
    ident = tuple(range(4))
    big = []
    for i in range(5):
        reg = 8 if labels[i] == classify(ident) and sizes[i] == 1 else 0
        num = reg - sum(v[i] for v in linears)
        assert num % 2 == 0
        big.append(num // 2)
    big = tuple(big)
    norm = sum(Fraction(sizes[i] * big[i] * big[i], 8) for i in range(5))
    assert norm == 1

    table = {tuple(zeta_irr(2, 2, psi).values) for psi in enumerate_irr_wreath(2, 2)}
    assert table == set(linears) | {big}


# ----------------------------------------------------------------------------


def test_irr_frozen_2_2():
    rows = [tuple(zeta_irr(2, 2, psi).values) for psi in enumerate_irr_wreath(2, 2)]
    assert rows == [
        (1, 1, 1, 1, 1),
        (-1, -1, 1, 1, 1),
        (0, 0, -2, 0, 2),
        (-1, 1, 1, -1, 1),
        (1, -1, 1, -1, 1),
    ]


def test_irr_degrees():
    for p, w in SMALL:
        ident = identity_label(p, w)
        total = 0
        for psi in enumerate_irr_wreath(p, w):
            f = zeta_irr(p, w, psi)
            d = f.value(ident)
            assert d > 0
            total += d * d
        assert total == wreath_group_order(p, w)


def test_irr_orthonormal():
    for p, w in ((2, 2), (2, 3), (3, 2)):
        fns = [zeta_irr(p, w, psi) for psi in enumerate_irr_wreath(p, w)]
        for i, f in enumerate(fns):
            for g in fns[i:]:
                got = f.space.inner(f.values, g.values)
                assert got == (1 if f is g else 0)


def test_irr_second_orthogonality():
    for p, w in ((2, 2), (3, 2)):
        labels = enumerate_wreath_classes(p, w)
        rows = [zeta_irr(p, w, psi).values for psi in enumerate_irr_wreath(p, w)]
        for i, ci in enumerate(labels):
            for j in range(len(labels)):
                total = sum(row[i] * row[j] for row in rows)
                expect = centralizer_order_wreath(ci, p) if i == j else 0
                assert total == expect


def test_restriction_of_sign_character():
    res = restrict_from_sn(irr_class_function((1, 1, 1, 1)), 2, 2)
    assert res.values == (-1, 1, 1, -1, 1)
    res = restrict_from_sn(irr_class_function((4,)), 2, 2)
    assert res.values == (1, 1, 1, 1, 1)


def test_tp_wr_and_U_frozen():
    labels = enumerate_wreath_classes(2, 2)
    assert [tp_wr(lbl, 2) for lbl in labels] == [(2,), (), (1, 1), (1,), ()]
    assert [in_U_s(lbl, 2, 1) for lbl in labels] == [True, False, True, True, False]
    # the single top two cycle has one base cycle but total size two
    assert [in_U_s(lbl, 2, 2) for lbl in labels] == [True, False, True, False, False]
    assert not any(in_U_s(lbl, 2, 3) for lbl in labels)


def test_K_s_examples():
    fns = {psi: zeta_irr(2, 2, psi) for psi in enumerate_irr_wreath(2, 2)}
    two_dim = fns[((1,), (1,))]
    assert not in_K_s(two_dim, 1)
    assert in_K_s(two_dim, 3)
    diff = WreathClassFunction(
        2,
        2,
        tuple(
            a - b
            for a, b in zip(fns[((), (2,))].values, fns[((1, 1), ())].values)
        ),
    )
    assert diff.values == (0, 2, 0, -2, 0)
    assert in_K_s(diff, 2)
    assert not in_K_s(diff, 1)
    # adjoining a base p cycle lowers the vanishing threshold by one
    down = delta_alpha(diff, (1,))
    assert down.values == (0, -2)
    assert in_K_s(down, 1)


def test_delta_alpha_composes():
    for p, w in ((2, 3), (3, 2)):
        psi = enumerate_irr_wreath(p, w)[2]
        xi = zeta_irr(p, w, psi)
        once = delta_alpha(delta_alpha(xi, (1,)), (1,))
        both = delta_alpha(xi, (1, 1))
        assert once.values == both.values
        assert delta_alpha(xi, ()).values == xi.values


def test_omega_of_trivial_character():
    for p, w in ((2, 2), (3, 2)):
        triv = zeta_irr(p, w, enumerate_irr_wreath(p, w)[0])
        assert all(v == 1 for v in triv.values)
        for lam in enumerate_partitions(w):
            assert all(v == 1 for v in omega_lambda(triv, lam).values())


def test_omega_respects_shrink():
    for psi in list(enumerate_irr_wreath(2, 4))[:6]:
        xi = zeta_irr(2, 4, psi)
        eta = shr_m(xi, 2)
        for lam in enumerate_partitions(2):
            assert omega_lambda(eta, lam) == omega_lambda(xi, scale(2, lam))


def shrunk_top(mu, m):
    d = sum(mu) // m
    vals = tuple(character_value(mu, scale(m, tau)) for tau in enumerate_partitions(d))
    return {k: int(v) for k, v in decompose(SnClassFunction(d, vals)).items() if v}


def test_shrink_matches_top_substitution():
    # shrinking a one factor function rewrites its top character by the
    # stretched class values; tops of sizes the divisor misses give zero
    phi = (5, 7)
    for w, m in ((2, 2), (4, 2)):
        for mu in enumerate_partitions(w):
            xi = zeta_class_function(2, w, [(phi, mu, ())])
            new_top = shrunk_top(mu, m)
            lhs = shr_m(xi, m)
            if new_top:
                rhs = combination_class_function(2, w // m, [(phi, new_top)])
                assert lhs.values == rhs.values, (w, m, mu)
            else:
                assert all(v == 0 for v in lhs.values)
    mixed = zeta_class_function(2, 2, [((5, 7), (1,), ()), ((11, 13), (1,), ())])
    assert all(v == 0 for v in shr_m(mixed, 2).values)


def test_shrink_of_sign_top():
    # the alternating top on two cycles shrinks to minus the single cycle top
    phi = irr_base_values((1, 1), 2)
    xi = zeta_class_function(2, 2, [(phi, (1, 1), ())])
    lhs = shr_m(xi, 2)
    rhs = zeta_class_function(2, 1, [(phi, (1,), ())])
    assert lhs.values == tuple(-v for v in rhs.values)


def test_zeta_row_matches_deal_reference():
    # every irreducible, Brauer and projective factor list, as one row over
    # every class and as one row over the classes in reverse
    for p, w in ((2, 3), (2, 4), (3, 3), (3, 4), (5, 2)):
        factor_lists = [induction_factors(irr_base_rows(p), phi) for phi in enumerate_irr_wreath(p, w)]
        for value_fn in (brauer_values, projective_values):
            rows = [value_fn(label, p) for label in brauer_labels(p)]
            factor_lists += [induction_factors(rows, psi) for psi in enumerate_gibr(p, w)]
        labels = enumerate_wreath_classes(p, w)
        for factors in factor_lists:
            row = zeta_row(p, factors, labels)
            assert len(row) == len(labels)
            for lbl, value in zip(labels, row):
                assert value == reference_zeta_value(p, factors, lbl), (p, w, factors, lbl)
            assert zeta_row(p, factors, labels[::-1]) == row[::-1]
    with pytest.raises(ValueError):
        zeta_row(2, [(irr_base_values((2,), 2), (1,), ())], [identity_label(2, 2)])
    # induction_factors holds the one length check, so an assignment one
    # component too long is refused for every base family, never truncated.
    for p in (2, 3, 5):
        irr, brauer = len(enumerate_partitions(p)), len(brauer_labels(p))
        for zeta, count in ((zeta_irr, irr), (zeta_brauer, brauer), (zeta_projective, brauer)):
            with pytest.raises(ValueError):
                zeta(p, 1, ((1,),) + ((),) * count)


def test_tilde_power_matches_trivial_top():
    for p, w in ((2, 2), (2, 3), (3, 2)):
        for kappa in enumerate_partitions(p):
            phi = irr_base_values(kappa, p)
            a = tilde_power(phi, p, w)
            b = zeta_class_function(p, w, [(phi, (w,), ())])
            assert a.values == b.values


def test_scalar_combination_rule():
    # scalars ride inside each tilde factor, one copy per top cycle
    p = 2
    phi1 = irr_base_values((2,), p)
    phi2 = irr_base_values((1, 1), p)
    for w in (2, 3):
        for a1, a2 in ((1, 1), (1, -1), (2, 3), (-1, 2), (0, 5)):
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
            assert tuple(total) == lhs.values, (w, a1, a2)


def test_lambda_psi_placement():
    psi = ((2,), (1,))
    lbl = lambda_psi(psi, 2)
    # components follow the descending lex order of base partitions
    kappas = enumerate_partitions(2)
    assert kappas == ((2,), (1, 1))
    assert lbl == ((2,), (1,))
    psi3 = ((1,), (), (1,))
    lbl3 = lambda_psi(psi3, 3)
    assert lbl3[kappas3_index((3,))] == (1,)
    assert lbl3[kappas3_index((2, 1))] == ()
    assert lbl3[kappas3_index((1, 1, 1))] == (1,)
    with pytest.raises(ValueError):
        lambda_psi(((1,),), 2)


def kappas3_index(kappa):
    return enumerate_partitions(3).index(kappa)


def test_span_membership():
    base = (0, 2)
    gens = span_generators(2, 2, [base])
    assert len(gens) == 2
    combo = WreathClassFunction(
        2, 2, tuple(3 * a - 2 * b for a, b in zip(gens[0].values, gens[1].values))
    )
    assert span_membership(combo, [base])
    triv = zeta_irr(2, 2, ((2,), ()))
    assert not span_membership(triv, [base])
    # inside the rational span but not the integer one: a basis row of the
    # generators whose entries share a factor d > 1, divided by d
    row = next(r for r in hnf_basis([[int(v) for v in g.values] for g in gens]) if gcd(*r) > 1)
    part = WreathClassFunction(2, 2, tuple(x // gcd(*row) for x in row))
    assert not span_membership(part, [base])
