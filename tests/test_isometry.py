"""The signed bijection between block characters and wreath characters."""

import itertools
from math import lcm

import pytest
import label_reference
import row_reference
import strip_reference
from core_sweep import degree_residues, reduced_cores
from row_reference import diagram_report, pushdown_to_wreath

from blockiso.abacus import circularly_nondecreasing, is_core, p_sign, partitions_with_core
from blockiso import isometry, perfect, wreath
from blockiso.isometry import (
    _centralizer_scan,
    _in_wreath_times_tail,
    build_isometry,
    compute_W,
    isometry_image,
    isometry_inverse,
    isometry_row,
    label_representative,
    p_part_perm,
    verify_centp,
    verify_diagram,
    verify_heights,
    verify_lemma_f,
    verify_main,
    verify_uniqueness,
    verify_val,
    wreath_irr_degree,
)
from blockiso.classfn import ClassFunction
from blockiso.partitions import enumerate_partitions, format_partition, scale, sqcup
from blockiso.reporting import record
from blockiso.symchar import centralizer_order_sn, character_value
from blockiso.wreath import (
    embed_to_sn,
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    format_class_label,
    identity_label,
    in_U_s,
    induction_factors,
    irr_base_rows,
    labels_in_U_s,
    lambda_psi,
    zeta_irr,
    zeta_row,
)


def test_weight_one_rows_frozen():
    assert isometry_row((2,), (), 2) == (1, ((1,), ()))
    assert isometry_row((1, 1), (), 2) == (1, ((), (1,)))
    assert isometry_row((3,), (), 3) == (1, ((1,), (), ()))
    # the bead move sign -1 cancels against the odd leg conjugation factor
    assert isometry_row((2, 1), (), 3) == (1, ((), (1,), ()))
    assert isometry_row((1, 1, 1), (), 3) == (1, ((), (), (1,)))


def test_weight_two_table_frozen():
    rows = {lam: isometry_row(lam, (), 2) for lam in partitions_with_core(4, (), 2)}
    assert rows == {
        (4,): (1, ((2,), ())),
        (3, 1): (-1, ((), (1, 1))),
        (2, 2): (-1, ((1,), (1,))),
        (2, 1, 1): (-1, ((1, 1), ())),
        (1, 1, 1, 1): (1, ((), (2,))),
    }


def test_rows_with_nonempty_core():
    for lam in partitions_with_core(5, (1,), 2):
        sign, psi = isometry_row(lam, (1,), 2)
        assert sum(sum(q) for q in psi) == 2
        assert isometry_inverse(psi, (1,), 2) == lam
        assert sign == p_sign(lam, (1,), 2) * (-1) ** sum(psi[1])


def test_inverse_round_trip():
    for p, w, rho in ((2, 2, ()), (2, 3, ()), (3, 2, (1, 1)), (2, 2, (1,)), (3, 1, (2,))):
        n = p * w + sum(rho)
        for lam in partitions_with_core(n, rho, p):
            sign, psi = isometry_row(lam, rho, p)
            assert isometry_inverse(psi, rho, p) == lam
            assert sign * sign == 1


def test_inverse_round_trip_property():
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from((2, 3, 5)))
        rho = data.draw(st.sampled_from(_small_cores(p, 6)))
        w = data.draw(st.integers(0, 3))
        lam = data.draw(st.sampled_from(partitions_with_core(p * w + sum(rho), rho, p)))
        assert isometry_inverse(isometry_row(lam, rho, p)[1], rho, p) == lam

    check()


def test_psi_components_partition_weight():
    for p, w, rho in ((2, 3, ()), (3, 2, (1,)), (5, 1, ())):
        n = p * w + sum(rho)
        seen = set()
        for lam in partitions_with_core(n, rho, p):
            _, psi = isometry_row(lam, rho, p)
            assert len(psi) == p
            assert sum(sum(q) for q in psi) == w
            assert psi not in seen
            seen.add(psi)


def test_image_is_signed_irreducible():
    for lam in partitions_with_core(4, (), 2):
        sign, psi = isometry_row(lam, (), 2)
        img = isometry_image(lam, (), 2)
        ref = zeta_irr(2, 2, lambda_psi(psi, 2)).scaled(sign)
        assert img.values == ref.values
        assert img.space.inner(img.values, img.values) == 1


def test_build_isometry_consistent():
    rows = build_isometry(2, 2, ())
    assert len(rows) == 5
    for lam, sign, psi in rows:
        assert isometry_row(lam, (), 2) == (sign, psi)
    with pytest.raises(ValueError):
        build_isometry(2, 2, (2,))


def test_pushdown_matches_image_on_heavy_classes():
    # the pushdown and the signed irreducible agree wherever the class has
    # at least w base p cycles; away from those classes they may differ
    for p, w, rho in ((2, 2, ()), (2, 1, (1,)), (3, 1, (1, 1)), (3, 2, ())):
        n = p * w + sum(rho)
        heavy = labels_in_U_s(p, w, w)
        assert heavy
        for lam in partitions_with_core(n, rho, p):
            down = pushdown_to_wreath(lam, rho, p, w)
            img = isometry_image(lam, rho, p)
            for lbl in heavy:
                assert down.value(lbl) == img.value(lbl), (p, w, rho, lam, lbl)


REAL_ISOMETRY_ROW = isometry.isometry_row


def _small_cores(p: int, size: int = 3):
    return [rho for e in range(size + 1) for rho in enumerate_partitions(e) if is_core(rho, p)]


def test_pointwise_verbs_read_no_full_label_list(monkeypatch):
    # main, val, unique and heights read only the labels in U_s and the
    # principal irreducibles, each generated from its definition; the list
    # of every class and of every irreducible stays unread.
    def full_list(p, w):
        raise AssertionError(f"a pointwise verb listed every label at ({p},{w})")

    for module in (wreath, isometry):
        for name in ("enumerate_wreath_classes", "enumerate_irr_wreath"):
            monkeypatch.setattr(module, name, full_list, raising=False)
    for p, w, rho in ((3, 3, ()), (5, 2, (1,)), (7, 2, ())):
        reps = [verify_main(p, w, rho), verify_val(p, w), verify_uniqueness(p, w), verify_heights(p, w, rho)]
        assert all(rep.records and rep.ok for rep in reps), (p, w, rho)


def test_pointwise_pushdown_and_image_match_whole_rows():
    # main and val read _pointwise: the pushdown (isometry.pushdown_to_wreath)
    # as the skew character lam/rho one row per member, and the image by the
    # wreath MN rule as one row over the labels they check; the whole-row
    # maps (tilde_pi_rho of the irreducible row, the cached zeta_irr row) are
    # the reference.  U_0 holds every label.  At the empty core the pushdown
    # is the restriction, character_value at each label's cycle type.
    grid = [(2, w) for w in range(1, 5)] + [(3, w) for w in range(1, 4)] + [(5, 1), (5, 2)]
    for p, w in grid:
        for rho in _small_cores(p):
            labels, rows = isometry._pointwise(p, w, rho, 0)
            assert labels == enumerate_wreath_classes(p, w), (p, w, rho)
            block = partitions_with_core(p * w + sum(rho), rho, p)
            assert [lam for lam, _, _ in rows] == list(block), (p, w, rho)
            for lam, image, pushed in rows:
                down = pushdown_to_wreath(lam, rho, p, w)
                img = isometry_image(lam, rho, p)
                assert pushed == [down.value(lbl) for lbl in labels], (p, w, rho, lam)
                assert image == [img.value(lbl) for lbl in labels], (p, w, rho, lam)
                if not rho:
                    assert pushed == [character_value(lam, embed_to_sn(lbl)) for lbl in labels], (p, w, lam)
    # At the reduced cores, every U_s that main reads: the rows against the
    # tuple recursion (strip_reference.mn) over labels_in_U_s and the block.
    for p, w in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2)):
        for rho in reduced_cores(p, w):
            for s in (w - 1, w):
                labels, members, rows = isometry.pushdown_to_wreath(p, w, rho, s)
                assert labels == labels_in_U_s(p, w, s), (p, w, rho, s)
                assert members == partitions_with_core(p * w + sum(rho), rho, p), (p, w, rho)
                want = [[strip_reference.mn(lam, rho, embed_to_sn(lbl)) for lbl in labels] for lam in members]
                assert rows == want, (p, w, rho, s)
    # The cycle types that isometry.pushdown_to_wreath reads (embed_to_sn, one sort)
    # against the fold that re-sorts once per pair, on every label at (2,4),
    # (3,3) and (5,3) and on U_2 at (19,3).
    grid = [enumerate_wreath_classes(p, w) for p, w in ((2, 4), (3, 3), (5, 3))]
    for lbl in itertools.chain(*grid, labels_in_U_s(19, 3, 2)):
        assert embed_to_sn(lbl) == label_reference.embed_by_fold(lbl), lbl


def _flip_one_sign(monkeypatch, flipped):
    def isometry_row(lam, rho, p):
        sign, psi = REAL_ISOMETRY_ROW(lam, rho, p)
        return (-sign if lam == flipped else sign), psi

    monkeypatch.setattr(isometry, "isometry_row", isometry_row)


def test_failing_records_keep_whole_row_witnesses(monkeypatch):
    # With one sign flipped, main and val fail; each failing record and its
    # witness must be the one read off the whole rows: the first label in
    # class order within U_s where image and pushdown differ.
    for p, w, rho in ((2, 2, ()), (2, 3, ()), (3, 2, ()), (2, 2, (1,)), (3, 1, (2,)), (2, 3, (2, 1))):
        block = partitions_with_core(p * w + sum(rho), rho, p)
        _flip_one_sign(monkeypatch, block[0])
        levels = [w] if circularly_nondecreasing(rho, p) is None else [w, w - 1]
        run = {"p": p, "w": w, "core": format_partition(rho)}
        want = []
        for lam in block:
            image, pushed = isometry_image(lam, rho, p), pushdown_to_wreath(lam, rho, p, w)
            for s in levels:
                bad = [lbl for lbl in labels_in_U_s(p, w, s) if image.value(lbl) != pushed.value(lbl)]
                if bad:
                    diff = image.value(bad[0]) - pushed.value(bad[0])
                    witness = {"label": format_class_label(bad[0]), "difference": str(diff)}
                    params = dict(run, **{"lambda": format_partition(lam), "level": s})
                    want.append(record("main", params, False, witness))
        assert want, (p, w, rho)
        assert verify_main(p, w, rho).failures() == want

        if rho:
            continue
        want = []
        for lam in block:
            image = isometry_image(lam, (), p)
            down = pushdown_to_wreath(lam, (), p, w)
            for lbl in labels_in_U_s(p, w, w - 1):
                if image.value(lbl) != down.value(lbl):
                    witness = {"image": str(image.value(lbl)), "restricted": str(down.value(lbl))}
                    params = {
                        "p": p,
                        "w": w,
                        "lambda": format_partition(lam),
                        "label": format_class_label(lbl),
                    }
                    want.append(record("val", params, False, witness))
        assert want, (p, w)
        assert verify_val(p, w).failures() == want


def test_verify_main_suites():
    for p, w, rho in ((2, 2, ()), (2, 3, ()), (3, 2, ()), (2, 2, (1,)), (3, 1, (2,))):
        rep = verify_main(p, w, rho)
        assert rep.ok, rep.failures()
        assert rep.records
        run = {"p": p, "w": w, "core": ",".join(map(str, rho))}
        assert all(r["parameters"].items() >= run.items() for r in rep.records)


def test_verify_val_suites():
    for p, w in ((2, 2), (2, 3), (3, 2)):
        rep = verify_val(p, w)
        assert rep.ok, rep.failures()


def test_verify_heights_suites():
    for p, w, rho in ((2, 2, ()), (2, 3, ()), (3, 2, ()), (3, 2, (1,))):
        rep = verify_heights(p, w, rho)
        assert rep.ok, rep.failures()


def test_verify_uniqueness_counts():
    rep = verify_uniqueness(2, 2)
    assert rep.ok
    assert len(rep.records) == 25


def test_verify_diagram_suites():
    for p, w, rho in ((2, 2, ()), (3, 2, ()), (2, 3, ())):
        rep = verify_diagram(p, w, rho)
        assert rep.ok, rep.failures()


# Every (p, w, core) at which tier-1 runs verify_diagram, here or in the
# acceptance criteria, and cored and w >= p cases of the wreath index map.
DIAGRAM_CASES = (
    (2, 2, ()), (2, 3, ()), (2, 4, ()), (3, 2, ()), (3, 3, ()), (5, 2, ()),
    (2, 2, (1,)), (2, 3, (2, 1)), (3, 2, (1,)), (3, 2, (1, 1)),
    (3, 3, (1,)), (2, 4, (1,)), (3, 4, ()), (5, 2, (1,)),
)


def test_verify_diagram_matches_the_whole_row_route():
    # The whole-row route decomposes each adjoined character against every
    # irreducible of the smaller group and pushes whole rows down.
    for p, w, rho in DIAGRAM_CASES:
        assert verify_diagram(p, w, rho).records == diagram_report(p, w, rho).records, (p, w, rho)


def test_verify_lemma_f_suites():
    for p, w in ((2, 2), (2, 3), (3, 2)):
        rep = verify_lemma_f(p, w)
        assert rep.ok, rep.failures()


def test_verify_heights_fails_on_a_wrong_tower_height(monkeypatch):
    real = isometry.height_by_tower
    for p, w, rho in ((2, 2, ()), (3, 2, (1,))):
        first = partitions_with_core(p * w + sum(rho), rho, p)[0]
        monkeypatch.setattr(isometry, "height_by_tower", lambda lam, p_: real(lam, p_) + (lam == first))
        h = real(first, p)
        params = {"p": p, "w": w, "core": format_partition(rho), "lambda": format_partition(first)}
        witness = {"tower": h + 1, "valuation": h, "wreath": h}
        assert verify_heights(p, w, rho).failures() == [record("heights", params, False, witness)], (p, w, rho)


def test_verify_uniqueness_fails_on_two_equal_restrictions(monkeypatch):
    # The second member restricts like the first, so their difference
    # vanishes on every label and that one pair fails.
    real = isometry.skew_row
    for p, w in ((2, 2), (3, 2)):
        first, second = partitions_with_core(p * w, (), p)[:2]
        monkeypatch.setattr(isometry, "skew_row", lambda lam, mu, taus: real(first if lam == second else lam, mu, taus))
        params = {"p": p, "w": w, "lambda1": format_partition(first), "lambda2": format_partition(second), "sign": "-"}
        assert verify_uniqueness(p, w).failures() == [record("unique", params, False)], (p, w)


def test_one_copied_pushdown_row_fails_every_verb_that_reads_it(monkeypatch):
    # main, val, unique and transfer's forward records read one pushdown,
    # pushdown_to_wreath.  With the second member's row a copy of the
    # first's, each verb fails, and only on the second member: main and val
    # at its own records, unique at the pair of the two, transfer at its
    # forward record.
    real = isometry.pushdown_to_wreath

    def copied(p_, w_, rho_, s):
        labels, members, rows = real(p_, w_, rho_, s)
        return labels, members, [rows[0] if lam == members[1] else row for lam, row in zip(members, rows)]

    monkeypatch.setattr(isometry, "pushdown_to_wreath", copied)
    monkeypatch.setattr(perfect, "pushdown_to_wreath", copied)
    for p, w in ((2, 2), (3, 2)):
        _, members, rows = real(p, w, (), w)
        first, second = (format_partition(lam) for lam in members[:2])
        assert rows[0] != rows[1], (p, w)
        main = verify_main(p, w, ()).failures()
        assert main and all(r["parameters"]["lambda"] == second for r in main), (p, w)
        val = verify_val(p, w).failures()
        assert val and all(r["parameters"]["lambda"] == second for r in val), (p, w)
        params = {"p": p, "w": w, "lambda1": first, "lambda2": second, "sign": "-"}
        assert verify_uniqueness(p, w).failures() == [record("unique", params, False)], (p, w)
        params = {"p": p, "w": w, "core": "", "lambda": second, "map": "forward"}
        assert perfect.verify_transfer(p, w, ()).failures() == [record("transfer", params, False)], (p, w)


def test_verify_diagram_fails_on_a_negated_image(monkeypatch):
    # With the first member's image negated, its right square still commutes
    # at alpha = () (both sides negate), and fails wherever adjunction
    # leaves it nonzero: the block route reads the smaller block's true
    # images, the wreath route the negated one.
    real = isometry.isometry_image
    for p, w, rho in ((2, 2, ()), (3, 2, ())):
        first = partitions_with_core(p * w + sum(rho), rho, p)[0]

        def negated(lam, r, p_):
            return real(lam, r, p_).scaled(-1 if lam == first else 1)

        monkeypatch.setattr(isometry, "isometry_image", negated)
        monkeypatch.setattr(row_reference, "isometry_image", negated)
        rep = verify_diagram(p, w, rho)
        assert rep.records == diagram_report(p, w, rho).records, (p, w, rho)
        failures = rep.failures()
        assert failures, (p, w, rho)
        for r in failures:
            params, witness = r["parameters"], r["witness"]
            assert (params["lambda"], params["square"]) == (format_partition(first), "right"), r
            assert params["alpha"] != "" and any(v != "0" for v in witness["via_block"]), r
            assert witness["via_wreath"] == [str(-int(v)) for v in witness["via_block"]], r


def test_verify_diagram_fails_on_a_wrong_skew_value(monkeypatch):
    # The first member's skew values are off by one.  At alpha = () the
    # smaller block is the block itself, so its pushdown carries the same
    # error and the left square holds; at every other alpha only the first
    # member's own left record reads the wrong values.  The whole-row route
    # reads no skew value, and its left square passes whatever they are.
    real = isometry.skew_row
    for p, w, rho in ((2, 2, (1,)), (3, 2, (2,)), (2, 2, (2, 1))):
        first = partitions_with_core(p * w + sum(rho), rho, p)[0]
        monkeypatch.setattr(isometry, "skew_row", lambda lam, mu, taus: [v + (lam == first) for v in real(lam, mu, taus)])
        failing = [r["parameters"] for r in verify_diagram(p, w, rho).failures()]
        alphas = [format_partition(a) for m in range(1, w + 1) for a in enumerate_partitions(m)]
        want = [{"alpha": a, "lambda": format_partition(first), "square": "left"} for a in alphas]
        assert [{k: f[k] for k in ("alpha", "lambda", "square")} for f in failing] == want, (p, w, rho)
        assert diagram_report(p, w, rho).ok, (p, w, rho)


def test_verify_diagram_fails_on_a_component_outside_the_smaller_block(monkeypatch):
    # The first member's character also carries a member of another block,
    # of the same size and of weight at least w.  Adjoining p * alpha leaves
    # that member's part off the smaller block, so the first member's right
    # record fails at every alpha != (), and its witness is the first class
    # where that part is nonzero.  (At alpha = () the smaller block is the
    # block itself, whose rows then include the carried one.)
    real = isometry.irr_class_function
    for p, w, rho, elsewhere in ((2, 2, (2, 1), (1,)), (3, 2, (2,), (1, 1))):
        n = p * w + sum(rho)
        first = partitions_with_core(n, rho, p)[0]
        other = partitions_with_core(n, elsewhere, p)[0]

        def carried(lam):
            row = real(lam)
            if lam != first:
                return row
            return ClassFunction(row.space, tuple(a + b for a, b in zip(row.values, real(other).values)))

        monkeypatch.setattr(isometry, "irr_class_function", carried)
        run = {"p": p, "w": w, "core": format_partition(rho)}
        want = []
        for m in range(1, w + 1):
            for alpha in enumerate_partitions(m):
                stretched = scale(p, alpha)
                tau = next(t for t in enumerate_partitions(n - p * m) if character_value(other, sqcup(stretched, t)))
                params = dict(run, alpha=format_partition(alpha), square="right", **{"lambda": format_partition(first)})
                want.append(record("diagram", params, False, {"outside_block": True, "class": format_partition(tau)}))
        failures = verify_diagram(p, w, rho).failures()
        assert all(r["parameters"]["lambda"] == format_partition(first) for r in failures), (p, w, rho)
        assert [r for r in failures if r["parameters"]["alpha"]] == want, (p, w, rho)


def test_verify_lemma_f_fails_on_a_flipped_bead_sign(monkeypatch):
    # The expansion changes sign for the first member, so its record fails
    # at the first nonzero value of its tensor.
    real = isometry.p_sign
    for p, w in ((2, 2), (3, 2)):
        first = partitions_with_core(p * w, (), p)[0]

        def flipped(lam, rho, p_):
            return real(lam, rho, p_) * (-1 if lam == first else 1)

        monkeypatch.setattr(isometry, "p_sign", flipped)
        (alpha, beta), val = next((key, v) for key, v in isometry.f_tensor(first, p).items() if v)
        witness = {"alpha": format_partition(alpha), "beta": format_partition(beta), "direct": val, "expansion": -val}
        params = {"p": p, "w": w, "lambda": format_partition(first)}
        assert verify_lemma_f(p, w).failures() == [record("lemma_f", params, False, witness)], (p, w)


def test_verify_centp_small():
    cases = (
        (2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1), (3, 1, 0), (3, 1, 1),
        (2, 4, 1), (3, 3, 1), (3, 4, 0), (5, 2, 0), (5, 2, 1),
    )
    for p, w, e in cases:
        rep = verify_centp(p, w, e)
        assert rep.ok, (p, w, e, rep.failures())


def test_compute_W_small_and_guard():
    # The group-order guard is the CLI's (test_guard_exit_three); the
    # library scans S_9 when asked.
    assert compute_W(3, 2, 3) == {lbl: in_U_s(lbl, 3, 2) for lbl in enumerate_wreath_classes(3, 2)}
    assert compute_W(2, 1, 1) == {
        ((1, (1, 1)),): False,
        ((1, (2,)),): True,
    }


def cycle_type(g):
    seen, parts = set(), []
    for i in range(len(g)):
        if i not in seen:
            j, length = i, 0
            while j not in seen:
                seen.add(j)
                j, length = g[j], length + 1
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def reference_centralizer_scan(hp, p: int, w: int):
    """Scan all of S_n for the centralizer of hp, stopping at the first
    element outside the block subgroup times the tail (the scan that the
    centralizer walk replaced)."""
    n = len(hp)
    count = 0
    for g in itertools.permutations(range(n)):
        for i in range(n):
            if g[hp[i]] != hp[g[i]]:
                break
        else:
            if not _in_wreath_times_tail(g, p, w):
                return False, None
            count += 1
    return True, count


def test_centralizer_scan_counts_the_centralizer():
    for p, w in ((2, 3), (3, 2)):
        for e in range(3):
            insides = 0
            for label in enumerate_wreath_classes(p, w):
                hp = p_part_perm(label_representative(label, p, w, e), p)
                inside, count = _centralizer_scan(hp, p, w)
                assert (inside, count) == reference_centralizer_scan(hp, p, w), (p, w, e, label)
                if inside:
                    insides += 1
                    assert count == centralizer_order_sn(cycle_type(hp))
            assert insides


def _perm_mul(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_pow(g, m: int):
    out = tuple(range(len(g)))
    base = g
    while m:
        if m & 1:
            out = _perm_mul(base, out)
        base = _perm_mul(base, base)
        m >>= 1
    return out


def _perm_order(g) -> int:
    return lcm(*cycle_type(g))


def reference_p_part(g, p: int):
    """g to the power q * (q^-1 mod p^k), where g has order p^k * q."""
    o = _perm_order(g)
    pk = 1
    while o % (pk * p) == 0:
        pk *= p
    q = o // pk
    return _perm_pow(g, q * pow(q, -1, pk))


def test_p_part_matches_powering():
    for p in (2, 3, 5):
        for n in range(7):
            for g in itertools.permutations(range(n)):
                assert p_part_perm(g, p) == reference_p_part(g, p), (g, p)


def test_p_part_properties():
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import given, settings

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))),
        st.sampled_from((2, 3, 5, 7)),
    )
    def check(g, p):
        h = p_part_perm(tuple(g), p)
        assert _perm_mul(g, h) == _perm_mul(h, g)
        order = _perm_order(h)
        while order % p == 0:
            order //= p
        assert order == 1
        h_inv = [0] * len(h)
        for i, x in enumerate(h):
            h_inv[x] = i
        assert _perm_order(_perm_mul(g, h_inv)) % p

    check()


def test_central_count_fails_when_the_scan_stops_early(monkeypatch):
    monkeypatch.setattr(isometry, "_centralizer_scan", lambda hp, p, w: (False, None))
    rep = verify_centp(2, 1, 0)
    central = rep.records[-1]
    assert central["status"] == "fail"
    assert central["witness"] == {"expected": 2}


def test_wreath_irr_degree_is_the_identity_value():
    # the closed form against the character value at the identity class; at
    # (7,2) and (11,2) empty components sit beside non-hook base irreducibles,
    # so a skip that drops a nonempty component fails
    for p, w in ((2, 4), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)):
        ident = identity_label(p, w)
        for phi in enumerate_irr_wreath(p, w):
            degree = wreath_irr_degree(w, zip(enumerate_partitions(p), phi))
            assert [degree] == zeta_row(p, induction_factors(irr_base_rows(p), phi), [ident])
    with pytest.raises(ValueError):
        wreath_irr_degree(2, zip(enumerate_partitions(2), ((1,), ())))


def test_degrees_agree_mod_p_across_the_bijection():
    """deg(lam)_{p'} = eps * c_rho * deg(zeta_phi)_{p'} (mod p), where x_{p'}
    is the part of x prime to p, (eps, phi) is lam's signed image and
    c_rho = C(n, |rho|)_{p'} * deg(rho)_{p'}.  This is an observation with
    the shape of the Isaacs-Navarro refinement of McKay, not the paper's
    claim.  It is checked at every p-core of at most 6 boxes for p in
    3, 5, 7, with 1 <= w <= 3 and n <= 24, and at every Scopes-reduced core
    of (3, 2 <= w <= 4) and (5, 2).  A flipped sign breaks it: both signs
    would need p to divide 2 * deg(lam)_{p'}, and p is odd."""

    def check(cases):
        members = 0
        for p, w, rho in cases:
            for lam, sign, lhs, rhs in degree_residues(p, w, rho):
                members += 1
                assert (lhs - sign * rhs) % p == 0, (p, w, rho, lam)
                assert (lhs + sign * rhs) % p != 0, (p, w, rho, lam)
        return len(cases), members

    small = [
        (p, w, rho)
        for p in (3, 5, 7)
        for rho in (r for k in range(7) for r in enumerate_partitions(k) if is_core(r, p))
        for w in range(1, 4)
        if p * w + sum(rho) <= 24
    ]
    assert check(small) == (154, 4346)
    reduced = [(p, w, rho) for p, w in ((3, 2), (3, 3), (3, 4), (5, 2)) for rho in reduced_cores(p, w)]
    assert check(reduced) == (81, 2271)


def test_epsilon_spot_values():
    for lam, sign in (((4,), 1), ((3, 1), -1), ((2, 2), -1), ((2, 1, 1), -1), ((1, 1, 1, 1), 1)):
        assert isometry_row(lam, (), 2)[0] == sign


@pytest.mark.parametrize("p, w", [(2, 6), (2, 8), (3, 5), (3, 6), (5, 5), (7, 2), (7, 3)])
def test_pointwise_checks_past_the_cli_guard(p, w):
    # The CLI refuses these requests (p <= 5, w <= 4); the library runs them.
    # (2,6) to (5,5) sit in w >= p, (7,2) and (7,3) in the perfect range w < p.
    # At (5,5) only the non-empty core runs here; CI runs the empty core.
    reps = []
    if (p, w) != (5, 5):
        reps += [
            verify_main(p, w, ()),
            verify_val(p, w),
            verify_heights(p, w, ()),
            verify_uniqueness(p, w),
            verify_lemma_f(p, w),
        ]
    if (p, w) in ((2, 6), (3, 5), (5, 5), (7, 2)):
        reps += [verify_main(p, w, (1,)), verify_heights(p, w, (1,))]
    for rep in reps:
        assert rep.records and rep.ok, (rep.check, rep.failures()[:1])
