"""Transfer, separation, and lattice behaviour of the signed bijection."""

from fractions import Fraction

import pytest

from blockiso import cli, isometry, modular, perfect
from blockiso.abacus import partitions_with_core
from blockiso.classfn import ClassFunction
from blockiso.isometry import block_basis, isometry_image, verify_diagram
from blockiso.partitions import enumerate_partitions, format_partition, sqcup
from blockiso.perfect import (
    I_mu,
    R_mu,
    build_mu,
    label_p_regular,
    perfectness_probe,
    tp_p,
    verify_perfproj,
    verify_sep,
    verify_transfer,
    verify_type,
)
from blockiso.reporting import record
from blockiso.symchar import irr_class_function
from blockiso.wreath import (
    enumerate_irr_wreath,
    enumerate_wreath_classes,
    format_class_label,
    zeta_irr,
)
from label_reference import principal_block_filter
from lattice_reference import perfproj_report
from row_reference import dense_mu, type_report


def test_tp_p_frozen():
    assert tp_p((4, 2, 1), 2) == (2, 1)
    assert tp_p((3, 1), 2) == ()
    assert tp_p((6, 3, 2), 3) == (2, 1)
    assert tp_p((), 5) == ()


def test_p_part_decomposition_recombines():
    for p in (2, 3):
        for n in range(0, 9):
            for tau in enumerate_partitions(n):
                part = tuple(x for x in tau if x % p == 0)
                reg = tuple(x for x in tau if x % p)
                assert all(x % p == 0 for x in part)
                assert all(x % p for x in reg)
                assert sqcup(part, reg) == tau
                assert tuple(x * p for x in tp_p(tau, p)) == part


def test_label_p_regular_frozen():
    assert label_p_regular(((1, (1, 1)),), 2)
    assert not label_p_regular(((1, (2,)),), 2)
    assert not label_p_regular(((2, (3,)), (1, (2, 1))), 3)
    assert label_p_regular(((2, (2, 1)),), 3)


def test_mu_matrix_frozen():
    assert build_mu(2, 1, ()) == [[2, 0], [0, 2]]


def test_mu_matrix_matches_dense_reference():
    for p, w, rho in ((2, 2, ()), (2, 3, (2, 1)), (3, 2, (1,)), (3, 3, (2,))):
        assert build_mu(p, w, rho) == dense_mu(p, w, rho), (p, w, rho)


def test_transform_recovers_images():
    for p, w, rho in ((2, 1, ()), (2, 2, ())):
        basis = block_basis(p, w, rho)[1:]
        n = p * w + sum(rho)
        for lam in partitions_with_core(n, rho, p):
            xi = irr_class_function(lam)
            image = isometry_image(lam, rho, p)
            assert R_mu(basis, xi, p, w).values == image.values
            back = I_mu(basis, image, n)
            assert back.values == xi.values


def test_transform_kills_other_blocks():
    # a character from a different block transforms to zero: for p = 2 and
    # n = 3 the core (1) block misses (2,1), which is its own core
    basis = block_basis(2, 1, (1,))[1:]
    xi = irr_class_function((2, 1))
    assert all(v == 0 for v in R_mu(basis, xi, 2, 1).values)


def test_verify_transfer():
    small = ((2, 2, ()), (3, 1, ()), (2, 2, (1,)), (3, 2, ()))
    cases = ((2, 8, ()), (3, 5, ()), (7, 2, ()), (3, 4, (1,)), (2, 6, (1,)), (7, 2, (1,)))
    for p, w, rho in small + cases:
        rep = verify_transfer(p, w, rho)
        assert rep.ok, rep.failures()


@pytest.mark.parametrize("shift", [0, 1])
def test_verify_transfer_fails_on_a_wrong_image(monkeypatch, shift):
    # Negated images (shift 0), or each member sent to the next one's image
    # (shift 1).  mu is built from the same wrong images, so R_mu still gives
    # them back; the forward records fail on the pushdown lam/rho instead.
    block = partitions_with_core(6, (), 3)
    wrong = {lam: block[(i + shift) % len(block)] for i, lam in enumerate(block)}
    sign = -1 if shift == 0 else 1
    monkeypatch.setattr(isometry, "isometry_image", lambda lam, rho, p: isometry_image(wrong[lam], rho, p).scaled(sign))
    rep = verify_transfer(3, 2, ())
    failed = [r["parameters"]["map"] for r in rep.failures()]
    assert failed == ["forward"] * 9 + ["inverse"] * 9, failed


def test_verify_sep():
    small = ((2, 1, ()), (2, 2, ()), (3, 1, ()), (2, 2, (1,)))
    cases = ((2, 8, ()), (3, 5, ()), (7, 2, ()), (3, 4, (1,)), (2, 6, (1,)), (7, 2, (1,)))
    for p, w, rho in small + cases:
        rep = verify_sep(p, w, rho)
        assert rep.ok, rep.failures()


def test_sep_and_type_fail_on_an_off_type_entry(monkeypatch):
    real_build_mu = build_mu

    def injected(p, w, rho, basis=None):
        # 1 at the identity class and the first label, whose p-multiplied
        # data differ
        rows = real_build_mu(p, w, rho, basis)
        rows[-1][0] += 1
        return rows

    monkeypatch.setattr(perfect, "build_mu", injected)
    for p, w, rho in ((3, 2, ()), (2, 3, ()), (3, 3, (1,))):
        identity = format_partition((1,) * (p * w + sum(rho)))
        first = format_class_label(enumerate_wreath_classes(p, w)[0])
        params = {"p": p, "w": w, "core": format_partition(rho), "class": identity, "label": first}
        assert verify_sep(p, w, rho).failures() == [record("sep", params, False, {"mu": 1})], (p, w, rho)
        failed = {
            (r["parameters"].get("class") or r["parameters"]["label"], r["parameters"]["side"])
            for r in verify_type(p, w, rho).failures()
        }
        assert failed == {(identity, "forward"), (first, "backward")}, (p, w, rho)


def test_verify_type():
    small = ((2, 2, ()), (3, 1, ()), (2, 2, (1,)))
    for p, w, rho in small + ((2, 8, ()), (3, 5, ()), (2, 6, (1,)), (3, 4, (1,)), (7, 2, (1,))):
        rep = verify_type(p, w, rho)
        assert rep.records and rep.ok, (p, w, rho, rep.failures()[:3])


def test_verify_type_matches_dense_projection_reference():
    # (2,6) core (1) has more classes than block members.
    for p, w, rho in ((3, 3, (2,)), (2, 4, (2, 1)), (5, 2, (1,)), (3, 4, ()), (2, 6, (1,))):
        assert verify_type(p, w, rho).records == type_report(p, w, rho).records, (p, w, rho)


def test_verify_type_fails_on_an_off_type_entry(monkeypatch):
    real_basis = isometry.block_basis

    def injected(p, w, rho):
        # the last block member's image gains 1 at the first label, so the
        # bicharacter gains that member's character in the first label's
        # column: nonzero at the identity class, whose type differs from the
        # first label's, so the identity's forward image and the first
        # label's backward image leave their strata.  The oracle reads the
        # same fault through build_mu.
        members, chis, images = real_basis(p, w, rho)
        return members, chis, images[:-1] + [(images[-1][0] + 1,) + images[-1][1:]]

    # Each reader looks block_basis up in its own module.
    monkeypatch.setattr(perfect, "block_basis", injected)
    monkeypatch.setattr(isometry, "block_basis", injected)
    for p, w, rho in ((3, 2, ()), (2, 3, ()), (3, 3, (1,))):
        rep = verify_type(p, w, rho)
        n = p * w + sum(rho)
        failed = {
            (r["parameters"].get("class") or r["parameters"]["label"], r["parameters"]["side"])
            for r in rep.failures()
        }
        first = format_class_label(enumerate_wreath_classes(p, w)[0])
        assert (format_partition((1,) * n), "forward") in failed, (p, w, rho)
        assert (first, "backward") in failed, (p, w, rho)
        assert rep.records == type_report(p, w, rho).records, (p, w, rho)
        # The same fault reaches the transfers: the last member's forward
        # image misses its pushdown, and the backward images pair against
        # the wrong row.  In the commuting squares only the right square
        # fails, and only where alpha is not empty: at alpha = () both of
        # its sides read the one wrong image.
        last = format_partition(real_basis(p, w, rho)[0][-1])
        maps = [(r["parameters"].get("lambda"), r["parameters"]["map"]) for r in verify_transfer(p, w, rho).failures()]
        assert maps[0] == (last, "forward") and {m for _, m in maps[1:]} == {"inverse"}, (p, w, rho)
        squares = verify_diagram(p, w, rho).failures()
        assert squares and all(r["parameters"]["square"] == "right" and r["parameters"]["alpha"] for r in squares)


def test_verify_perfproj():
    small = ((2, 2, ()), (2, 3, ()), (3, 2, ()), (2, 2, (1,)))
    cases = ((2, 7, ()), (3, 5, ()), (7, 2, ()), (2, 6, (1,)), (3, 4, (1,)), (7, 2, (1,)))
    for p, w, rho in small + cases:
        rep = verify_perfproj(p, w, rho)
        assert rep.ok, rep.failures()
        assert rep.records == perfproj_report(p, w, rho).records, (p, w, rho)


def _both_routes_fail_alike(p, w):
    rep = verify_perfproj(p, w, ())
    assert rep.records[-1]["status"] == "fail", (p, w)
    assert rep.records == perfproj_report(p, w, ()).records, (p, w)
    return rep


def test_perfproj_fails_alike_on_a_wrong_sign_or_target(monkeypatch):
    real_row = perfect.isometry_row
    for p, w in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (5, 2)):
        block = partitions_with_core(p * w, (), p)
        first, second, last = block[0], block[1], block[-1]

        def flipped(lam, rho, p):
            sign, psi = real_row(lam, rho, p)
            return (-sign if lam == first else sign), psi

        def swapped(lam, rho, p):
            other = {first: second, second: first}.get(lam, lam)
            return real_row(lam, rho, p)[0], real_row(other, rho, p)[1]

        def merged(lam, rho, p):
            # not injective: first takes last's target.  At p = 2 the two
            # are conjugate, and Y alone does not tell the maps apart.
            return real_row(last if lam == first else lam, rho, p)

        for mutant in (flipped, swapped, merged):
            monkeypatch.setattr(perfect, "isometry_row", mutant)
            _both_routes_fail_alike(p, w)
        monkeypatch.setattr(perfect, "isometry_row", real_row)


def test_perfproj_fails_alike_on_a_dropped_or_doubled_tuple(monkeypatch):
    """The other two ways the certificate can fail.  Without its first
    principal tuple Y loses a rank; with that tuple doubled Y keeps its rank
    and still vanishes p-singularly, but it is not saturated.  Either way
    only the final record fails, as in the kernel route."""
    real_principal, real_projective = modular.principal_gibr, modular.zeta_projective
    for p, w in ((2, 3), (3, 2), (3, 3), (5, 2)):
        first = real_principal(p, w)[0]

        def doubled(p_, w_, psi):
            hat = real_projective(p_, w_, psi)
            return hat.scaled(2) if psi == first else hat

        monkeypatch.setattr(modular, "principal_gibr", lambda p_, w_: real_principal(p_, w_)[1:])
        rep = _both_routes_fail_alike(p, w)
        final = rep.records[-1]["parameters"]
        assert final["rank_projective"] == final["rank_image"] - 1, (p, w)
        monkeypatch.setattr(modular, "principal_gibr", real_principal)

        monkeypatch.setattr(modular, "zeta_projective", doubled)
        rep = _both_routes_fail_alike(p, w)
        final = rep.records[-1]["parameters"]
        assert final["rank_projective"] == final["rank_image"], (p, w)
        assert len(rep.failures()) == 1, (p, w)
        monkeypatch.setattr(modular, "zeta_projective", real_projective)


def test_perfproj_fails_alike_on_a_non_principal_coefficient(monkeypatch):
    real_projective = modular.zeta_projective
    for p, w in ((5, 1), (5, 2), (7, 2)):
        irr = enumerate_irr_wreath(p, w)
        outside = next(phi for phi in irr if phi not in principal_block_filter(irr, p))
        first = modular.principal_gibr(p, w)[0]

        def spoiled(p_, w_, psi):
            hat = real_projective(p_, w_, psi)
            if psi != first:
                return hat
            extra = zeta_irr(p_, w_, outside).values
            return ClassFunction(hat.space, tuple(a + b for a, b in zip(hat.values, extra)))

        monkeypatch.setattr(modular, "zeta_projective", spoiled)
        rep = _both_routes_fail_alike(p, w)
        assert len(rep.failures()) == 2, (p, w)


def test_decomp_and_perfproj_share_one_integrality_check(monkeypatch, capsys):
    """With the first principal tuple halved, some decomposition number is
    a half: `decomposition_matrix` and `verify_perfproj` stop at the same
    check with the same message, and so do their commands."""
    real_projective = modular.zeta_projective
    for p, w in ((2, 2), (3, 2), (5, 2)):
        first = modular.principal_gibr(p, w)[0]

        def halved(p_, w_, psi):
            hat = real_projective(p_, w_, psi)
            return hat.scaled(Fraction(1, 2)) if psi == first else hat

        monkeypatch.setattr(modular, "zeta_projective", halved)
        messages = []
        for run in (lambda: modular.decomposition_matrix(p, w), lambda: verify_perfproj(p, w, ())):
            with pytest.raises(AssertionError) as err:
                run()
            messages.append(str(err.value))
        assert messages == ["decomposition number is not an integer"] * 2, (p, w)
        lines = []
        for argv in (["decomp"], ["verify", "perfproj"]):
            assert cli.main(argv + ["--p", str(p), "--w", str(w)]) == 4, (p, w, argv)
            lines.append(capsys.readouterr().err)
        assert lines == ["internal error: AssertionError: decomposition number is not an integer\n"] * 2, (p, w)
        monkeypatch.setattr(modular, "zeta_projective", real_projective)


def test_perfectness_probe_grid():
    expected = {
        (2, 1): True,
        (3, 1): True,
        (5, 1): True,
        (3, 2): True,
        (7, 2): True,
        (2, 2): False,
        (2, 3): False,
        (3, 3): False,
        (2, 8): False,
    }
    for (p, w), want in expected.items():
        rep = perfectness_probe(p, w, ())
        perfect = all(r["parameters"]["violations"] == 0 for r in rep.records)
        assert perfect == want, (p, w)
        # real data violates the criteria only at w >= p, where the records
        # are informational, so the probe passes everywhere on this grid
        assert rep.ok
    # a non-empty core at p = 7, where w < p and the records carry verdicts
    rep = perfectness_probe(7, 2, (1,))
    assert rep.records and rep.ok, rep.failures()[:3]
    assert all(r["parameters"]["violations"] == 0 for r in rep.records)


def test_probe_fails_on_a_violation_only_below_p(monkeypatch):
    real_build_mu = build_mu

    def injected(p, w, rho):
        # one entry at the identity class and the first (p-singular) label
        # breaks regularity, and divisibility since v_p(1) = 0
        rows = real_build_mu(p, w, rho)
        rows[-1][0] += 1
        return rows

    monkeypatch.setattr(perfect, "build_mu", injected)
    for p, w, fails in ((3, 2, True), (5, 1, True), (2, 2, False), (3, 3, False)):
        rep = perfectness_probe(p, w, ())
        counts = {r["parameters"]["criterion"]: r["parameters"]["violations"] for r in rep.records}
        assert counts["regularity"] >= 1 and counts["divisibility"] >= 1, (p, w)
        statuses = [r["status"] for r in rep.records]
        assert statuses == (["fail", "fail"] if fails else ["pass", "pass"]), (p, w)
