"""Brauer and projective data for the base group and induced assignments."""

import pytest

from blockiso import modular
from blockiso.modular import (
    brauer_labels,
    brauer_values,
    decomposition_matrix,
    enumerate_gibr,
    principal_gibr,
    projective_values,
    regular_wreath_classes,
    validate_base_modular,
    verify_orth,
    zeta_brauer,
    zeta_class_function,
    zeta_projective,
)
from blockiso.partitions import enumerate_partitions, format_multipartition
from blockiso.reporting import record
from blockiso.wreath import enumerate_irr_wreath, enumerate_wreath_classes, induction_factors, zeta_irr
from label_reference import principal_gibr_filter
from span_reference import span_generators


def test_base_biorthogonality():
    for p in (2, 3, 5, 7):
        validate_base_modular(p)
    with pytest.raises(ValueError):
        brauer_labels(4)


def test_label_counts_match_regular_classes():
    for p in (2, 3, 5, 7):
        assert len(brauer_labels(p)) == len([c for c in enumerate_partitions(p) if c != (p,)])


def test_labels_frozen():
    assert brauer_labels(2) == (("leg", 0),)
    assert brauer_labels(3) == (("leg", 0), ("leg", 1))
    assert brauer_labels(5) == (
        ("leg", 0),
        ("leg", 1),
        ("leg", 2),
        ("leg", 3),
        ("defect0", (3, 2)),
        ("defect0", (2, 2, 1)),
    )


def test_brauer_values_frozen():
    # classes in descending lex order; the p cycle column is padded with zero
    assert brauer_values(("leg", 0), 2) == (0, 1)
    assert brauer_values(("leg", 0), 3) == (0, 1, 1)
    assert brauer_values(("leg", 1), 3) == (0, -1, 1)


def test_projective_vanishes_on_singular():
    for p in (2, 3, 5):
        idx = list(enumerate_partitions(p)).index((p,))
        for label in brauer_labels(p):
            assert projective_values(label, p)[idx] == 0


def test_gibr_counts_match_regular_wreath_classes():
    for p, w in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        assert len(enumerate_gibr(p, w)) == len(regular_wreath_classes(p, w))


def test_principal_filter():
    full = enumerate_gibr(5, 1)
    principal = principal_gibr(5, 1)
    assert len(full) == 6
    assert len(principal) == 4
    for a in principal:
        assert a[4] == () and a[5] == ()


def test_principal_gibr_matches_the_leg_filter():
    for p in (2, 3, 5, 7):
        for w in range(5):
            assert principal_gibr(p, w) == principal_gibr_filter(enumerate_gibr(p, w), p), (p, w)
    with pytest.raises(ValueError):
        principal_gibr(4, 1)


def test_orthogonality_reports():
    for p, w in ((2, 2), (2, 3), (3, 2), (3, 5), (7, 2), (2, 8)):
        rep = verify_orth(p, w)
        assert rep.ok, rep.failures()


def test_verify_orth_fails_on_a_spoiled_brauer_tuple(monkeypatch):
    # The first Brauer tuple doubled: its Gram entry with its own projective
    # tuple is 2, and every other entry stays.
    real = modular.zeta_brauer
    for p, w in ((2, 2), (3, 2)):
        first = enumerate_gibr(p, w)[0]

        def doubled(p_, w_, psi):
            return real(p_, w_, psi).scaled(2 if psi == first else 1)

        monkeypatch.setattr(modular, "zeta_brauer", doubled)
        text = format_multipartition(first)
        params = {"p": p, "w": w, "psi": text, "phi": text}
        assert verify_orth(p, w).failures() == [record("orth", params, False, {"gram": "2"})], (p, w)


def test_decomposition_matrix_frozen():
    assert decomposition_matrix(2, 2) == [
        [1, 0],
        [0, 1],
        [1, 1],
        [1, 0],
        [0, 1],
    ]


def test_decomposition_matrix_integral():
    for p, w in ((2, 3), (3, 2)):
        mat = decomposition_matrix(p, w)
        assert all(isinstance(x, int) for row in mat for x in row)
        # every ordinary row must involve at least one modular column
        assert all(any(row) for row in mat)


def test_zeta_brauer_extension_independent():
    # values away from base p cycles do not see the padding entry
    for p, w in ((2, 2), (3, 2)):
        idx = list(enumerate_partitions(p)).index((p,))

        def junk(label, q):
            vals = list(brauer_values(label, q))
            vals[idx] = 99
            return tuple(vals)

        for psi in enumerate_gibr(p, w):
            ref = zeta_brauer(p, w, psi)
            alt = zeta_class_function(p, w, induction_factors([junk(label, p) for label in brauer_labels(p)], psi))
            for lbl in regular_wreath_classes(p, w):
                assert ref.value(lbl) == alt.value(lbl)
            for lbl in enumerate_wreath_classes(p, w):
                if any(c == (p,) for _, c in lbl):
                    assert ref.value(lbl) == 0


def test_weight_zero_induced_functions_are_one():
    # With no factors the induced class function is the trivial character
    # of the trivial group: the value 1 on the one empty label.
    for p in (2, 3, 5):
        assert enumerate_wreath_classes(p, 0) == ((),)
        rows = [zeta_irr(p, 0, phi) for phi in enumerate_irr_wreath(p, 0)]
        rows += [zeta_brauer(p, 0, psi) for psi in enumerate_gibr(p, 0)]
        rows += [zeta_projective(p, 0, psi) for psi in enumerate_gibr(p, 0)]
        rows += span_generators(p, 0, [])
        assert len(rows) == 4
        assert all(xi.values == (1,) for xi in rows)
