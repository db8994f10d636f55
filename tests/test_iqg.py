import os
import random
import subprocess
import sys

import pytest

import qweyl
from qweyl import iqg, operators, polymod, scalars
from qweyl.expressions import FreeExpr, qcomm
from qweyl.report import FAIL, PASS, SKIP
from qweyl.satake import Variant
from qweyl.scalars import qpow
from qweyl.weyl import reduce_word

J1 = Variant("jmath", 1)
J2 = Variant("jmath", 2)
J3 = Variant("jmath", 3)
I1 = Variant("imath", 1)
I2 = Variant("imath", 2)


def B(j):
    return FreeExpr.letter("B", j)


def K(j):
    return FreeExpr.letter("K", j)


def test_phi_letter_images_even():
    # images frozen by hand from the defining table at rank 2
    assert iqg.phi(J2, B(1)) == reduce_word(J2, (("x", 2), ("d", 1)))
    assert iqg.phi(J2, B(2)) == reduce_word(J2, (("x", 3), ("d", 2)))
    # upper-index B's reflect through rho: rho(3) = 2, rho(4) = 1
    assert iqg.phi(J2, B(3)) == reduce_word(J2, (("x", 2), ("d", 3)))
    assert iqg.phi(J2, B(4)) == reduce_word(J2, (("x", 1), ("d", 2)))
    assert iqg.phi(J2, K(1)) == reduce_word(J2, (("m", 1), ("mi", 2)))
    assert iqg.phi(J2, K(2)) == reduce_word(J2, (("m", 2), ("mi", 3)), qpow(-1))
    assert iqg.phi(J2, K(3)) == reduce_word(J2, (("mi", 2), ("m", 3)), qpow(1))
    assert iqg.phi(J2, K(4)) == reduce_word(J2, (("mi", 1), ("m", 2)))


def test_phi_letter_images_odd():
    # the middle node maps to the diagonal quadratic term
    assert iqg.phi(I2, B(3)) == reduce_word(I2, (("x", 3), ("d", 3)))
    assert iqg.phi(I2, B(2)) == reduce_word(I2, (("x", 3), ("d", 2)))
    assert iqg.phi(I2, B(4)) == reduce_word(I2, (("x", 2), ("d", 3)))
    # no q-power shows up on K images in the odd diagram
    assert iqg.phi(I2, K(2)) == reduce_word(I2, (("m", 2), ("mi", 3)))
    assert iqg.phi(I2, K(4)) == reduce_word(I2, (("mi", 2), ("m", 3)))


def test_phi_k_upper_matches_inversion():
    for v in (J1, J2, J3, I1, I2):
        for j in v.node_indices:
            if not v.k_legal(j) or j <= v.rank:
                continue
            prod = iqg.phi(v, K(j)) * iqg.phi(v, K(v.rho(j)))
            assert prod == reduce_word(v, ())


def test_phi_ki_is_inverse():
    for v in (J2, I2):
        for j in v.node_indices:
            if not v.k_legal(j):
                continue
            prod = iqg.phi(v, K(j)) * iqg.phi(v, FreeExpr.letter("Ki", j))
            assert prod == reduce_word(v, ())


def test_phi_rejects_illegal_k():
    with pytest.raises(ValueError, match="K3 illegal: rho fixes node 3"):
        iqg.phi(I2, K(3))
    with pytest.raises(ValueError, match="index out of range: B5"):
        iqg.phi(J2, B(5))
    iqg.validate_iletter(I2, "K", 4)
    with pytest.raises(ValueError, match="K2 illegal"):
        iqg.validate_iletter(I1, "K", 2)


def test_tau_prime_top_index_even():
    # frozen column of tau'_{2,+1} at the even diagram of rank 2
    s = iqg.tau_subst(J2, 2, 1, "prime")
    assert s.image(("B", 2)) == FreeExpr.word((("K", 2), ("B", 2)))
    assert s.image(("B", 3)) == FreeExpr.word((("B", 3), ("K", 3)))
    assert s.image(("B", 1)) == qcomm(qcomm(B(1), B(2), 1), B(3), 1).scale(
        qpow(-1)
    ) - FreeExpr.word((("K", 2), ("B", 1)))
    assert s.image(("B", 4)) == qcomm(qcomm(B(4), B(3), 1), B(2), 1).scale(
        qpow(-1)
    ) - FreeExpr.word((("B", 4), ("K", 3)))
    # at the top index every K is fixed
    for j in (1, 2, 3, 4):
        assert s.image(("K", j)) == K(j)


def test_tau_generic_even():
    s = iqg.tau_subst(J2, 1, 1, "prime")
    assert s.image(("B", 1)) == -FreeExpr.word((("B", 4), ("K", 4)))
    assert s.image(("B", 4)) == -FreeExpr.word((("K", 1), ("B", 1)))
    assert s.image(("B", 2)) == qcomm(B(1), B(2), -1)
    assert s.image(("B", 3)) == qcomm(B(3), B(4), 1)
    assert s.image(("K", 1)) == K(4)
    assert s.image(("K", 2)) == FreeExpr.word((("K", 1), ("K", 2)))
    # upper K images come from inverting the lower ones
    assert s.image(("K", 3)) == FreeExpr.word((("K", 3), ("K", 4)))
    assert s.image(("K", 4)) == K(1)
    d = iqg.tau_subst(J2, 1, 1, "doubleprime")
    assert d.image(("B", 1)) == -FreeExpr.word((("Ki", 1), ("B", 4)))
    assert d.image(("B", 4)) == -FreeExpr.word((("B", 1), ("Ki", 4)))
    assert d.image(("B", 2)) == qcomm(B(2), B(1), 1)
    assert d.image(("B", 3)) == qcomm(B(4), B(3), -1)


def test_pinned_index_kind_independent():
    # at the pinned index T, tau and tcal each have one operator for both kinds
    for e in (1, -1):
        p = iqg.tau_subst(I1, 2, e, "prime")
        assert p.image(("B", 1)) == qcomm(B(2), B(1), -e)
        assert p.image(("B", 3)) == qcomm(B(3), B(2), e)
        assert p.image(("B", 2)) == B(2)
    for kind in ("jmath", "imath"):
        for rank in range(1, 7):
            v = Variant(kind, rank)
            i = v.bmax
            for e in (1, -1):
                for build in (operators.braid_op, iqg.tau_subst):
                    p = build(v, i, e, "prime")
                    d = build(v, i, e, "doubleprime")
                    assert p.images.keys() == d.images.keys()
                    for letter in p.images:
                        assert p.image(letter) == d.image(letter), (v, e, letter)
                for a in polymod.grid(v, 3):
                    assert polymod._tcal_point(v, i, e, "prime", a) == (
                        polymod._tcal_point(v, i, e, "doubleprime", a)
                    ), (v, e, a)


def test_tau_doubly_adjacent_odd():
    # at the odd diagram the node below the fixed one touches both i and rho(i)
    s = iqg.tau_subst(I2, 2, 1, "prime")
    expected = qcomm(B(2), qcomm(B(3), B(4), 1), -1) + FreeExpr.word(
        (("B", 3), ("K", 4))
    )
    assert s.image(("B", 3)) == expected
    d = iqg.tau_subst(I2, 2, 1, "doubleprime")
    expected_d = qcomm(qcomm(B(2), B(3), -1), B(4), 1) + FreeExpr.word(
        (("B", 3), ("Ki", 4))
    )
    assert d.image(("B", 3)) == expected_d


def test_tau_k_images_invert_consistently():
    for v in (J2, I2, J3):
        for kind in iqg.BRAID_KINDS:
            for i in v.braid_indices:
                s = iqg.tau_subst(v, i, 1, kind)
                ph = iqg.phi_spec(v)
                for j in v.node_indices:
                    if not v.k_legal(j):
                        continue
                    prod = ph.apply_free(
                        s.image(("K", j)) * s.image(("K", v.rho(j)))
                    )
                    assert prod == reduce_word(v, ()), (v, kind, i, j)


def test_omega_subst_images():
    om = iqg.omega_subst(J2)
    assert om.image(("B", 1)) == B(4)
    assert om.image(("K", 2)) == K(3)
    assert om.antimultiplicative and om.bar_twist
    # anti with bar twist: coefficients flip q -> q^-1 and products reverse
    out = om.apply((B(1) * B(2)).scale(qpow(3)))
    assert out == (B(3) * B(4)).scale(qpow(-3))


def test_psi_subst_images():
    ps = iqg.psi_subst(J2)
    assert ps.image(("B", 2)) == B(2)
    assert ps.image(("K", 1)) == K(4)
    assert ps.image(("K", 2)) == K(3).scale(qpow(-1))
    assert ps.image(("K", 3)) == K(2).scale(qpow(1))
    assert not ps.bar_twist and ps.antimultiplicative
    psi_odd = iqg.psi_subst(I2)
    assert psi_odd.image(("K", 2)) == K(4)
    assert psi_odd.image(("K", 4)) == K(2)


def test_fuse_matches_literal_composition():
    v = J2
    ph = iqg.phi_spec(v)
    t1 = iqg.tau_subst(v, 1, 1, "prime")
    t2 = iqg.tau_subst(v, 2, -1, "doubleprime")
    fused = iqg.fuse(iqg.fuse(ph, t1), t2)
    for letter in iqg.iqg_letters(v):
        literal = ph.apply_free(t1.apply(t2.image(letter)))
        assert fused.image(letter) == literal, letter


def test_relation_instance_counts():
    # one kk per legal node, one kb per legal node x node, comm for distant
    # pairs, serre for adjacent ordered pairs
    rels = iqg.iu_relation_instances(J2)
    ids = [r[0] for r in rels]
    assert len(ids) == len(set(ids))
    assert sum(1 for i in ids if i.startswith("kk/")) == 4
    assert sum(1 for i in ids if i.startswith("kb/")) == 16
    assert sum(1 for i in ids if i.startswith("serre/")) == 6
    assert sum(1 for i in ids if i.startswith("comm/")) == 3


def test_serre_correction_terms():
    rels = {r[0]: r for r in iqg.iu_relation_instances(J2)}
    two = qpow(1) + qpow(-1)
    _, _, _, rhs = rels["serre/i=2,j=3"]
    corr = K(2).scale(qpow(-1)) + K(3).scale(qpow(-1) * qpow(2))
    assert rhs == -(B(2) * corr).scale(two)
    _, _, _, rhs34 = rels["serre/i=3,j=2"]
    corr34 = K(3).scale(qpow(-1) * qpow(-1)) + K(2).scale(qpow(2))
    assert rhs34 == -(B(3) * corr34).scale(two)
    # the fixed node contributes the linear term instead
    rels_odd = {r[0]: r for r in iqg.iu_relation_instances(I2)}
    _, _, _, rhs_fix = rels_odd["serre/i=3,j=2"]
    assert rhs_fix == B(2)
    _, _, _, rhs_plain = rels_odd["serre/i=1,j=2"]
    assert rhs_plain == FreeExpr.zero()


def test_phi_relations_suite_passes():
    for v in (J1, J2, I1, I2):
        checks = iqg.check_phi_relations(v)
        assert checks and all(c.status == PASS for c in checks), v


def test_intertwine_suite_passes():
    for v in (J1, J2, I1, I2):
        for e in (1, -1):
            checks = iqg.check_intertwine(v, e)
            by_id = {c.id: c for c in checks}
            for c in checks:
                assert c.status in (PASS, SKIP), (v, e, c.id, c.lhs, c.rhs)
            psi_check = by_id["intertwine/psi-Psi"]
            assert psi_check.status == SKIP
            if v.kind == "jmath":
                assert "= phi o Psi holds" in psi_check.description
            else:
                assert "does not hold" in psi_check.description


def test_intertwine_pinned_example():
    for e in (1, -1):
        checks = iqg.check_intertwine(J2, e)
        by_id = {c.id: c for c in checks}
        assert by_id["intertwine/pinned-example"].status == PASS
    checks_j1 = iqg.check_intertwine(J1, 1)
    by_id = {c.id: c for c in checks_j1}
    assert by_id["intertwine/pinned-example"].status == SKIP


def test_intertwine_fuses_no_pair_twice(monkeypatch):
    fuse = iqg.fuse
    seen = []

    def counting(h, s):
        seen.append((h.label, s.label))
        return fuse(h, s)

    monkeypatch.setattr(iqg, "fuse", counting)
    for v in (J3, Variant("imath", 3)):
        for e in (1, -1):
            seen.clear()
            iqg.check_intertwine(v, e)
            assert seen and len(seen) == len(set(seen)), (v, e)


def test_isubst_apply_free_is_apply():
    s = iqg.tau_subst(J2, 1, 1, "prime")
    expr = B(1) * K(2) - B(3).scale(qpow(2))
    assert isinstance(s.apply_free(expr), FreeExpr)
    assert s.apply_free(expr) == s.apply(expr)
    assert str(s.apply_free(B(1))) == str(s.apply(B(1))) == "-B4 K4"


def test_phi_reports_the_first_bad_letter_under_every_hash_seed():
    # letters are checked in word order, never in set order
    src = os.path.dirname(os.path.dirname(os.path.abspath(qweyl.__file__)))
    code = (
        "from qweyl.expressions import FreeExpr\n"
        "from qweyl.iqg import phi\n"
        "from qweyl.satake import Variant\n"
        "try:\n"
        "    phi(Variant('jmath', 1), FreeExpr.word((('B', 7), ('K', 9), ('Q', 1))))\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    for seed in range(1, 7):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        assert out == "index out of range: B7 (nodes run 1..2)\n", seed


def test_intertwine_detects_wrong_table():
    # flipping e in one tau must break the match with the braid operator
    v = J2
    ph = iqg.phi_spec(v)
    t = operators.braid_op(v, 1, 1, "prime")
    s_bad = iqg.tau_subst(v, 1, -1, "prime")
    mismatches = [
        l
        for l in iqg.iqg_letters(v)
        if t.apply(ph.image(l)) != ph.apply_free(s_bad.image(l))
    ]
    assert mismatches


def test_tau_validation_errors():
    with pytest.raises(ValueError, match="unknown kind"):
        iqg.tau_subst(J2, 1, 1, "triple")
    with pytest.raises(ValueError, match="e must be"):
        iqg.tau_subst(J2, 1, 0, "prime")
    with pytest.raises(ValueError, match="braid index out of range"):
        iqg.tau_subst(J2, 3, 1, "prime")
    with pytest.raises(ValueError, match="no image for letter"):
        iqg.tau_subst(J2, 1, 1, "prime").image(("B", 9))


def test_missing_letter_images_are_named():
    # the first letter of a word and a later one are looked up alike
    for spec, known, unknown in (
        (iqg.phi_spec(J2), ("B", 1), ("x", 1)),
        (iqg.tau_subst(J2, 1, 1, "prime"), ("B", 1), ("x", 1)),
    ):
        for word in ((unknown, known), (known, unknown)):
            with pytest.raises(ValueError, match="no image for letter x1"):
                spec.apply_free(FreeExpr.word(word))


def test_varsigma_values():
    assert iqg.varsigma(J2, 2) == scalars.ONE
    assert iqg.varsigma(J2, 3) == qpow(-1)
    assert iqg.varsigma(J2, 1) == scalars.ZERO
    assert iqg.varsigma(J2, 4) == scalars.ZERO
    with pytest.raises(ValueError, match="node out of range"):
        iqg.varsigma(J2, 5)


def test_substitutions_carry_constant_terms():
    # the empty word maps to its coefficient, bar-twisted under Omega
    v = J2
    expr = FreeExpr.from_scalar(qpow(2)) + B(1)
    assert str(iqg.omega_subst(v).apply(expr)) == "B4 + q^-2"
    assert str(iqg.psi_subst(v).apply(expr)) == "B1 + q^2"
    const = FreeExpr.from_scalar(qpow(3) + scalars.ONE)
    assert iqg.tau_subst(v, 1, 1, "prime").apply(const) == const
    assert iqg.tau_subst(v, 1, 1, "prime").apply(FreeExpr.zero()) == FreeExpr.zero()


def test_substitution_outputs_share_no_terms_with_letter_images():
    # a one-letter word with coefficient 1 maps to its letter image's terms;
    # the output must hold a copy, or mutating it would rewrite the table
    v = J2
    cases = (
        (iqg.phi_spec(v), B(1)),
        (operators.braid_op(v, 1, 1, "prime"), FreeExpr.letter("x", 2)),
        (iqg.tau_subst(v, 1, 1, "prime"), B(1)),
        (iqg.omega_subst(v), K(1)),
    )
    for spec, expr in cases:
        (((letter,), _),) = expr.terms.items()
        before = {l: dict(img.terms) for l, img in spec.images.items()}
        out = spec.apply_free(expr)
        assert out == spec.image(letter), spec.label
        for key in list(out.terms):
            out.terms[key] = qpow(7)
        out.terms[("extra",)] = scalars.ONE
        assert {l: img.terms for l, img in spec.images.items()} == before, spec.label


def test_isubst_word_images_start_from_the_scaled_first_image():
    # as for EndoSpec: a word maps to coeff (bar-twisted if asked) times the
    # product of its letter images, reversed if antimultiplicative
    rng = random.Random(1618)
    qd = scalars.QScalar((0, 1), (-1, 0, 1))
    for v in (J2, I2):
        letters = iqg.iqg_letters(v)
        i, j = v.braid_indices[0], v.braid_indices[-1]
        specs = (
            iqg.omega_subst(v),
            iqg.psi_subst(v),
            iqg.tau_subst(v, i, 1, "prime"),
            iqg.tau_subst(v, j, -1, "doubleprime"),
        )
        for spec in specs:
            for coeff in (scalars.ONE, qpow(2), qd * scalars.from_int(-3)):
                for n in range(4):
                    word = tuple(rng.choice(letters) for _ in range(n))
                    c = coeff.bar() if spec.bar_twist else coeff
                    expected = FreeExpr.from_scalar(c)
                    for letter in reversed(word) if spec.antimultiplicative else word:
                        expected = expected * spec.image(letter)
                    got = spec.apply(FreeExpr.word(word, coeff))
                    assert got == expected, (spec.label, word, coeff)
