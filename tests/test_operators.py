"""Braid operator tables, omega/psi, and their verification suites."""

import pytest

from qweyl import operators, weyl
from qweyl.operators import (
    braid_op,
    check_braid_suite,
    check_omega_commutes,
    check_well_defined,
    omega_op,
    psi_op,
)
from qweyl.satake import Variant
from qweyl.scalars import qpow
from qweyl.weyl import (
    WeylElement,
    check_well_defined_one,
    generator_letters,
    identity_endo,
    reduce_word,
)

J2 = Variant("jmath", 2)
J1 = Variant("jmath", 1)
I1 = Variant("imath", 1)
I2 = Variant("imath", 2)


def gen(v, name, i):
    return WeylElement.generator(v, name, i)


def test_prime_table_special_jmath():
    # at the top jmath index: d_{r+1} -> q^e m_r^-2e d_{r+1}
    t = braid_op(J2, 2, 1, "prime")
    assert t.image(("d", 3)) == reduce_word(J2, (("mi", 2), ("mi", 2), ("d", 3)), qpow(1))
    assert t.image(("d", 2)) == reduce_word(
        J2, (("mi", 2), ("mi", 3), ("d", 2)), qpow(-2)
    )
    assert t.image(("x", 3)) == reduce_word(J2, (("m", 2), ("m", 2), ("x", 3)), qpow(-1))
    assert t.image(("x", 2)) == reduce_word(J2, (("m", 2), ("m", 3), ("x", 2)), qpow(1))
    # everything else is fixed, including every m
    for j in (1, 2, 3):
        assert t.image(("m", j)) == gen(J2, "m", j)
        assert t.image(("mi", j)) == gen(J2, "mi", j)
    assert t.image(("d", 1)) == gen(J2, "d", 1)
    assert t.image(("x", 1)) == gen(J2, "x", 1)


def test_prime_table_generic():
    t = braid_op(J2, 1, 1, "prime")
    assert t.image(("d", 2)) == reduce_word(J2, (("mi", 2), ("d", 1)), -qpow(-1))
    assert t.image(("d", 1)) == reduce_word(J2, (("mi", 1), ("d", 2)))
    assert t.image(("x", 2)) == reduce_word(J2, (("m", 2), ("x", 1)), -qpow(1))
    assert t.image(("x", 1)) == reduce_word(J2, (("m", 1), ("x", 2)))
    assert t.image(("m", 1)) == gen(J2, "m", 2)
    assert t.image(("m", 2)) == gen(J2, "m", 1)
    assert t.image(("mi", 1)) == gen(J2, "mi", 2)
    assert t.image(("m", 3)) == gen(J2, "m", 3)
    assert t.image(("d", 3)) == gen(J2, "d", 3)


def test_doubleprime_table_generic():
    # the sign and q-power sit on the opposite images compared to prime
    t = braid_op(J2, 1, 1, "doubleprime")
    assert t.image(("d", 2)) == reduce_word(J2, (("mi", 2), ("d", 1)))
    assert t.image(("d", 1)) == reduce_word(J2, (("mi", 1), ("d", 2)), -qpow(-1))
    assert t.image(("x", 2)) == reduce_word(J2, (("m", 2), ("x", 1)))
    assert t.image(("x", 1)) == reduce_word(J2, (("m", 1), ("x", 2)), -qpow(1))
    assert t.image(("m", 1)) == gen(J2, "m", 2)


def test_tables_special_imath():
    t = braid_op(I2, 3, 1, "prime")
    assert t.image(("x", 3)) == reduce_word(I2, (("m", 3), ("x", 3)), qpow(-1))
    assert t.image(("d", 3)) == reduce_word(I2, (("mi", 3), ("d", 3)))
    for j in (1, 2, 3):
        assert t.image(("m", j)) == gen(I2, "m", j)
    # the special column at i = r+1 is kind-independent at matching sign
    t2 = braid_op(I2, 3, 1, "doubleprime")
    for l in generator_letters(I2):
        assert t.image(l) == t2.image(l)


def test_e_flip_is_not_a_no_op():
    tp = braid_op(J2, 1, 1, "prime")
    tm = braid_op(J2, 1, -1, "prime")
    assert tp.image(("d", 2)) != tm.image(("d", 2))


def test_braid_index_validation():
    with pytest.raises(ValueError, match="braid index out of range"):
        braid_op(J2, 3, 1, "prime")
    with pytest.raises(ValueError, match="braid index out of range"):
        braid_op(I2, 4, 1, "prime")
    with pytest.raises(ValueError, match="unknown kind"):
        braid_op(J2, 1, 1, "tilde")
    with pytest.raises(ValueError, match="e must be"):
        braid_op(J2, 1, 2, "prime")
    braid_op(I2, 3, 1, "prime")


def test_omega_images_and_twist():
    om = omega_op(J2)
    assert om.apply(gen(J2, "x", 1)) == gen(J2, "d", 1)
    assert om.apply(gen(J2, "x", 1).scale(qpow(1))) == gen(J2, "d", 1).scale(qpow(-1))
    assert om.apply(gen(J2, "m", 2)) == gen(J2, "mi", 2)


def test_omega_squared_is_identity():
    for v in (J2, I2):
        om = omega_op(v)
        for l in generator_letters(v):
            assert om.apply(om.image(l)) == WeylElement.generator(v, *l)


def test_psi_images():
    ps = psi_op(J2)
    assert ps.image(("x", 1)) == gen(J2, "x", 1)
    assert ps.image(("x", 2)) == -gen(J2, "x", 2)
    assert ps.image(("d", 1)) == -gen(J2, "d", 1)
    assert ps.image(("d", 2)) == gen(J2, "d", 2)
    # m at the top index: q^-2 m^-1 in jmath, q^-1 m^-1 in imath
    assert ps.image(("m", 3)) == gen(J2, "mi", 3).scale(qpow(-2))
    assert ps.image(("m", 1)) == gen(J2, "mi", 1).scale(qpow(-1))
    assert ps.image(("mi", 3)) == gen(J2, "m", 3).scale(qpow(2))
    psi_i = psi_op(I2)
    assert psi_i.image(("m", 3)) == gen(I2, "mi", 3).scale(qpow(-1))


def test_well_defined_suite_passes():
    for v in (J1, J2, I1, I2):
        for e in (1, -1):
            checks = check_well_defined(v, e)
            bad = [c for c in checks if c.status != "pass"]
            assert bad == [], bad[:3]


def test_well_defined_suite_builds_the_relations_once(monkeypatch):
    built = []
    real = weyl.relation_instances

    def counting(v):
        built.append(v)
        return real(v)

    monkeypatch.setattr(operators, "relation_instances", counting)
    monkeypatch.setattr(weyl, "relation_instances", counting)
    for v in (J1, I1, J2, I2):
        for e in (1, -1):
            built.clear()
            got = [c.as_dict() for c in check_well_defined(v, e)]
            assert built == [v]
            # the same records as building the relations afresh for each table
            specs = [
                (braid_op(v, i, e, kind), "%s/i=%d/" % (kind, i))
                for kind in operators.BRAID_KINDS
                for i in v.braid_indices
            ]
            specs += [(omega_op(v), "omega/"), (psi_op(v), "psi/")]
            built.clear()
            fresh = []
            for spec, tag in specs:
                fresh += check_well_defined_one(
                    spec, "endo-well-defined/" + tag, weyl.relation_instances(v)
                )
            assert len(built) == len(specs)
            assert got == [c.as_dict() for c in fresh]


def test_identity_spec_well_defined():
    checks = check_well_defined_one(identity_endo(J2), "wd/", weyl.relation_instances(J2))
    assert all(c.status == "pass" for c in checks)


def test_broken_spec_fails_dx_relation():
    spec = identity_endo(J2)
    spec.images[("d", 1)] = gen(J2, "x", 1)
    checks = check_well_defined_one(spec, "wd/", weyl.relation_instances(J2))
    by_id = {c.id: c for c in checks}
    assert by_id["wd/dx/i=1"].status == "fail"
    assert by_id["wd/dx/i=2"].status == "pass"


def test_braid_suite_passes_small_ranks():
    for v in (J1, J2, I1, I2, Variant("jmath", 3)):
        for e in (1, -1):
            checks = check_braid_suite(v, e)
            assert not any(c.status == "fail" for c in checks)


def test_braid_suite_skips_at_jmath_rank_one():
    checks = check_braid_suite(J1, 1)
    status = {c.id: c.status for c in checks}
    assert status["braid/3-term/prime/none"] == "skipped"
    assert status["braid/4-term/prime/none"] == "skipped"
    assert status["braid/commute/prime/none"] == "skipped"
    assert status["braid/inverse/doubleprime-after-prime/i=1"] == "pass"
    assert status["braid/inverse/prime-after-doubleprime/i=1"] == "pass"


def test_braid_four_term_runs_at_imath_rank_one():
    checks = check_braid_suite(I1, -1)
    status = {c.id: c.status for c in checks}
    assert status["braid/4-term/prime/i=2"] == "pass"
    assert status["braid/4-term/doubleprime/i=2"] == "pass"
    assert status["braid/3-term/prime/none"] == "skipped"


def test_three_term_fails_if_misstated_at_top_pair():
    # the top pair satisfies the 4-term relation but not the 3-term one
    v = J2
    a = braid_op(v, 1, 1, "prime")
    b = braid_op(v, 2, 1, "prime")
    mism = [
        l
        for l in generator_letters(v)
        if a.apply(b.apply(a.image(l))) != b.apply(a.apply(b.image(l)))
    ]
    assert mism != []


def test_omega_commute_suite():
    for v in (J1, J2, I1, I2):
        for e in (1, -1):
            checks = check_omega_commutes(v, e)
            assert all(c.status == "pass" for c in checks)
            assert len(checks) == 2 * len(list(v.braid_indices))
