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
    reduce_word,
)

J2 = Variant("jmath", 2)
J1 = Variant("jmath", 1)
I1 = Variant("imath", 1)
I2 = Variant("imath", 2)
J4 = Variant("jmath", 4)
I4 = Variant("imath", 4)


def gen(v, name, i):
    return WeylElement.generator(v, name, i)


def identity_endo(v):
    """The substitution that fixes every letter."""
    return weyl.EndoSpec(v, {l: gen(v, *l) for l in generator_letters(v)}, label="id")


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


def _well_defined_specs(v, e):
    """check_well_defined's tables, in its order, with their id tags."""
    specs = [
        (operators.braid_op(v, i, e, kind), "%s/i=%d/" % (kind, i))
        for kind in operators.BRAID_KINDS
        for i in v.braid_indices
    ]
    return specs + [(omega_op(v), "omega/"), (psi_op(v), "psi/")]


def _fresh_well_defined(v, e):
    """Each table checked on its own: fresh relations and a fresh memo each."""
    fresh = []
    for spec, tag in _well_defined_specs(v, e):
        fresh += check_well_defined_one(
            spec, "endo-well-defined/" + tag, weyl.relation_instances(v), {}
        )
    return [c.as_dict() for c in fresh]


def test_well_defined_suite_builds_the_relations_once(monkeypatch):
    built = []
    real = weyl.relation_instances

    def counting(v):
        built.append(v)
        return real(v)

    monkeypatch.setattr(operators, "relation_instances", counting)
    monkeypatch.setattr(weyl, "relation_instances", counting)
    # rank 4: many tables fix many relations' letters, so the memo shares most
    for v in (J1, I1, J2, I2, J4, I4):
        for e in (1, -1):
            built.clear()
            got = [c.as_dict() for c in check_well_defined(v, e)]
            assert built == [v]
            # the same records as each table checked afresh
            built.clear()
            assert got == _fresh_well_defined(v, e)
            assert len(built) == len(_well_defined_specs(v, e))


@pytest.mark.parametrize("v, sides", [(J4, 2528), (I4, 2876)])
def test_well_defined_suite_evaluates_each_distinct_image_once(monkeypatch, v, sides):
    # each (relation, flags, images of its letters) is mapped through once:
    # without the memo every table maps both sides of every relation
    calls = []
    real = weyl.EndoSpec.apply_free

    def counting(self, expr):
        calls.append(expr)
        return real(self, expr)

    monkeypatch.setattr(weyl.EndoSpec, "apply_free", counting)
    checks = check_well_defined(v, 1)
    assert len(calls) == sides
    assert sides < 2 * len(checks)


@pytest.mark.parametrize(
    "v, kind, i, letter",
    [
        (J4, "prime", 2, ("d", 3)),  # a letter the table moves
        (J4, "doubleprime", 1, ("d", 3)),  # a letter it fixes, as most tables do
        (I4, "prime", 2, ("x", 3)),
    ],
)
def test_well_defined_memo_keeps_a_mutated_table_apart(monkeypatch, v, kind, i, letter):
    before = {c.id: c.as_dict() for c in check_well_defined(v, 1)}
    real = operators.braid_op

    def mutated(v_, i_, e_, kind_):
        spec = real(v_, i_, e_, kind_)
        if (i_, e_, kind_) == (i, 1, kind):
            spec.images[letter] = -spec.images[letter]
        return spec

    monkeypatch.setattr(operators, "braid_op", mutated)
    got = [c.as_dict() for c in check_well_defined(v, 1)]
    assert got == _fresh_well_defined(v, 1)
    prefix = "endo-well-defined/%s/i=%d/" % (kind, i)
    tag = "%s%d" % letter
    changed = [c for c in got if c != before[c["id"]]]
    assert changed
    for c in changed:
        assert c["id"].startswith(prefix) and tag in c["description"].split()
    # a sign flip fails exactly the relations not homogeneous in the letter
    failed = {c["id"] for c in got if c["status"] == "fail"}
    assert failed == {prefix + "dx/i=%d" % letter[1], prefix + "xd/i=%d" % letter[1]}


def test_well_defined_missing_image_raises_through_the_memo():
    rels = weyl.relation_instances(J2)
    seen = {}
    check_well_defined_one(identity_endo(J2), "wd/", rels, seen)
    spec = identity_endo(J2)
    del spec.images[("d", 2)]
    for memo in (seen, {}):
        with pytest.raises(ValueError, match=r"^no image for letter d2$"):
            check_well_defined_one(spec, "wd/", rels, memo)


def test_well_defined_memo_keys_on_the_flags_and_the_variant():
    # equal letter images serve one record only under equal flags, and
    # only in one variant: kappa differs between jmath and imath
    def specs(v):
        images = identity_endo(v).images
        return [
            weyl.EndoSpec(v, images, anti, bar, label="t")
            for anti in (False, True)
            for bar in (False, True)
        ]

    seen = {}
    for v in (J2, I2):
        rels = weyl.relation_instances(v)
        for spec in specs(v):
            got = check_well_defined_one(spec, "wd/", rels, seen)
            fresh = check_well_defined_one(spec, "wd/", rels, {})
            assert [c.as_dict() for c in got] == [c.as_dict() for c in fresh]
            if spec.antimultiplicative or spec.bar_twist:
                assert any(c.status == "fail" for c in got)


def test_identity_spec_well_defined():
    checks = check_well_defined_one(identity_endo(J2), "wd/", weyl.relation_instances(J2), {})
    assert all(c.status == "pass" for c in checks)


def test_broken_spec_fails_dx_relation():
    spec = identity_endo(J2)
    spec.images[("d", 1)] = gen(J2, "x", 1)
    checks = check_well_defined_one(spec, "wd/", weyl.relation_instances(J2), {})
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
