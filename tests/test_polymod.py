import random

import pytest

from qweyl import iqg, polymod, satake, scalars
from qweyl.polymod import PolyElement, act, act_letter, act_word, grid, tcal
from qweyl.report import FAIL, PASS, SKIP
from qweyl.satake import Variant
from qweyl.scalars import from_int, qint, qpow
from qweyl.weyl import WeylElement, generator_letters, reduce_word

J1 = Variant("jmath", 1)
J2 = Variant("jmath", 2)
I1 = Variant("imath", 1)
I2 = Variant("imath", 2)


def mono(v, exps, coeff=scalars.ONE):
    return PolyElement.monomial(v, exps, coeff)


def test_letter_actions():
    # the doubled weight at the distinguished index: d_2 X^(0,2) = [4] X^(0,1)
    assert act_letter(J1, "d", 2, mono(J1, (0, 2))) == mono(J1, (0, 1), qint(4))
    # without the doubling the same action gives [2]
    assert act_letter(I1, "d", 2, mono(I1, (0, 2))) == mono(I1, (0, 1), qint(2))
    assert act_letter(J1, "d", 1, mono(J1, (0, 2))).is_zero
    assert act_letter(J1, "x", 1, mono(J1, (3, 0))) == mono(J1, (4, 0))
    assert act_letter(J1, "m", 1, mono(J1, (3, 0))) == mono(J1, (3, 0), qpow(3))
    assert act_letter(J1, "m", 2, mono(J1, (0, 3))) == mono(J1, (0, 3), qpow(6))
    assert act_letter(J1, "mi", 2, mono(J1, (0, 3))) == mono(J1, (0, 3), qpow(-6))
    with pytest.raises(ValueError, match="unknown generator"):
        act_letter(J1, "y", 1, mono(J1, (0, 0)))


def test_word_action_matches_normal_form():
    # d_i x_i acts as the quantum integer [kappa (a_i + 1)]
    for v, idx, k in ((J1, 2, 2), (I1, 2, 1), (J2, 1, 1)):
        word = (("d", idx), ("x", idx))
        elem = reduce_word(v, word)
        for a in grid(v, 4):
            f = mono(v, a)
            expected = mono(v, a, qint(k * (a[idx - 1] + 1)))
            assert act_word(v, word, f) == expected
            assert act(v, elem, f) == expected


def test_weighted_commutator_on_grid():
    # d o x - x o d multiplies by [kappa(a+1)] - [kappa a] pointwise
    for v in (J1, I2):
        for idx in v.weyl_indices:
            k = v.kappa(idx)
            for a in grid(v, 8):
                f = mono(v, a)
                dx = act_word(v, (("d", idx), ("x", idx)), f)
                xd = act_word(v, (("x", idx), ("d", idx)), f)
                c = qint(k * (a[idx - 1] + 1)) - qint(k * a[idx - 1])
                assert dx - xd == mono(v, a, c)


def test_act_is_linear_and_multiplicative():
    u = reduce_word(J2, (("x", 2), ("d", 1)))
    w = reduce_word(J2, (("m", 3), ("x", 1)))
    f = mono(J2, (1, 0, 2)) + mono(J2, (0, 1, 0), qpow(2))
    assert act(J2, u * w, f) == act(J2, u, act(J2, w, f))
    assert act(J2, u + w, f) == act(J2, u, f) + act(J2, w, f)


def test_tcal_identity_on_constants():
    one = PolyElement.unit(J2)
    for kind in polymod.TCAL_KINDS:
        for i in J2.braid_indices:
            assert tcal(J2, i, 1, kind, one) == one


def test_tcal_offdiagonal_values():
    # frozen: swap with coefficient (-1)^b q^(e b (a+1)) for kind prime
    f = mono(J2, (1, 2, 0))
    assert tcal(J2, 1, 1, "prime", f) == mono(J2, (2, 1, 0), qpow(4))
    assert tcal(J2, 1, -1, "prime", f) == mono(J2, (2, 1, 0), qpow(-4))
    # and (-1)^a q^(e a (b+1)) for kind doubleprime
    assert tcal(J2, 1, 1, "doubleprime", f) == mono(J2, (2, 1, 0), -qpow(3))
    assert tcal(J2, 1, -1, "doubleprime", f) == mono(J2, (2, 1, 0), -qpow(-3))


def test_tcal_diagonal_values():
    # even diagram: exponent (a^2 + 3a - 2b + 4ab)/2 at the top index
    assert tcal(J1, 1, 1, "prime", mono(J1, (1, 0))) == mono(J1, (1, 0), qpow(2))
    assert tcal(J1, 1, 1, "prime", mono(J1, (1, 1))) == mono(J1, (1, 1), qpow(3))
    assert tcal(J1, 1, -1, "prime", mono(J1, (1, 1))) == mono(J1, (1, 1), qpow(-3))
    # odd diagram: exponent (a^2 - a)/2 reads only the last entry
    assert tcal(I1, 2, 1, "prime", mono(I1, (0, 3))) == mono(I1, (0, 3), qpow(3))
    assert tcal(I1, 2, 1, "prime", mono(I1, (4, 1))) == mono(I1, (4, 1))
    # the diagonal operator is the same for both kinds
    for a in grid(J1, 5):
        f = mono(J1, a)
        assert tcal(J1, 1, 1, "prime", f) == tcal(J1, 1, 1, "doubleprime", f)


def test_pinned_tcal_exponent_is_half_of_num():
    # e * num / 2 with num = a^2 + 3a - 2b + 4ab (even diagram) or a^2 - a
    # (odd diagram, b unused), for (a_r, a_{r+1}) = (a, b) resp. (b, a)
    for v, num in (
        (J2, lambda a, b: a * a + 3 * a - 2 * b + 4 * a * b),
        (I2, lambda a, b: a * a - a),
    ):
        r = v.rank
        for a in range(41):
            for b in range(41):
                exps = [0] * (r + 1)
                if v.kind == "jmath":
                    exps[r - 1], exps[r] = a, b
                else:
                    exps[r - 1], exps[r] = b, a
                assert num(a, b) % 2 == 0
                for e in (1, -1):
                    for kind in satake.BRAID_KINDS:
                        got = tcal(v, v.bmax, e, kind, mono(v, exps))
                        assert got == mono(v, exps, qpow(e * num(a, b) // 2)), (v, a, b)


def test_tcal_inverse_on_grid():
    for v in (J1, J2, I1, I2):
        for e in (1, -1):
            for i in v.braid_indices:
                for a in grid(v, 8 if v.rank == 1 else 4):
                    f = mono(v, a)
                    assert tcal(v, i, -e, "doubleprime", tcal(v, i, e, "prime", f)) == f
                    assert tcal(v, i, e, "prime", tcal(v, i, -e, "doubleprime", f)) == f


def test_tcal_four_term_pinned_point():
    # both composite orders agree on X^(1,2,1) and keep the exponent
    f = mono(J2, (1, 2, 1))
    e = -1
    lhs = f
    for i in (2, 1, 2, 1):
        lhs = tcal(J2, i, e, "prime", lhs)
    rhs = f
    for i in (1, 2, 1, 2):
        rhs = tcal(J2, i, e, "prime", rhs)
    assert lhs == rhs
    assert set(lhs.terms) == {(1, 2, 1)}


def test_tcal_validation():
    with pytest.raises(ValueError, match="unknown kind"):
        tcal(J2, 1, 1, "half", PolyElement.unit(J2))
    with pytest.raises(ValueError, match="e must be"):
        tcal(J2, 1, 2, "prime", PolyElement.unit(J2))
    with pytest.raises(ValueError, match="braid index out of range"):
        tcal(J2, 3, 1, "prime", PolyElement.unit(J2))
    with pytest.raises(ValueError, match="variant mismatch"):
        tcal(J2, 1, 1, "prime", PolyElement.unit(J1))


def _rand_poly(rng, v, bound):
    f = PolyElement(v, {})
    for _ in range(rng.randint(0, 3)):
        a = tuple(rng.randint(0, bound) for _ in range(v.rank + 1))
        f = f + mono(v, a, qpow(rng.randint(-2, 2)) + rng.randint(-1, 1))
    return f


def test_bound_action_matches_act():
    rng = random.Random(31)
    for v in (J1, J2, I1, I2):
        letters = generator_letters(v)
        for _ in range(12):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            other = (rng.choice(letters),)
            coeff = qpow(rng.randint(-1, 1))
            elem = reduce_word(v, word) + reduce_word(v, other, coeff)
            bound = polymod.action(v, elem)
            for _ in range(4):
                f = _rand_poly(rng, v, 3)
                want = act_word(v, word, f) + act_word(v, other, f).scale(coeff)
                assert bound(f) == act(v, elem, f) == want


def test_bound_action_checks_the_element_once_and_each_polynomial():
    twin = Variant("jmath", 1)
    with pytest.raises(ValueError, match="variant mismatch"):
        polymod.action(J1, reduce_word(I1, (("x", 1),)))
    bound = polymod.action(J1, reduce_word(twin, (("x", 1),)))
    assert bound(mono(twin, (1, 2))) == mono(J1, (2, 2))
    with pytest.raises(ValueError, match="variant mismatch"):
        bound(mono(I1, (1, 2)))
    x = reduce_word(J1, (("x", 1),))
    zero = polymod.action(J1, x - x)
    assert zero(mono(J1, (1, 2))).is_zero
    with pytest.raises(ValueError, match="variant mismatch"):
        zero(mono(I1, (1, 2)))


def test_bound_maps_validate_when_bound():
    # no polynomial is needed to reach the argument checks
    for args, match in (
        ((1, 1, "half"), "unknown kind"),
        ((1, 2, "prime"), "e must be"),
        ((0, 1, "prime"), "braid index out of range"),
        ((3, 1, "prime"), "braid index out of range"),
    ):
        with pytest.raises(ValueError, match=match):
            polymod.tcal_map(J2, *args)
    for args, match in (
        (("y", 1), "unknown generator"),
        (("x", 0), "index out of range"),
        (("d", J2.rank + 2), "index out of range"),
    ):
        with pytest.raises(ValueError, match=match):
            polymod.letter_action(J2, *args)


def test_bound_maps_check_each_polynomial():
    twin = Variant("jmath", 1)
    f = mono(twin, (1, 2))
    assert polymod.tcal_map(J1, 1, 1, "prime")(f) == tcal(J1, 1, 1, "prime", f)
    assert polymod.letter_action(J1, "x", 1)(f) == mono(J1, (2, 2))
    g = mono(I1, (1, 2))
    for bound in (
        polymod.tcal_map(J1, 1, 1, "prime"),
        polymod.tcal_map(J1, 1, -1, "doubleprime"),
    ) + tuple(polymod.letter_action(J1, *l) for l in generator_letters(J1)):
        with pytest.raises(ValueError, match="variant mismatch"):
            bound(g)


def test_letter_action_matches_the_generator_action():
    rng = random.Random(47)
    for v in (J1, J2, I1, I2):
        for l in generator_letters(v):
            bound = polymod.letter_action(v, *l)
            gen = polymod.action(v, WeylElement.generator(v, *l))
            for _ in range(6):
                f = _rand_poly(rng, v, 3)
                assert bound(f) == gen(f) == act_letter(v, *l, f)


def test_tcal_map_evaluates_each_exponent_vector_once(monkeypatch):
    rng = random.Random(53)
    polys = [_rand_poly(rng, J2, 2) for _ in range(20)]
    want = [tcal(J2, 1, 1, "prime", f) for f in polys]
    seen = []
    real_point = polymod._tcal_point

    def counted(v, i, e, kind, a):
        seen.append(a)
        return real_point(v, i, e, kind, a)

    monkeypatch.setattr(polymod, "_tcal_point", counted)
    bound = polymod.tcal_map(J2, 1, 1, "prime")
    assert [bound(f) for f in polys] == want
    vectors = {a for f in polys for a in f.terms}
    assert sum(len(f.terms) for f in polys) > len(vectors)
    assert sorted(seen) == sorted(vectors)


def test_poly_algebra_and_rendering():
    f = mono(J2, (2, 0, 1)) + mono(J2, (0, 1, 0), qpow(1) + qpow(-1))
    assert str(f) == "X1^2 X3 + (q + q^-1) X2"
    assert str(PolyElement.unit(J2)) == "1"
    assert str(mono(J2, (0, 0, 0)) - mono(J2, (0, 0, 0))) == "0"
    assert str(mono(J1, (1, 0), -scalars.ONE)) == "-X1"
    assert str(mono(J1, (1, 0), qpow(2))) == "q^2 X1"
    g = mono(J1, (1, 0)) + mono(J1, (0, 1))
    assert g * g == mono(J1, (2, 0)) + mono(J1, (1, 1), scalars.from_int(2)) + mono(J1, (0, 2))
    assert g ** 2 == g * g
    assert (g - g).is_zero
    assert 2 * mono(J1, (1, 0)) == mono(J1, (1, 0), scalars.from_int(2))


def test_poly_validation():
    with pytest.raises(ValueError, match="negative exponent"):
        PolyElement.monomial(J1, (-1, 0))
    with pytest.raises(ValueError, match="length 3, expected 2"):
        PolyElement.monomial(J1, (1, 0, 0))
    with pytest.raises(ValueError, match="variant mismatch"):
        mono(J1, (1, 0)) + mono(I1, (1, 0))
    with pytest.raises(ValueError, match="variant mismatch"):
        act(J1, reduce_word(J1, ()), PolyElement.unit(I1))


def test_module_homomorphism_suite():
    for v in (J1, J2, I1, I2):
        checks = polymod.check_module_homomorphism(v, 4)
        assert checks and all(c.status == PASS for c in checks), v
        # seeded word choice keeps reports reproducible
        again = polymod.check_module_homomorphism(v, 4)
        assert [(c.id, c.description) for c in checks] == [
            (c.id, c.description) for c in again
        ]


def test_tcal_suite_passes():
    for v in (J1, J2, I1, I2):
        for e in (1, -1):
            checks = polymod.check_tcal_suite(v, e, 4)
            for c in checks:
                assert c.status in (PASS, SKIP), (v, e, c.id, c.lhs, c.rhs)
    ids = [c.id for c in polymod.check_tcal_suite(J1, 1, 3)]
    assert "tcal/braid/3-term/prime/none" in ids
    assert "tcal/braid/4-term/prime/none" in ids
    ids2 = [c.id for c in polymod.check_tcal_suite(I2, 1, 3)]
    assert "tcal/braid/3-term/prime/i=2" in ids2
    assert "tcal/braid/4-term/doubleprime/i=3" in ids2


def test_iu_module_suite_passes():
    for v in (J1, J2, I1, I2):
        for e in (1, -1):
            checks = polymod.check_iu_module(v, e, 3)
            assert checks and all(c.status == PASS for c in checks), (v, e)


def test_iu_module_detects_wrong_tau():
    # pairing tau with the wrong braid kind must break compatibility
    from qweyl import iqg

    v = J2
    ph = iqg.phi_spec(v)
    s = iqg.tau_subst(v, 1, 1, "doubleprime")
    moved = {u: ph.apply_free(s.image(u)) for u in iqg.iqg_letters(v)}
    mismatch = False
    for u in iqg.iqg_letters(v):
        for a in grid(v, 2):
            f = mono(v, a)
            lhs = tcal(v, 1, 1, "prime", act(v, ph.image(u), f))
            rhs = act(v, moved[u], tcal(v, 1, 1, "prime", f))
            if lhs != rhs:
                mismatch = True
                break
        if mismatch:
            break
    assert mismatch


def test_act_letter_validates_the_letter():
    f = mono(J1, (1, 2))
    # index 0 would reach the last position through p = -1
    with pytest.raises(ValueError, match="index out of range"):
        act_letter(J1, "x", 0, f)
    with pytest.raises(ValueError, match="index out of range"):
        act_letter(J1, "x", 5, f)
    # the zero polynomial has no terms to reach the letter dispatch
    with pytest.raises(ValueError, match="unknown generator"):
        act_letter(J1, "y", 1, PolyElement(J1, {}))


def test_variant_checks_survive_identity_short_circuit():
    twin = Variant("jmath", 1)  # equal to J1, another object
    assert twin is not J1
    f = mono(twin, (1, 2))
    assert act_letter(J1, "x", 1, f) == mono(J1, (2, 2))
    assert act(J1, reduce_word(J1, (("x", 1),)), f) == mono(J1, (2, 2))
    assert tcal(J1, 1, 1, "prime", f) == tcal(twin, 1, 1, "prime", mono(J1, (1, 2)))
    assert f + mono(J1, (1, 2)) == mono(J1, (1, 2), scalars.from_int(2))
    g = mono(I1, (1, 2))
    mismatches = (
        lambda: act_letter(J1, "x", 1, g),
        lambda: act(J1, reduce_word(J1, ()), g),
        lambda: act(J1, reduce_word(I1, ()), f),
        lambda: tcal(J1, 1, 1, "prime", g),
        lambda: f + g,
    )
    for call in mismatches:
        with pytest.raises(ValueError, match="variant mismatch"):
            call()


def _tcal_calls_per_check(monkeypatch):
    """Count applications of bound tcal maps, and attribute them to check ids."""
    calls = [0]
    real_tcal_map = polymod.tcal_map

    def counted(*args):
        bound = real_tcal_map(*args)

        def apply(poly):
            calls[0] += 1
            return bound(poly)

        return apply

    per_check = {}

    def attributing(real):
        def check(cid, description, instances):
            start = calls[0]
            out = real(cid, description, instances)
            per_check[cid] = calls[0] - start
            return out

        return check

    monkeypatch.setattr(polymod, "tcal_map", counted)
    for mod in (polymod, satake):
        monkeypatch.setattr(mod, "aggregate_check", attributing(mod.aggregate_check))
    return per_check


def test_module_suites_take_one_tcal_image_per_grid_point(monkeypatch):
    per_check = _tcal_calls_per_check(monkeypatch)
    v, bound = J2, 1
    points = (bound + 1) ** (v.rank + 1)
    checks = polymod.check_tcal_suite(v, 1, bound)
    assert all(c.status in (PASS, SKIP) for c in checks)
    # per intertwine check: tcal after each (letter, point), and one tcal
    # image per point that every letter reuses
    n_letters = len(generator_letters(v))
    intertwine = {c: n for c, n in per_check.items() if c.startswith("tcal/intertwine/")}
    assert len(intertwine) == 4
    assert set(intertwine.values()) == {(n_letters + 1) * points}
    # the relation checks bind each operator of a word through the same name
    assert per_check["tcal/inverse/doubleprime-after-prime/i=1"] == 2 * points
    assert per_check["tcal/braid/4-term/prime/i=2"] == 8 * points

    per_check.clear()
    checks = polymod.check_iu_module(v, -1, bound)
    assert all(c.status == PASS for c in checks)
    n_letters = len(iqg.iqg_letters(v))
    assert len(per_check) == 4
    assert set(per_check.values()) == {(n_letters + 1) * points}


def test_action_matches_letter_by_letter_on_scaled_grids():
    rng = random.Random(5)
    letters = generator_letters(J2)
    for _ in range(30):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        elem = reduce_word(J2, word)
        for a in grid(J2, 2):
            f = mono(J2, a, qpow(1))
            assert act(J2, elem, f) == act_word(J2, word, f)
    # several monomials, each with a non-unit scalar; d3^2 at the jmath
    # index of weight 2 annihilates X3^t for t < 2 and gives [2t][2t - 2]
    words = [
        ((("d", 3), ("d", 3)), qpow(1) / 3),
        ((("x", 1), ("d", 3), ("d", 3), ("m", 3)), from_int(-2)),
        ((("m", 2), ("d", 2), ("mi", 3)), qint(2)),
        ((("x", 3), ("d", 1)), qpow(-2) * 5),
    ]
    elem = reduce_word(J2, *words[0])
    for w, c in words[1:]:
        elem = elem + reduce_word(J2, w, c)
    assert len(elem.terms) == len(words)
    bound = polymod.action(J2, elem)
    for a in grid(J2, 3):
        f = mono(J2, a, qpow(a[0] - a[2]) * 7)
        want = act_word(J2, words[0][0], f).scale(words[0][1])
        for w, c in words[1:]:
            want = want + act_word(J2, w, f).scale(c)
        assert bound(f) == want
    dd = polymod.action(J2, reduce_word(J2, words[0][0]))
    assert dd(mono(J2, (1, 0, 1))).is_zero
    assert dd(mono(J2, (1, 0, 2))) == mono(J2, (1, 0, 0), qint(4) * qint(2))


def test_polynomials_are_unhashable():
    # equal to the int 1 but hashing differently would break dict lookups
    unit = PolyElement.unit(J2)
    assert unit == 1
    with pytest.raises(TypeError):
        hash(unit)
