import random

import pytest

from qweyl import iqg, polymod, satake, scalars
from qweyl.expressions import letter_tag
from qweyl.polymod import PolyElement, act, act_letter, act_word, grid, tcal
from qweyl.report import FAIL, PASS, SKIP
from qweyl.satake import Variant
from qweyl.scalars import from_frac, from_int, qint, qpow
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
    # action_rule, bound once per element, equals act and the letter words
    rng = random.Random(31)
    for v in (J1, J2, I1, I2):
        letters = generator_letters(v)
        for _ in range(12):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            other = (rng.choice(letters),)
            coeff = qpow(rng.randint(-1, 1))
            elem = reduce_word(v, word) + reduce_word(v, other, coeff)
            rule = polymod.action_rule(v, elem)
            for _ in range(4):
                f = _rand_poly(rng, v, 3)
                want = act_word(v, word, f) + act_word(v, other, f).scale(coeff)
                assert rule(f.terms) == act(v, elem, f).terms == want.terms


def test_bound_maps_validate_when_bound():
    # each rule checks its arguments when it is bound: no terms are needed
    for args, match in (
        ((1, 1, "half"), "unknown kind"),
        ((1, 2, "prime"), "e must be"),
        ((0, 1, "prime"), "braid index out of range"),
        ((3, 1, "prime"), "braid index out of range"),
    ):
        with pytest.raises(ValueError, match=match):
            polymod.tcal_rule(J2, *args)
    for args, match in (
        (("y", 1), "unknown generator"),
        (("x", 0), "index out of range"),
        (("d", J2.rank + 2), "index out of range"),
    ):
        with pytest.raises(ValueError, match=match):
            polymod.letter_rule(J2, *args)
    with pytest.raises(ValueError, match="variant mismatch"):
        polymod.action_rule(J1, reduce_word(I1, (("x", 1),)))
    twin = Variant("jmath", 1)  # equal to J1, another object
    rule = polymod.action_rule(J1, reduce_word(twin, (("x", 1),)))
    assert rule({(1, 2): scalars.ONE}) == {(2, 2): scalars.ONE}


def test_letter_action_matches_the_generator_action():
    rng = random.Random(47)
    for v in (J1, J2, I1, I2):
        for l in generator_letters(v):
            rule = polymod.letter_rule(v, *l)
            gen = polymod.action_rule(v, WeylElement.generator(v, *l))
            for _ in range(6):
                f = _rand_poly(rng, v, 3)
                assert rule(f.terms) == gen(f.terms) == act_letter(v, *l, f).terms


def test_rules_on_terms_match_their_one_shots_and_act_word():
    rng = random.Random(59)
    for v in (J1, J2, I1, I2):
        letters = generator_letters(v)
        # 3 to 5 terms each, with coefficients 1, +-q^k, rationals and
        # (q - q^-1)-denominators
        polys = []
        for _ in range(6):
            points = rng.sample(list(grid(v, 3)), rng.randint(3, 5))
            polys.append(PolyElement(v, {a: rng.choice(_COEFFS) for a in points}))
        for l in letters:
            rule = polymod.letter_rule(v, *l)
            for f in polys:
                got = rule(f.terms)
                assert got == act_letter(v, *l, f).terms == act_word(v, (l,), f).terms, l
        for kind in polymod.TCAL_KINDS:
            for i in v.braid_indices:
                for e in (1, -1):
                    rule = polymod.tcal_rule(v, i, e, kind)
                    for f in polys:
                        want = _ref_tcal(v, i, e, kind, f).terms
                        assert rule(f.terms) == tcal(v, i, e, kind, f).terms == want
        # (m_p - m_p^-1)/(q - q^-1) plus a word: the m terms cancel on X^a
        # with a_p = 0, where the word adds nothing
        for _ in range(6):
            p = rng.choice(v.weyl_indices)
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            cancel = reduce_word(v, (("m", p),)) - reduce_word(v, (("mi", p),))
            elem = cancel.scale(_QD.inv()) + reduce_word(v, word)
            rule = polymod.action_rule(v, elem)
            one = PolyElement.unit(v)
            for f in polys + [one]:
                got = rule(f.terms)
                want = act_word(v, (("m", p),), f) - act_word(v, (("mi", p),), f)
                want = want.scale(_QD.inv()) + act_word(v, word, f)
                assert got == act(v, elem, f).terms == want.terms, (p, word)
            assert rule(one.terms) == act_word(v, word, one).terms


def test_public_maps_check_each_polynomial_variant():
    # the one-shots accept an equal variant object and refuse another variant
    twin = Variant("jmath", 2)  # equal to J2, another object
    f, g = mono(twin, (1, 2, 1)), mono(I2, (1, 2, 1))
    x = reduce_word(J2, (("x", 1),))
    one_shots = [
        lambda p, elem=elem: act(J2, elem, p)
        for elem in (reduce_word(J2, (("x", 1), ("d", 2))), x - x)
    ]
    one_shots += [
        lambda p, l=l: act_letter(J2, *l, p) for l in generator_letters(J2)
    ]
    one_shots += [
        lambda p, t=t: tcal(J2, *t, p)
        for t in ((1, 1, "prime"), (1, -1, "doubleprime"), (2, 1, "prime"))
    ]
    for apply in one_shots:
        assert apply(f) == apply(mono(J2, (1, 2, 1)))
        assert apply(f).variant is J2
        with pytest.raises(ValueError, match="variant mismatch"):
            apply(g)
        with pytest.raises(ValueError, match="variant mismatch"):
            apply(PolyElement(I2, {}))


def test_tcal_rule_evaluates_each_exponent_vector_once(monkeypatch):
    rng = random.Random(53)
    polys = [_rand_poly(rng, J2, 2) for _ in range(20)]
    want = [tcal(J2, 1, 1, "prime", f).terms for f in polys]
    seen = []
    real_point = polymod._tcal_point

    def counted(v, i, e, kind, a):
        seen.append(a)
        return real_point(v, i, e, kind, a)

    monkeypatch.setattr(polymod, "_tcal_point", counted)
    rule = polymod.tcal_rule(J2, 1, 1, "prime")
    assert [rule(f.terms) for f in polys] == want
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


def _counting(monkeypatch, mod, factory, calls, key=lambda *args: None, binds=None):
    """Replace mod.factory by one whose bound rules count their applications.

    calls[key(*args)] counts the applications of the rules bound with args;
    binds, if given, collects the args of every bind.
    """
    real = getattr(mod, factory)

    def counted(*args):
        bound = real(*args)
        k = key(*args)
        calls.setdefault(k, 0)
        if binds is not None:
            binds.append(args)

        def apply(x):
            calls[k] += 1
            return bound(x)

        return apply

    monkeypatch.setattr(mod, factory, counted)


def test_module_suites_take_one_tcal_image_per_grid_point(monkeypatch):
    calls, binds = {}, []
    _counting(monkeypatch, polymod, "tcal_rule", calls, binds=binds)
    per_relation = {}

    def attributing(cid, description, instances):
        start = calls[None]
        out = real_aggregate(cid, description, instances)
        per_relation[cid] = calls[None] - start
        return out

    real_aggregate = satake.aggregate_check
    monkeypatch.setattr(satake, "aggregate_check", attributing)
    v, bound = J2, 1
    points = (bound + 1) ** (v.rank + 1)
    checks = polymod.check_tcal_suite(v, 1, bound)
    assert all(c.status in (PASS, SKIP) for c in checks)
    # one tcal rule per (i, e, kind) serves the whole suite call: the
    # intertwine checks at e = 1 and the relation checks, whose inverse
    # pairs also take the doubleprime operators at e = -1; at the pinned
    # index the intertwine checks of both kinds share the prime rule
    ops = ((1, "prime"), (1, "doubleprime"), (-1, "doubleprime"))
    want = [(v, i, e, kind) for i in v.braid_indices for e, kind in ops]
    want.remove((v, v.bmax, 1, "doubleprime"))
    assert sorted(binds) == sorted(want)
    # per intertwine evaluator: tcal after each (letter, point), and one tcal
    # image per point that every letter reuses; the two pinned checks, with
    # one rule and equal rights, share one evaluator, so the 4 checks take 3.
    # The rest of the suite call is the relation checks, each applying every
    # operator of a word
    n_letters = len(generator_letters(v))
    n_intertwine = sum(c.id.startswith("tcal/intertwine/") for c in checks)
    assert n_intertwine == 4
    intertwine_calls = calls[None] - sum(per_relation.values())
    assert intertwine_calls == 3 * (n_letters + 1) * points
    assert per_relation["tcal/inverse/doubleprime-after-prime/i=1"] == 2 * points
    assert per_relation["tcal/braid/4-term/prime/i=2"] == 8 * points

    calls.clear()
    binds.clear()
    checks = polymod.check_iu_module(v, -1, bound)
    assert len(checks) == 4 and all(c.status == PASS for c in checks)
    n_letters = len(iqg.iqg_letters(v))
    assert calls == {None: 3 * (n_letters + 1) * points}
    assert sorted(binds) == sorted(
        [(v, 1, -1, "prime"), (v, 1, -1, "doubleprime"), (v, 2, -1, "prime")]
    )


def test_pinned_checks_share_only_equal_right_sides(monkeypatch):
    # the two kinds at the pinned index share one tcal rule; a change to the
    # prime side alone must fail the prime check and leave the doubleprime
    # check passing, so checks share an evaluator only on equal right sides
    from qweyl import operators

    real_braid_op, real_tau_subst = operators.braid_op, iqg.tau_subst

    def braid_op(v, i, e, kind):
        op = real_braid_op(v, i, e, kind)
        if kind == "prime" and v.pinned(i):
            letter = ("x", v.rank + 1)
            op.images[letter] = op.images[letter].scale(qpow(1))
        return op

    def tau_subst(v, i, e, kind):
        s = real_tau_subst(v, i, e, kind)
        if kind == "prime" and v.pinned(i):
            s.images[("B", 1)] = s.images[("B", 1)].scale(qpow(1))
        return s

    monkeypatch.setattr(operators, "braid_op", braid_op)
    monkeypatch.setattr(iqg, "tau_subst", tau_subst)
    for v in (J2, I2):
        for e in (1, -1):
            checks = [
                c
                for c in polymod.check_tcal_suite(v, e, 2)
                if c.id.startswith("tcal/intertwine/")
            ]
            checks += polymod.check_iu_module(v, e, 2)
            assert len(checks) == 4 * v.bmax
            failing = {
                "tcal/intertwine/prime/i=%d" % v.bmax,
                "iu-module/prime/i=%d" % v.bmax,
            }
            assert {c.id for c in checks if c.status == FAIL} == failing, (v, e)
            assert all(c.status == PASS for c in checks if c.id not in failing)


def test_tcal_suite_evaluates_each_point_once_per_call(monkeypatch):
    # the intertwine and relation checks of a suite call share one tcal rule
    # per (i, e, kind), so each (i, e, kind, a) is evaluated once per call
    seen = []
    real_point = polymod._tcal_point

    def counted(v, i, e, kind, a):
        seen.append((i, e, kind, a))
        return real_point(v, i, e, kind, a)

    monkeypatch.setattr(polymod, "_tcal_point", counted)
    for v in (J2, I2, Variant("jmath", 3)):
        for e in (1, -1):
            seen.clear()
            checks = polymod.check_tcal_suite(v, e, 2)
            assert all(c.status in (PASS, SKIP) for c in checks)
            assert len(seen) == len(set(seen)), (v, e)
            # the relation checks see the grid under every operator they use
            for i in v.braid_indices:
                for t in ((i, e, "prime"), (i, -e, "doubleprime")):
                    assert set(grid(v, 2)) <= {p[3] for p in seen if p[:3] == t}


def test_module_suites_take_each_left_image_once_per_call(monkeypatch):
    # the checks of a suite call run in lockstep: each letter's left side is
    # applied once per grid point, not once per (kind, i) check; the driver
    # applies the sides' rules on terms
    v, bound = J2, 1
    points = (bound + 1) ** (v.rank + 1)
    calls = {}
    _counting(monkeypatch, polymod, "letter_rule", calls, key=lambda v, *l: l)
    checks = polymod.check_tcal_suite(v, 1, bound)
    assert sum(c.id.startswith("tcal/intertwine/") for c in checks) == 4
    assert calls == {l: points for l in generator_letters(v)}

    # iu-module binds the rule of each left side phi(u) and of each right
    # side phi(tau(u)); count the rules bound from phi's images
    specs = []
    real_phi_spec = iqg.phi_spec

    def phi_spec(v):
        specs.append(real_phi_spec(v))
        return specs[-1]

    monkeypatch.setattr(iqg, "phi_spec", phi_spec)
    calls = {}
    _counting(monkeypatch, polymod, "action_rule", calls, key=lambda v, elem: id(elem))
    checks = polymod.check_iu_module(v, 1, bound)
    assert len(checks) == 4 and all(c.status == PASS for c in checks)
    (ph,) = specs
    lefts = {id(ph.image(u)): u for u in iqg.iqg_letters(v)}
    assert {lefts[k]: n for k, n in calls.items() if k in lefts} == {
        u: points for u in iqg.iqg_letters(v)
    }


def test_lockstep_checks_keep_their_check_major_records(monkeypatch):
    # two intertwine checks of one tcal suite call fail at different
    # (letter, point) pairs; each record must be the one the check gives
    # when its instances run alone, letter by letter, point by point
    from qweyl import operators, report

    v, e, bound = J2, 1, 2
    real_braid_op = operators.braid_op
    broken = {("prime", 1): ("m", 2), ("doubleprime", 2): ("d", 3)}

    def braid_op(v, i, e, kind):
        op = real_braid_op(v, i, e, kind)
        letter = broken.get((kind, i))
        if letter is not None:
            op.images[letter] = op.images[letter].scale(2)
        return op

    monkeypatch.setattr(operators, "braid_op", braid_op)
    records = {
        c.id: c
        for c in polymod.check_tcal_suite(v, e, bound)
        if c.id.startswith("tcal/intertwine/")
    }
    assert len(records) == 4
    monos = [(a, mono(v, a)) for a in grid(v, bound)]
    letters = generator_letters(v)
    failing = set()
    for kind in satake.BRAID_KINDS:
        for i in v.braid_indices:
            cid = "tcal/intertwine/%s/i=%d" % (kind, i)
            images = operators.braid_op(v, i, e, kind).images
            instances = (
                inst
                for l in letters
                for inst in report.pointwise(
                    [((letter_tag(l), a), m) for a, m in monos],
                    lambda m, l=l: tcal(v, i, e, kind, act_letter(v, *l, m)),
                    lambda m, l=l: act(v, images[l], tcal(v, i, e, kind, m)),
                )
            )
            ref = report.aggregate_check(cid, records[cid].description, instances)
            assert records[cid].as_dict() == ref.as_dict(), cid
            if ref.status == FAIL:
                failing.add(ref.lhs.split("]")[0])
    # m2 fails on the first grid point; d3 only where X3 has a positive power
    assert failing == {"[m2 on X^((0, 0, 0),)", "[d3 on X^((0, 0, 1),)"}


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
    for a in grid(J2, 3):
        f = mono(J2, a, qpow(a[0] - a[2]) * 7)
        want = act_word(J2, words[0][0], f).scale(words[0][1])
        for w, c in words[1:]:
            want = want + act_word(J2, w, f).scale(c)
        assert act(J2, elem, f) == want
    dd = reduce_word(J2, words[0][0])
    assert act(J2, dd, mono(J2, (1, 0, 1))).is_zero
    assert act(J2, dd, mono(J2, (1, 0, 2))) == mono(J2, (1, 0, 0), qint(4) * qint(2))


def test_falling_weight_is_the_product_of_its_quantum_integers():
    for k in (1, 2):
        for t in range(1, 13):
            for be in range(1, t + 1):
                lo, cs = 0, scalars.P_ONE
                for j in range(be):
                    nlo, ncs = scalars.qint_laurent(k * (t - j))
                    lo += nlo
                    cs = scalars.p_mul(cs, ncs)
                assert polymod._falling_weight(k, t, be) == (lo, cs), (k, t, be)
                assert len(cs) - 1 == polymod._falling_degree(k, t, be)
    # a bounded table, like _tcal_weight's
    assert polymod._falling_weight.cache_info().maxsize == 1024


def test_module_homomorphism_fails_on_a_wrong_falling_weight(monkeypatch):
    # the letter-by-letter side does not read the table, so a wrong weight
    # shows as a failing word check
    real = polymod._falling_weight

    def wrong(k, t, be):
        lo, cs = real(k, t, be)
        return lo + 1, cs

    monkeypatch.setattr(polymod, "_falling_weight", wrong)
    for v in (J1, I2):
        checks = polymod.check_module_homomorphism(v, 2)
        failed = [c.id for c in checks if c.status == FAIL]
        assert any(cid.startswith("module-homomorphism/word/") for cid in failed), v


def _ref_action(v, elem, poly):
    """elem . poly by the monomial rule, in plain QScalar products and sums."""
    out = {}
    for m, mc in elem.terms.items():
        for a, c in poly.terms.items():
            b = list(a)
            w = c * mc
            for p, (al, be, ga) in enumerate(m):
                k = v.kappa(p + 1)
                t = a[p]
                if t < be:
                    break
                w = w * qpow(ga * k * t)
                for j in range(be):
                    w = w * qint(k * (t - j))
                b[p] = t - be + al
            else:
                b = tuple(b)
                out[b] = out.get(b, scalars.ZERO) + w
    return PolyElement(v, {b: w for b, w in out.items() if w})


def _ref_tcal(v, i, e, kind, poly):
    out = {}
    for a, c in poly.terms.items():
        sign, k, b = polymod._tcal_point(v, i, e, kind, a)
        out[b] = from_int(sign) * qpow(k) * c
    return PolyElement(v, out)


_QD = qpow(1) - qpow(-1)
# 1, +-q^k, rationals and (q - q^-1)-denominators
_COEFFS = (
    scalars.ONE,
    qpow(3),
    -qpow(-2),
    scalars.MINUS_ONE,
    from_frac(2, 3),
    from_frac(-5, 7) * qpow(1),
    (qpow(1) + 2) / _QD,
    qpow(2) / _QD**2,
)


def test_module_maps_match_plain_scalar_arithmetic():
    for v, bound in ((J2, 6), (I2, 4)):
        points = list(grid(v, bound))
        n = len(_COEFFS)
        polys = [
            PolyElement(v, {a: scalars.ONE for a in points}),
            PolyElement(v, {a: _COEFFS[j % n] for j, a in enumerate(points)}),
        ]
        for l in generator_letters(v):
            rule = polymod.letter_rule(v, *l)
            gen = WeylElement.generator(v, *l)
            for f in polys:
                assert rule(f.terms) == _ref_action(v, gen, f).terms, l
        for kind in polymod.TCAL_KINDS:
            for i in v.braid_indices:
                for e in (1, -1):
                    t = polymod.tcal_rule(v, i, e, kind)
                    # the second pass answers from the rule's memo
                    for f in polys + polys:
                        want = _ref_tcal(v, i, e, kind, f).terms
                        assert t(f.terms) == want, (kind, i, e)
        r = v.rank + 1
        k = v.kappa(r)
        elems = [
            reduce_word(v, (("d", r), ("d", r))),
            reduce_word(v, (("x", 1), ("d", r), ("d", r), ("m", r)), from_frac(2, 3)),
            reduce_word(v, (("d", 2), ("x", 2), ("mi", 1)), -qpow(2))
            + reduce_word(v, (("d", 1), ("m", r)), _COEFFS[6])
            + reduce_word(v, (("x", r),), _COEFFS[7]),
        ]
        for elem in elems:
            rule = polymod.action_rule(v, elem)
            for f in polys:
                assert rule(f.terms) == _ref_action(v, elem, f).terms
        # d^2 at the last index, of weight 2 for jmath: [2k][k] X^(..., 0)
        dd = polymod.action_rule(v, elems[0])
        assert dd({(0,) * (r - 1) + (2,): scalars.ONE}) == {
            (0,) * r: qint(2 * k) * qint(k)
        }
        # two monomials that meet and cancel: (m_p - m_p^-1)/(q - q^-1)
        # kills X^0 and multiplies X^a by [kappa(p) a_p]
        for p in (1, r):
            elem = reduce_word(v, (("m", p),)) - reduce_word(v, (("mi", p),))
            elem = elem.scale(_QD.inv())
            assert len(elem.terms) == 2
            cancel = polymod.action_rule(v, elem)
            assert cancel(PolyElement.unit(v).terms) == {}
            kp = v.kappa(p)
            for f in polys:
                got = cancel(f.terms)
                assert got == _ref_action(v, elem, f).terms
                want = {a: qint(kp * a[p - 1]) * c for a, c in f.terms.items() if a[p - 1]}
                assert got == want


def test_letter_and_tcal_maps_form_no_product_on_q_power_grids(monkeypatch):
    # a weight +-q^k is an exponent shift and x moves no coefficient: on
    # coefficients 1 and +-q^k these rules multiply no two scalars
    calls = [0]
    real_mul = scalars.QScalar.__mul__

    def counted(self, other):
        calls[0] += 1
        return real_mul(self, other)

    v = J2
    coeffs = (scalars.ONE, qpow(2), -qpow(-3), scalars.MINUS_ONE)
    points = list(grid(v, 4))
    polys = [PolyElement(v, {a: coeffs[j % 4] for j, a in enumerate(points)})]
    polys += [mono(v, a, c) for a in points[::7] for c in coeffs]
    monkeypatch.setattr(scalars.QScalar, "__mul__", counted)
    monkeypatch.setattr(scalars.QScalar, "__rmul__", counted)
    rules = [polymod.letter_rule(v, *l) for l in generator_letters(v) if l[0] != "d"]
    rules += [
        polymod.tcal_rule(v, i, e, kind)
        for kind in polymod.TCAL_KINDS
        for i in v.braid_indices
        for e in (1, -1)
    ]
    for f in polys:
        for t in rules:
            t(t(f.terms))
    assert calls[0] == 0
    # the counter sees products: [2] times q^2 is one
    polymod.letter_rule(v, "d", 1)({(2, 0, 0): qpow(2)})
    assert calls[0] == 1


def test_polynomials_are_unhashable():
    # equal to the int 1 but hashing differently would break dict lookups
    unit = PolyElement.unit(J2)
    assert unit == 1
    with pytest.raises(TypeError):
        hash(unit)
