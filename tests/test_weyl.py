"""Canonical-form reduction and products in the modified q-Weyl algebra."""

import random

import pytest

from qweyl import scalars, weyl
from qweyl.expressions import FreeExpr
from qweyl.operators import braid_op
from qweyl.satake import Variant
from qweyl.scalars import QScalar, from_int, qpow
from qweyl.weyl import (
    EndoSpec,
    WeylElement,
    check_weyl_relations,
    check_well_defined_one,
    generator_letters,
    letter_mono,
    mono_word,
    reduce_expr,
    reduce_word,
    relation_instances,
    unit_mono,
)

J2 = Variant("jmath", 2)
J1 = Variant("jmath", 1)
I2 = Variant("imath", 2)

# 1/(q - q^-1)
QD = QScalar((0, 1), (-1, 0, 1))


def elem_of(v, word, coeff=1):
    return reduce_word(v, word, coeff)


def gen(v, name, i):
    return WeylElement.generator(v, name, i)


def test_variant_data():
    assert J2.n == 4 and I2.n == 5
    assert [J2.kappa(i) for i in (1, 2, 3)] == [1, 1, 2]
    assert [I2.kappa(i) for i in (1, 2, 3)] == [1, 1, 1]
    assert list(J2.braid_indices) == [1, 2]
    assert list(I2.braid_indices) == [1, 2, 3]
    assert J2.rho(1) == 4 and I2.rho(3) == 3
    assert J2.k_legal(2) and not I2.k_legal(3)


def test_reduce_single_letters():
    for v in (J2, I2):
        for name, i in generator_letters(v):
            e = reduce_word(v, (((name, i)),))
            assert e.terms == {letter_mono(v, name, i): scalars.ONE}


def test_xd_oracle():
    # x_i d_i = (m_i - m_i^-1)/(q - q^-1), any kappa
    for v in (J2, I2):
        for i in v.weyl_indices:
            e = reduce_word(v, (("x", i), ("d", i)))
            assert e.terms == {
                letter_mono(v, "m", i): QD,
                letter_mono(v, "mi", i): -QD,
            }


def test_dx_oracle():
    # d_i x_i = (q^k m_i - q^-k m_i^-1)/(q - q^-1) with k = kappa(i)
    for v in (J2, I2):
        for i in v.weyl_indices:
            k = v.kappa(i)
            e = reduce_word(v, (("d", i), ("x", i)))
            assert e.terms == {
                letter_mono(v, "m", i): qpow(k) * QD,
                letter_mono(v, "mi", i): -qpow(-k) * QD,
            }


def test_distinct_indices_commute():
    e = reduce_word(J2, (("d", 1), ("x", 2)))
    f = reduce_word(J2, (("x", 2), ("d", 1)))
    assert e == f
    assert len(e.terms) == 1
    ((mono, c),) = e.terms.items()
    assert c == scalars.ONE
    assert mono[0] == (0, 1, 0) and mono[1] == (1, 0, 0)


def test_m_inverse_cancels():
    e = reduce_word(J2, (("m", 1), ("mi", 1), ("d", 2)))
    assert e == gen(J2, "d", 2)
    assert reduce_word(I2, (("mi", 3), ("m", 3))) == WeylElement.unit(I2)


def test_m_past_d_left():
    # m_1 d_1 = q^-1 d_1 m_1 at kappa(1) = 1
    e = gen(J2, "m", 1) * gen(J2, "d", 1)
    expect = reduce_word(J2, (("d", 1), ("m", 1)), qpow(-1))
    assert e == expect


def test_kappa_two_shows_up():
    # jmath top index carries kappa = 2: d m = q^2 m d there
    e = gen(J1, "d", 2) * gen(J1, "m", 2)
    assert e == reduce_word(J1, (("m", 2), ("d", 2)), qpow(2))


def test_mul_matches_word_reduction():
    rng = random.Random(31415)
    for v in (J2, I2, J1):
        letters = generator_letters(v)
        for _ in range(60):
            w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            assert reduce_word(v, w1) * reduce_word(v, w2) == reduce_word(v, w1 + w2)


def test_reduction_strategies_agree():
    rng = random.Random(27182)
    for v in (J2, I2, J1, Variant("imath", 1)):
        letters = generator_letters(v)
        for _ in range(125):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            assert reduce_word(v, w, strategy="left") == reduce_word(
                v, w, strategy="right"
            )


def _random_elem(rng, v, nwords=2, maxlen=4):
    letters = generator_letters(v)
    out = WeylElement(v, {})
    for _ in range(nwords):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, maxlen)))
        out = out + reduce_word(v, w, from_int(rng.randint(-3, 3)))
    return out


def test_ring_axioms_random():
    rng = random.Random(1618)
    for v in (J2, I2):
        for _ in range(12):
            a = _random_elem(rng, v)
            b = _random_elem(rng, v)
            c = _random_elem(rng, v)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a * WeylElement.unit(v) == a
            assert WeylElement.unit(v) * a == a


def test_scalar_coercion():
    a = gen(J2, "x", 1)
    assert 2 * a == a + a
    assert a * 2 == a + a
    assert (a + 1) - 1 == a
    assert 1 + (a - 1) == a
    assert (a * qpow(3)) * qpow(-3) == a


def test_relation_suite_passes():
    for v in (J2, I2, J1, Variant("imath", 1)):
        checks = check_weyl_relations(v)
        r = v.rank
        assert len(checks) == 8 * (r + 1) * (r + 1)
        bad = [c for c in checks if c.status != "pass"]
        assert bad == []


def test_relation_ids_unique():
    ids = [rid for rid, _, _, _ in relation_instances(J2)]
    assert len(ids) == len(set(ids))


def test_render_pinned_strings():
    assert str(reduce_word(J2, (("d", 1), ("x", 1)))) == "(q*m1 - q^-1*m1^-1)/(q - q^-1)"
    assert str(reduce_word(J1, (("d", 2), ("x", 2)))) == "(q^2*m2 - q^-2*m2^-1)/(q - q^-1)"
    assert str(reduce_word(J2, (("x", 1), ("d", 1)))) == "(m1 - m1^-1)/(q - q^-1)"
    assert str(WeylElement.unit(J2)) == "1"
    assert str(WeylElement(J2, {})) == "0"
    assert str(gen(J2, "x", 1) * gen(J2, "x", 1)) == "x1^2"
    w = reduce_word(J2, (("x", 1), ("x", 1), ("d", 2), ("mi", 3), ("mi", 3)))
    assert str(w) == "x1^2 d2 m3^-2"
    assert str(gen(J2, "m", 1).scale(qpow(2))) == "q^2*m1"
    assert str(-gen(J2, "d", 2)) == "-d2"


def test_canonical_words_are_fixed_points():
    rng = random.Random(55)
    for v in (J2, I2):
        for _ in range(40):
            mono = _random_elem(rng, v, nwords=1, maxlen=6)
            for m in mono.terms:
                again = reduce_word(v, mono_word(m))
                assert again.terms == {m: scalars.ONE}
                again = reduce_word(v, mono_word(m), strategy="right")
                assert again.terms == {m: scalars.ONE}


def test_reduce_expr_collects():
    d1x1 = FreeExpr.word((("d", 1), ("x", 1)))
    x1d1 = FreeExpr.word((("x", 1), ("d", 1)))
    # d x - x d = (q^k - 1) m/(q - q^-1) + (1 - q^-k) m^-1/(q - q^-1); k = 1
    e = reduce_expr(J2, d1x1 - x1d1)
    mk = letter_mono(J2, "m", 1)
    mik = letter_mono(J2, "mi", 1)
    assert e.terms == {
        mk: (qpow(1) - scalars.ONE) * QD,
        mik: (scalars.ONE - qpow(-1)) * QD,
    }


def test_identity_endo_fixes_everything():
    rng = random.Random(808)
    ident = EndoSpec(J2, {l: gen(J2, *l) for l in generator_letters(J2)}, label="id")
    for _ in range(10):
        a = _random_elem(rng, J2)
        assert ident.apply(a) == a


def test_anti_bar_spec_well_defined():
    # x <-> d, m <-> m^-1, words reversed, coefficients bar-twisted
    for v in (J1, I2):
        images = {}
        for i in v.weyl_indices:
            images[("x", i)] = gen(v, "d", i)
            images[("d", i)] = gen(v, "x", i)
            images[("m", i)] = gen(v, "mi", i)
            images[("mi", i)] = gen(v, "m", i)
        spec = EndoSpec(v, images, antimultiplicative=True, bar_twist=True, label="flip")
        checks = check_well_defined_one(spec, "wd/", relation_instances(v), {})
        assert all(c.status == "pass" for c in checks)


def test_anti_spec_reverses_products():
    v = J1
    images = {}
    for i in v.weyl_indices:
        images[("x", i)] = gen(v, "d", i)
        images[("d", i)] = gen(v, "x", i)
        images[("m", i)] = gen(v, "mi", i)
        images[("mi", i)] = gen(v, "m", i)
    spec = EndoSpec(v, images, antimultiplicative=True, bar_twist=True)
    rng = random.Random(4242)
    letters = generator_letters(v)
    for _ in range(25):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        a, b = reduce_word(v, w1), reduce_word(v, w2)
        assert spec.apply(a * b) == spec.apply(b) * spec.apply(a)


def test_errors():
    with pytest.raises(ValueError, match="index out of range"):
        letter_mono(J2, "x", 4)
    with pytest.raises(ValueError, match="unknown generator"):
        letter_mono(J2, "y", 1)
    with pytest.raises(ValueError, match="variant mismatch"):
        gen(J2, "x", 1) * gen(I2, "x", 1)
    with pytest.raises(ValueError, match="negative power"):
        gen(J2, "x", 1) ** -1
    with pytest.raises(ValueError, match="unknown strategy"):
        reduce_word(J2, (("x", 1),), strategy="middle")
    # every letter is validated, whichever end the rewriting starts from
    for strategy in ("left", "right"):
        with pytest.raises(ValueError, match="index out of range"):
            reduce_word(J2, (("x", 0),), strategy=strategy)
        with pytest.raises(ValueError, match="index out of range"):
            reduce_word(J2, (("d", 1), ("x", 4)), strategy=strategy)
        with pytest.raises(ValueError, match="unknown generator"):
            reduce_word(J2, (("y", 1),), strategy=strategy)
    assert unit_mono(J1) == ((0, 0, 0), (0, 0, 0))


def _triples(maxexp=3):
    for e in range(maxexp + 1):
        for xd in sorted({(e, 0), (0, e)}):
            for c in range(-maxexp, maxexp + 1):
                yield xd + (c,)


def test_index_product_table_matches_letter_replay():
    weyl._index_product.cache_clear()
    # J1 has kappa 1 at index 1 and kappa 2 at index 2
    v = J1
    triples = list(_triples())
    assert len(triples) == 49
    unit = unit_mono(v)
    for p in (0, 1):
        k = v.kappa(p + 1)
        for t1 in triples:
            for t2 in triples:
                m1 = unit[:p] + (t1,) + unit[p + 1 :]
                m2 = unit[:p] + (t2,) + unit[p + 1 :]
                replay = reduce_word(v, mono_word(m1) + mono_word(m2))
                pairs = weyl._index_product(k, t1, t2)
                table = {unit[:p] + (t,) + unit[p + 1 :]: s for t, s in pairs}
                assert table == replay.terms


def test_products_match_word_reduction_random():
    rng = random.Random(9001)
    multi = 0
    for kind in ("jmath", "imath"):
        for rank in (1, 2, 3):
            v = Variant(kind, rank)
            letters = generator_letters(v)
            ops = [
                braid_op(v, i, e, k)
                for i in range(1, v.bmax + 1)
                for e in (1, -1)
                for k in ("prime", "doubleprime")
            ]
            for strategy in ("left", "right"):
                for _ in range(20):
                    w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
                    w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
                    a = reduce_word(v, w1, strategy=strategy)
                    b = reduce_word(v, w2, strategy=strategy)
                    assert a * b == reduce_word(v, w1 + w2, strategy=strategy)
                    # multi-term left factors: a braid image plus a multiple of a
                    left = rng.choice(ops).apply(a) + a.scale(qpow(rng.randint(-2, 2)))
                    multi += len(left.terms) > 1
                    expect = WeylElement(v, {})
                    for m, c in left.terms.items():
                        expect = expect + reduce_word(v, mono_word(m) + w2, c, strategy)
                    assert left * b == expect
    assert multi > 100


def test_word_images_start_from_the_scaled_first_image():
    # a word maps to coeff (bar-twisted if asked) times the product of its
    # letter images, reversed if antimultiplicative; the empty word to coeff
    rng = random.Random(2718)
    for v in (J1, I2):
        letters = generator_letters(v)
        flip = {}
        for i in v.weyl_indices:
            flip[("x", i)] = gen(v, "d", i) + gen(v, "m", i)
            flip[("d", i)] = gen(v, "x", i).scale(qpow(1))
            flip[("m", i)] = gen(v, "mi", i)
            flip[("mi", i)] = gen(v, "m", i)
        specs = (
            braid_op(v, 1, 1, "prime"),
            EndoSpec(v, flip, antimultiplicative=True, bar_twist=True),
        )
        for spec in specs:
            for coeff in (scalars.ONE, qpow(2), QD * from_int(-3)):
                for n in range(4):
                    word = tuple(rng.choice(letters) for _ in range(n))
                    c = coeff.bar() if spec.bar_twist else coeff
                    expected = WeylElement.unit(v, c)
                    for letter in reversed(word) if spec.antimultiplicative else word:
                        expected = expected * spec.image(letter)
                    got = spec.apply_free(FreeExpr.word(word, coeff))
                    assert got == expected, (spec.label, word, coeff)


def test_strategy_is_checked_before_the_zero_shortcut():
    for coeff in (0, 1, scalars.ZERO):
        with pytest.raises(ValueError, match="unknown strategy 'middle'"):
            reduce_word(J2, (("x", 1),), coeff, strategy="middle")


def _random_coeff(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return qpow(rng.randint(-4, 4))
    if kind == 2:
        return scalars.from_frac(rng.randint(-9, 9) or 1, rng.randint(2, 9))
    return rng.choice((0, scalars.ZERO))


def test_reduce_word_matches_generator_products_random():
    # the reference multiplies the letters one at a time through __mul__
    rng = random.Random(4111)
    top = 0
    for kind in ("jmath", "imath"):
        for rank in (1, 2, 3, 4):
            v = Variant(kind, rank)
            letters = generator_letters(v)
            # words over few indices give long same-index subwords
            for strategy in ("left", "right"):
                for _ in range(12):
                    pool = rng.sample(list(v.weyl_indices), min(2, rank + 1))
                    if rng.random() < 0.5:
                        pool.append(rank + 1)
                    word = tuple(
                        (rng.choice(weyl.WEYL_LETTER_NAMES), rng.choice(pool))
                        if rng.random() < 0.8
                        else rng.choice(letters)
                        for _ in range(rng.randint(0, 16))
                    )
                    top += ("x", rank + 1) in word or ("d", rank + 1) in word
                    coeff = _random_coeff(rng)
                    expect = WeylElement.unit(v)
                    for name, i in word:
                        expect = expect * gen(v, name, i)
                    expect = expect.scale(coeff)
                    got = reduce_word(v, word, coeff, strategy)
                    assert got == expect, (v, word, coeff, strategy)
                    assert all(not c.is_zero for c in got.terms.values())
    assert top > 50


def test_monomial_tables_are_bounded():
    for table in (weyl._mono_support, weyl.mono_word):
        assert table.cache_info().maxsize is not None


def test_monomial_tables_match_direct_computation_random():
    # every monomial of random elements, read through the tables (filled by
    # earlier lookups or now), against its triples read directly
    rng = random.Random(3141)
    for kind in ("jmath", "imath"):
        for rank in (1, 2, 3, 4):
            v = Variant(kind, rank)
            monos = set()
            for _ in range(12):
                a = _random_elem(rng, v, nwords=3, maxlen=6)
                monos.update((a * _random_elem(rng, v)).terms)
            assert len(monos) > 20
            for mono in monos:
                support = tuple(
                    (p, v.kappa(p + 1), t) for p, t in enumerate(mono) if t != (0, 0, 0)
                )
                assert weyl._mono_support(kind, mono) == support
                word = tuple(
                    (name, p + 1)
                    for p, (a, b, c) in enumerate(mono)
                    for name in ("x",) * a + ("d",) * b + (("m",) * c if c > 0 else ("mi",) * -c)
                )
                assert mono_word(mono) == word
                assert reduce_word(v, word).terms == {mono: scalars.ONE}


def test_index_product_matches_the_left_rule():
    # _index_product is filled from _append_right; replay t1 t2 with the
    # other one-index rule, from the right end
    weyl._index_product.cache_clear()
    triples = list(_triples(2))
    for v in (J1, I2):
        for p in range(v.rank + 1):
            k = v.kappa(p + 1)
            for t1 in triples:
                for t2 in triples:
                    word = weyl._triple_word(t1) + weyl._triple_word(t2)
                    unit = (0, 0, 0, {0: (0, scalars.P_ONE)})
                    a, b, n, terms = weyl._append_left(k, unit, word[::-1])
                    # the state stands for (q - q^-1)^-n sum_c q^lo cs(q) x^a d^b m^c
                    expect = {
                        (a, b, c): qpow(lo) * QScalar(cs) * QD**n
                        for c, (lo, cs) in terms.items()
                    }
                    assert dict(weyl._index_product(k, t1, t2)) == expect


def test_products_obey_the_per_index_letter_limit():
    # a product is refused exactly when reduce_word would refuse the
    # concatenated word: m letters do not count, and the limit is per index
    n = weyl.MAX_INDEX_LETTERS
    for v in (J1, I2):
        for left, right in (
            ((("x", 1),) * 150 + (("m", 1),) * 300, (("d", 1),) * (n - 150)),
            ((("d", 1),) * n, (("x", 2),) * n),
        ):
            word = left + right
            assert reduce_word(v, left) * reduce_word(v, right) == reduce_word(v, word)
        left = (("x", 1),) * 150 + (("d", 2),) * 150
        for right in ((("d", 1),) * (n - 149), (("m", 2),) * 5 + (("d", 2),) * 51):
            with pytest.raises(ValueError, match="%d x and d letters" % (n + 1)):
                reduce_word(v, left + right)
            with pytest.raises(ValueError, match="%d x and d letters" % (n + 1)):
                reduce_word(v, left) * reduce_word(v, right)


def _rebuilt(s):
    """The scalar s rebuilt through the validating constructor."""
    if s.val >= 0:
        return QScalar(scalars.p_shift(s.num, s.val), s.den)
    return QScalar(s.num, scalars.p_shift(s.den, -s.val))


def test_reduce_word_long_same_index_subwords():
    # 12-14 x/d letters at the top index r + 1 (kappa 2 in jmath) and at the
    # kappa-1 index 1, shuffled with m^+-1 letters, through both strategies;
    # the reference multiplies the letters one at a time through __mul__
    rng = random.Random(6174)
    coeffs = (
        scalars.ONE,
        qpow(-3),
        scalars.from_frac(-5, 7),
        QScalar((1,), (1, 0, 1)),  # 1/(q^2 + 1): no (q - 1)^a (q + 1)^b shape
        QScalar((0, 3), (-1, 0, 1)) * QScalar((1, 1, 1)),
    )
    for v in (J2, I2):
        top = v.rank + 1
        for n in range(8):
            word = [(rng.choice("xd"), top) for _ in range(12 + n % 3)]
            word += [(rng.choice("xd"), 1) for _ in range(12 + n % 2)]
            word += [(rng.choice(("m", "mi")), rng.choice((1, top, 2))) for _ in range(6)]
            rng.shuffle(word)
            word = tuple(word)
            coeff = coeffs[n % len(coeffs)]
            expect = WeylElement.unit(v)
            for name, i in word:
                expect = expect * gen(v, name, i)
            expect = expect.scale(coeff)
            assert len(expect.terms) > 1
            for strategy in ("left", "right"):
                got = reduce_word(v, word, coeff, strategy)
                assert got == expect, (v, word, coeff, strategy)
                for s in got.terms.values():
                    r = _rebuilt(s)
                    assert (s.val, s.num, s.dfac) == (r.val, r.num, r.dfac)


def test_reduce_word_scalar_work(monkeypatch):
    # a word without x-d rewrites makes no scalar product; a word with
    # N > 0 rewrites makes one for coeff * (q - q^-1)^-N and one per output
    # term whose integer polynomial is not +-1 (a +-q^e is a val shift)
    calls = []
    mul = QScalar.__mul__

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    def products(v, word, coeff, strategy):
        calls.clear()
        monkeypatch.setattr(QScalar, "__mul__", counting)
        try:
            got = reduce_word(v, word, coeff, strategy)
        finally:
            monkeypatch.setattr(QScalar, "__mul__", mul)
        return got, len(calls)

    def N(word):
        # each x-d rewrite at an index uses up one x and one d there
        count = lambda name, i: sum(1 for l in word if l == (name, i))
        return sum(min(count("x", i), count("d", i)) for i in {i for _, i in word})

    J3 = Variant("jmath", 3)
    # canonical order per index: no q-shift in either strategy
    plain = (("x", 1), ("m", 1), ("d", 2), ("mi", 2), ("x", 4), ("x", 4), ("m", 4))
    shifted = (("m", 1), ("x", 1), ("d", 4), ("m", 4), ("mi", 2), ("d", 2), ("d", 2))
    rewrites = (
        (("d", 1), ("x", 1)),
        (("d", 1), ("x", 1), ("x", 2), ("d", 2)),
        (("d", 4), ("x", 4), ("d", 4), ("x", 4), ("m", 1), ("x", 1), ("d", 1)),
        (("x", 4), ("d", 4), ("d", 4), ("m", 4), ("x", 4), ("x", 4), ("d", 2)),
        (("x", 3), ("d", 3)) * 3 + (("d", 1), ("x", 1)) * 2,
    )

    def scalar(coeff):
        return from_int(coeff) if isinstance(coeff, int) else coeff

    for strategy in ("left", "right"):
        for coeff in (1, scalars.ONE, qpow(3), -qpow(-2)):
            got, n = products(J3, plain, coeff, strategy)
            ((s,),) = [got.terms.values()]
            assert n == 0 and s == coeff
            if coeff == 1:
                assert s is scalars.ONE
            got, n = products(J3, shifted, coeff, strategy)
            ((s,),) = [got.terms.values()]
            shift = s * scalar(coeff).inv()
            assert n == 0 and shift == qpow(shift.val) and shift.val != 0
        for coeff in (1, qpow(3), -qpow(-2), scalars.from_frac(-5, 7), QScalar((1,), (1, 0, 1))):
            for word in rewrites:
                got, n = products(J3, word, coeff, strategy)
                base = scalar(coeff) * QD ** N(word)
                polys = [s * base.inv() for s in got.terms.values()]
                assert all(L.dfac == scalars.D_ONE for L in polys)
                wide = sum(1 for L in polys if L.num not in ((1,), (-1,)))
                assert n == 1 + wide, (word, coeff, strategy)
                if word is rewrites[-1]:
                    assert wide > 0


def test_reduce_word_reads_a_one_shot_iterable_once():
    # the letters are validated and grouped from one tuple, so a generator
    # is not used up by the validation pass
    J3 = Variant("jmath", 3)
    for v, word in (
        (J1, (("d", 1), ("x", 1))),
        (J3, (("d", 4), ("m", 2), ("x", 4), ("x", 1), ("d", 1), ("mi", 3))),
    ):
        for strategy in ("left", "right"):
            expect = reduce_word(v, word, strategy=strategy)
            assert len(expect.terms) > 1
            assert reduce_word(v, list(word), strategy=strategy) == expect
            assert reduce_word(v, (l for l in word), strategy=strategy) == expect


def test_reduce_word_empty_word_is_its_coefficient():
    coeffs = (5, qpow(-2), scalars.from_frac(-5, 7), QScalar((1,), (1, 0, 1)), QD**3)
    for v in (J1, I2):
        for coeff in coeffs:
            for strategy in ("left", "right"):
                got = reduce_word(v, (), coeff, strategy)
                assert got.terms == {unit_mono(v): coeff}
                assert got == WeylElement.unit(v, coeff)


def test_reduce_word_multiplies_out_several_indices():
    # words touching 3 or 4 indices, some with m letters only (one term
    # each) and, in jmath, the weight-2 index 4: every choice of one term
    # per index is one output monomial, so the word equals the product of
    # the reductions of its per-index subwords
    rng = random.Random(8128)
    coeffs = (1, qpow(-3), scalars.from_frac(-5, 7), QScalar((1,), (1, 0, 1)))
    wide = top = 0
    for v in (Variant("jmath", 3), Variant("imath", 3)):
        indices = list(v.weyl_indices)
        for n in range(24):
            touched = rng.sample(indices, 3 + n % 2)
            m_only = rng.sample(touched, 1 + n % 2)
            word = []
            for i in touched:
                names = ("m", "mi") if i in m_only else weyl.WEYL_LETTER_NAMES
                word += [(rng.choice(names), i) for _ in range(rng.randint(1, 6))]
            rng.shuffle(word)
            word = tuple(word)
            coeff = coeffs[n % len(coeffs)]
            for strategy in ("left", "right"):
                expect = WeylElement.unit(v, coeff)
                multi = 0
                for i in touched:
                    part = reduce_word(v, tuple(l for l in word if l[1] == i), 1, strategy)
                    multi += len(part.terms) > 1
                    expect = expect * part
                got = reduce_word(v, word, coeff, strategy)
                assert got == expect, (v, word, coeff, strategy)
                wide += multi > 1
                top += v.kind == "jmath" and any(l in word for l in (("x", 4), ("d", 4)))
    assert wide > 5 and top > 5


def test_index_label_table_is_bounded():
    # monomial labels are joined from per-index texts kept in one bounded table
    table = weyl._index_label
    assert table.cache_info().maxsize == 1024
    for a in range(40):
        for i in range(1, 31):
            table(i, (a, 0, 1))
    assert table.cache_info().currsize == 1024
    mono = ((2, 0, -1), (0, 3, 0), (0, 0, 0), (0, 1, 1), (1, 0, 0))
    assert weyl._mono_str(mono) == "x1^2 m1^-1 d2^3 d4 m4 x5"
    assert weyl._mono_str(unit_mono(J2)) == ""


def test_integer_term_accumulation_trims_and_drops():
    # out[c] += q^lo * cs on (lo, coefficient tuple) pairs; no word in the
    # tests cancels a sum, so the trimming branches are driven directly
    out = {}
    weyl._lacc(out, 0, -1, (-2, 0, -3))  # -2q^-1 - 3q
    assert out == {0: (-1, (-2, 0, -3))}
    weyl._lacc(out, 0, -1, (2, 1))  # leading terms cancel
    assert out == {0: (0, (1, -3))}
    weyl._lacc(out, 0, 0, (2, 3))  # trailing terms cancel
    assert out == {0: (0, (3,))}
    weyl._lacc(out, 0, 2, (5,))  # the span widens
    assert out == {0: (0, (3, 0, 5))}
    weyl._lacc(out, 0, 0, (-3, 0, -5))  # everything cancels
    assert out == {}
    # out[c] -= q^lo * cs: the rewrite rules write their terms in descending
    # c order, so no word subtracts into an existing key either
    weyl._lacc(out, 1, 0, (1, 2))  # 1 + 2q
    weyl._lacc(out, 1, 1, (2, 5), -1)  # - 2q - 5q^2
    assert out == {1: (0, (1, 0, -5))}
    weyl._lacc(out, 2, -1, (4,), -1)  # a new key takes the negated terms
    assert out == {1: (0, (1, 0, -5)), 2: (-1, (-4,))}
    weyl._lacc(out, 1, 0, (1, 0, -5), -1)  # everything cancels
    assert out == {2: (-1, (-4,))}
