import os
import random
import subprocess
import sys
import time

import pytest

import qweyl
from qweyl import scalars
from qweyl.scalars import (
    D_ONE,
    ONE,
    P_ONE,
    ZERO,
    QScalar,
    _cancel,
    _den_lcm,
    _expand,
    _split,
    from_frac,
    from_int,
    p_add,
    p_div_exact,
    p_gcd,
    p_mul,
    p_neg,
    p_shift,
    p_trim,
    p_val,
    qdoublefact,
    qfact,
    qint,
    qpow,
)

q = qpow(1)
qi = qpow(-1)


def test_canonical_form_examples():
    # expected tuples written out by hand
    s = q + qi
    assert (s.val, s.num, s.den) == (-1, (1, 0, 1), (1,))
    s = QScalar((2, 2), (4,))
    assert (s.val, s.num, s.den) == (0, (1, 1), (2,))
    # 2q / 4q^2 = 1 / 2q
    s = QScalar((0, 2), (0, 0, 4))
    assert (s.val, s.num, s.den) == (-1, (1,), (2,))
    # denominator sign normalizes to positive leading coefficient
    s = QScalar((1,), (-1, 1))
    assert s.den == (-1, 1) or s.den[-1] > 0
    assert s.den[-1] > 0


def test_zero_and_one():
    assert (q - q).is_zero
    assert q * qi == ONE
    assert ZERO + ONE == ONE
    assert from_int(0) == ZERO
    assert not ZERO
    assert ONE


def test_integer_scalars_hash_like_ints():
    for n in (0, 1, -1, 5):
        s = from_int(n)
        assert s == n and hash(s) == hash(n)
        assert len({s, n}) == 1
        assert {n: "x"}.get(s) == "x"
        assert {s: "y"}.get(n) == "y"
    assert hash(QScalar((5,), (1,))) == hash(5)
    assert {q: 1}.get(q * ONE) == 1


def test_zero_divisor_errors():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        QScalar((1,), ())
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        ONE / ZERO


def test_add_mul_mixed_denominators():
    a = ONE / (q - qi)
    b = q / (q + qi)
    s = a + b
    # common denominator check done by round trip
    assert s * (q - qi) * (q + qi) == (q + qi) + q * (q - qi)
    assert a * (q - qi) == ONE
    assert (a - a).is_zero


def test_int_coercion():
    assert 2 * q == q + q
    assert q + 1 == QScalar((1, 1))
    assert 1 - q == QScalar((1, -1))
    assert (q * q) / 1 == q ** 2
    assert from_frac(3, 2) + from_frac(1, 2) == 2


def test_pow():
    assert q ** 3 == q * q * q
    assert q ** 0 == ONE
    assert q ** -2 == qi * qi
    s = (q + qi) ** 2
    assert s == q * q + 2 + qi * qi


def test_bar_examples():
    assert q.bar() == qi
    assert from_int(7).bar() == from_int(7)
    # bar(1/(q - q^-1)) = -1/(q - q^-1)
    s = ONE / (q - qi)
    assert s.bar() == -s
    assert (q + qi).bar() == q + qi


def test_bar_is_involutive_ring_map():
    rng = random.Random(7)
    for _ in range(60):
        a = _rand_scalar(rng)
        b = _rand_scalar(rng)
        assert a.bar().bar() == a
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()


def test_qint_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == q + qi
    assert qint(3) == q ** 2 + 1 + q ** -2
    assert qint(-2) == -qint(2)
    # defining fraction
    for n in range(1, 8):
        assert qint(n) * (q - qi) == q ** n - q ** -n


def test_qint_recursion():
    for n in range(0, 21):
        assert qint(n + 1) == q * qint(n) + q ** -n


def test_qint_bar_invariant():
    for n in range(0, 12):
        assert qint(n).bar() == qint(n)


def test_qfact_and_doublefact():
    assert qfact(0) == ONE
    assert qfact(3) == qint(3) * qint(2) * qint(1)
    assert qdoublefact(0) == ONE
    assert qdoublefact(1) == qint(2)
    assert qdoublefact(3) == qint(6) * qint(4) * qint(2)
    with pytest.raises(ValueError):
        qfact(-1)
    with pytest.raises(ValueError):
        qdoublefact(-1)


def test_factorials_do_not_recurse():
    fact = dfact = ONE
    for n in range(1, 61):
        fact = fact * qint(n)
    for a in range(1, 31):
        dfact = dfact * qint(2 * a)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    # about 30 frames of headroom: enough for one product, far too few
    # for a recursion through every factor
    sys.setrecursionlimit(depth + 30)
    try:
        got = qfact(60), qdoublefact(30)
    finally:
        sys.setrecursionlimit(limit)
    assert got == (fact, dfact)


def _rand_poly(rng, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, 4)
    if n == 0:
        return ()
    cs = [rng.randint(-4, 4) for _ in range(n)]
    cs[-1] = rng.choice([1, -1, 2, -3])
    return tuple(cs)


def _rand_scalar(rng, nonzero=False):
    num = _rand_poly(rng, allow_zero=not nonzero)
    den = _rand_poly(rng, allow_zero=False)
    return QScalar(num, den)


def test_field_axioms_random():
    rng = random.Random(20240817)
    for _ in range(150):
        a = _rand_scalar(rng)
        b = _rand_scalar(rng)
        c = _rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert (a - a).is_zero
        if not b.is_zero:
            assert (a / b) * b == a
            assert b * b.inv() == ONE


def test_canonicalization_is_unique():
    rng = random.Random(99)
    for _ in range(80):
        a = _rand_scalar(rng)
        junk = _rand_poly(rng, allow_zero=False)
        n, d = _full(a)
        blown = QScalar(_mul(n, junk), _mul(d, junk))
        assert (blown.val, blown.num, blown.den) == (a.val, a.num, a.den)


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _full(s):
    # q^val * num/den as one fraction: the q-power joins one side
    if s.val >= 0:
        return p_shift(s.num, s.val), s.den
    return s.num, p_shift(s.den, -s.val)


def test_q_lives_on_one_side_only():
    rng = random.Random(5)
    for _ in range(80):
        s = _rand_scalar(rng)
        if s.is_zero:
            continue
        assert s.num[0] != 0 and s.den[0] != 0


def test_render():
    assert str(q + qi) == "(q^2 + 1)/(q)"
    assert str(from_int(5)) == "5"
    assert str(from_int(-3)) == "-3"
    assert str(ZERO) == "0"
    assert str(q ** 2 - 1) == "q^2 - 1"
    assert str(qpow(-2)) == "(1)/(q^2)"
    assert str(2 * q ** 3 + q) == "2*q^3 + q"
    assert str(from_frac(3, 2)) == "(3)/(2)"


def test_laurent_parts():
    # a scalar is stored as its Laurent split q^val * num/den
    s = qpow(-3)
    assert (s.val, s.num, s.den) == (-3, (1,), (1,))
    s = qint(3)
    assert (s.val, s.num, s.den) == (-2, (1, 0, 1, 0, 1), (1,))
    s = ONE / (q - qi)
    assert (s.val, s.num, s.den) == (1, (1,), (-1, 0, 1))
    # stored as its factors: 1 * (q - 1)^1 * (q + 1)^1 * 1
    assert s.dfac == (1, 1, 1, (1,))


def test_qpow_is_an_integer_exponent():
    s = qpow(3)
    assert (s.val, s.num, s.den) == (3, (1,), (1,))
    # a huge exponent costs no more than a small one
    t0 = time.perf_counter()
    big, small = qpow(10**9), qpow(-(10**9))
    assert big * small == 1
    assert big.bar() == small
    assert str(small) == "(1)/(q^1000000000)"
    assert time.perf_counter() - t0 < 1


def _bar_of_fraction(n, d):
    # bar on the canonical fraction n/d: reverse both sides, drop the
    # trailing zeros, then pad with a q-power so the degrees balance
    rn = p_trim(tuple(reversed(n)))
    rd = p_trim(tuple(reversed(d)))
    dn = len(n) - 1
    dd = len(d) - 1
    if dd >= dn:
        rn = p_shift(rn, dd - dn)
    else:
        rd = p_shift(rd, dn - dd)
    if rd[-1] < 0:
        rn, rd = p_neg(rn), p_neg(rd)
    return rn, rd


def test_bar_matches_fraction_formula():
    rng = random.Random(4242)
    signs = set()
    for _ in range(300):
        s = _rand_shaped_scalar(rng)
        if s.is_zero:
            continue
        signs.add((s.val > 0) - (s.val < 0))
        assert _full(s.bar()) == _bar_of_fraction(*_full(s))
    assert signs == {-1, 0, 1}


def test_inexact_division_raises_under_python_O():
    # (q^2 + 1)/(q + 1) is not exact; without a real check it returns q - 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(qweyl.__file__)))
    code = (
        "from qweyl.scalars import p_div_exact\n"
        "try:\n"
        "    print(p_div_exact((1, 0, 1), (1, 1)))\n"
        "except ArithmeticError as err:\n"
        "    print('raised:', err)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    assert out == "raised: inexact polynomial division\n"


Q_MINUS_1 = (-1, 1)
Q_PLUS_1 = (1, 1)


def _times(p, factor, k):
    for _ in range(k):
        p = p_mul(p, factor)
    return p


def _shaped(c, a, b):
    return _times(_times((c,), Q_MINUS_1, a), Q_PLUS_1, b)


def test_shape_examples():
    # _split(p) = (c, a, b, r) with p = c (q - 1)^a (q + 1)^b r
    assert _split((1, 1)) == (1, 0, 1, P_ONE)
    assert _split((-1, 1)) == (1, 1, 0, P_ONE)
    for k in range(1, 7):
        assert _split(_times((1,), (-1, 0, 1), k)) == (1, k, k, P_ONE)
    assert _split(_shaped(2, 2, 2)) == (2, 2, 2, P_ONE)
    assert _split((2, 0, -4, 0, 2)) == (2, 2, 2, P_ONE)  # 2(q^2-1)^2
    assert _split((1,)) == (1, 0, 0, P_ONE)
    assert _split((-3,)) == (-3, 0, 0, P_ONE)
    # what is not a product of (q - 1) and (q + 1) stays in r: primitive,
    # positive leading coefficient, sign and content in c
    assert _split((1, 0, 1)) == (1, 0, 0, (1, 0, 1))
    assert _split((1, 1, 1)) == (1, 0, 0, (1, 1, 1))
    assert _split((1, 2)) == (1, 0, 0, (1, 2))
    assert _split(_times((1, 0, 1), Q_MINUS_1, 2)) == (1, 2, 0, (1, 0, 1))
    assert _split(_times((-6, 0, -6), Q_PLUS_1, 3)) == (-6, 0, 3, (1, 0, 1))


def test_from_shape_round_trip():
    for s in ((1, 0, 0), (3, 1, 0), (-2, 4, 6), (1, 6, 6)):
        assert _expand(P_ONE, *s, P_ONE) == _shaped(*s)
        assert _split(_expand(P_ONE, *s, P_ONE)) == s + (P_ONE,)
    for s in ((1, 0, 0, (1, 0, 1)), (4, 2, 1, (1, 1, 1)), (-3, 0, 5, (2, 0, 0, 1))):
        d = _expand(P_ONE, *s)
        assert d == p_mul(_shaped(*s[:3]), s[3])
        assert _split(d) == s
    # a numerator times the factors, multiplied out in one list
    assert _expand((2, -1), 3, 2, 1, (1, 0, 1)) == p_mul((2, -1), _expand(P_ONE, 3, 2, 1, (1, 0, 1)))


def test_expand_matches_factor_by_factor_products_random():
    # _expand writes (q - 1)^a (q + 1)^b down from binomial coefficients;
    # the reference multiplies by c, each factor q -+ 1 and r one at a time
    rng = random.Random(4711)
    seen = set()
    for _ in range(300):
        p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 4))) + (rng.choice((1, -2, 3)),)
        c = rng.choice((1, 1, 2, 3, 12))
        a, b = rng.randint(0, 9), rng.randint(0, 9)
        r = P_ONE if rng.random() < 0.5 else p_mul(rng.choice(UNSHAPED), rng.choice(UNSHAPED))
        want = _times(_times(tuple(x * c for x in p), Q_MINUS_1, a), Q_PLUS_1, b)
        assert _expand(p, c, a, b, r) == p_mul(want, r), (p, c, a, b, r)
        seen.add((a != b, c != 1, r != P_ONE, p != P_ONE))
    assert (True, True, True, True) in seen


def test_gcd_degree_limit():
    # p_gcd refuses operands whose degrees, q-powers removed, have a product
    # above the limit, before its remainder sequence runs
    n = scalars.MAX_GCD_DEGREES
    assert n == 100 * 100
    deg100 = (1,) + (0,) * 99 + (1,)  # q^100 + 1
    deg101 = (1,) * 102
    assert p_gcd(deg100, p_shift(deg100, 7)) == deg100
    assert p_gcd(deg101, (1, 1)) == (1, 1)
    with pytest.raises(ValueError, match="degrees 101 and 100, above the limit of %d" % n):
        p_gcd(deg101, deg100)
    with pytest.raises(ValueError, match="degrees 100 and 101"):
        p_gcd(p_shift(deg100, 3), deg101)


def test_gcd_coefficient_limit():
    # p_gcd refuses primitive parts whose size deg b * bits(A) + deg a * bits(B)
    # is above the limit; integer content does not count
    n = scalars.MAX_GCD_BITS
    a = (1,) * 101  # degree 100, 1-bit coefficients
    wide = (1, 2**400 - 1)  # degree 1, 400-bit coefficients
    assert 1 * 1 + 100 * 400 > n >= 1 * 1 + 100 * 399
    assert p_gcd(a, (1, 2**399 - 1)) == (1,)
    assert p_gcd(tuple(7**500 * x for x in a), (7**500, 7**500)) == (7**500,)
    with pytest.raises(ValueError, match="size %d above the limit of %d" % (1 + 100 * 400, n)):
        p_gcd(a, wide)
    with pytest.raises(ValueError, match="degrees 1 and 100 with 400- and 1-bit"):
        p_gcd(p_shift(wide, 2), p_shift(a, 5))


def _rand_num(rng):
    n = rng.randint(1, 6)
    p = tuple(rng.randint(-9, 9) for _ in range(n - 1)) + (rng.choice((1, -1, 2, -5)),)
    kind = rng.randrange(5)
    if kind == 1:
        p = (0,) * rng.randint(1, 5) + p
    elif kind == 2:
        p = _times(_times(p, Q_MINUS_1, rng.randint(0, 7)), Q_PLUS_1, rng.randint(0, 7))
    elif kind == 3:
        p = tuple(x * rng.choice((2, 3, 6, 12)) for x in p)
    elif kind == 4:
        p = (0,) * rng.randint(0, 3) + _times(p, (-2, 0, 2), rng.randint(1, 4))
    return p


def _rand_shaped_den(rng):
    c = rng.choice((1, 1, 1, 2, 3, 4, 6, 9, -1, -6))
    return _shaped(c, rng.randint(0, 6), rng.randint(0, 6))


# q^2 + q - 1 has a negative constant term: reversing it (bar) flips its sign
UNSHAPED = ((1, 0, 1), (1, 1, 1), (1, 2), (-1, 1, 1))


def _rand_den(rng):
    d = _rand_shaped_den(rng)
    if rng.random() < 0.3:
        d = p_mul(d, rng.choice(UNSHAPED))
    return d


def _by_gcd(n, d):
    g = p_gcd(n, d)
    return p_div_exact(n, g), p_div_exact(d, g)


def _factored(d):
    # the stored factors of a denominator with positive leading coefficient
    c, a, b, r = _split(d)
    assert c > 0
    return c, a, b, r


def test_cancel_matches_gcd():
    # _cancel works on factored denominators; the reference divides the
    # multiplied-out polynomials by their general gcd
    rng = random.Random(20261017)
    for _ in range(600):
        n = _rand_num(rng)
        n = n[p_val(n):]
        d = _rand_den(rng)
        if d[-1] < 0:
            d = p_neg(d)
        gn, gd = _by_gcd(n, d)
        assert _cancel(n, _factored(d)) == (gn, _factored(gd)), (n, d)
    for d in UNSHAPED:
        for n in (d, p_mul(d, (3, 0, 1)), (5,), p_mul(d, (0, -1, 1))):
            gn, gd = _by_gcd(n, d)
            assert _cancel(n, _factored(d)) == (gn, _factored(gd)), (n, d)


def _reference(n, d):
    # canonical form through the general gcd alone
    if not n:
        return (), (1,)
    n, d = _by_gcd(n, d)
    if d[-1] < 0:
        n, d = p_neg(n), p_neg(d)
    return n, d


def _check_canonical(s, n, d):
    # s is n/d, in the form the general gcd alone gives, and stores the
    # factors of that denominator
    full = _full(s)
    assert full == _reference(n, d)
    assert s.dfac == _factored(full[1][p_val(full[1]):])


def _rand_shaped_scalar(rng):
    # a scalar built through the constructor and checked against the general
    # gcd; the denominator may carry a power of q, so val takes both signs
    d = p_shift(_rand_den(rng), rng.randint(0, 5))
    n = _rand_num(rng)
    s = QScalar(n, d)
    _check_canonical(s, n, d)
    return s


def test_products_and_sums_match_general_gcd():
    rng = random.Random(1017)
    for _ in range(400):
        a = _rand_shaped_scalar(rng)
        b = _rand_shaped_scalar(rng)
        (an, ad), (bn, bd) = _full(a), _full(b)
        # the inverse factors the numerator into the new denominator
        _check_canonical(a.inv(), ad, an)
        prod = a * b
        _check_canonical(prod, p_mul(an, bn), p_mul(ad, bd))
        old = QScalar(p_mul(an, bn), p_mul(ad, bd))
        assert (prod.val, prod.num, prod.dfac) == (old.val, old.num, old.dfac)
        total = a + b
        _check_canonical(total, p_add(p_mul(an, bd), p_mul(bn, ad)), p_mul(ad, bd))
        b = QScalar(bn, a.den)
        if b.den == a.den:
            same = a + b
            bn, bd = _full(b)
            _check_canonical(same, p_add(p_mul(an, bd), p_mul(bn, ad)), p_mul(ad, bd))


def _lcm(a, b):
    # the lcm of two denominators through their factors; a q-power, which a
    # scalar keeps in val, is split off first
    va, vb = p_val(a), p_val(b)
    d = _den_lcm(_factored(a[va:]), _factored(b[vb:]))
    return p_shift(_expand(P_ONE, *d), max(va, vb))


def test_lcm_of_shapes_matches_gcd_formula():
    rng = random.Random(77)
    pairs = []
    for _ in range(200):
        # shaped pairs, and pairs with cofactors r != 1
        draw = _rand_shaped_den if rng.random() < 0.5 else _rand_den
        pairs.append((draw(rng), draw(rng)))
    # a unit operand (D_ONE once q-powers are split off) on either side, and
    # equal operands whose cofactor r is not 1
    dens = [_shaped(6, 2, 1), p_mul(_shaped(2, 0, 3), (1, 0, 1)), (1, 1, 1), (-1, 1, 1)]
    for d in dens:
        pairs += [((1,), d), (d, (1,)), ((0, 0, 1), d), (d, (0, 1))]
    for d in dens[1:]:
        assert _split(d[p_val(d):])[3] != P_ONE
        pairs.append((d, d))
    for a, b in pairs:
        if a[-1] < 0:
            a = p_neg(a)
        if b[-1] < 0:
            b = p_neg(b)
        want = p_mul(a, p_div_exact(b, p_gcd(a, b)))
        assert _lcm(a, b) == want


def test_lcm_and_gcd_of_non_shape_polynomials():
    # in each pair one is not a product of q-powers, (q - 1) and (q + 1), so
    # its cofactor r is not 1; where both are, the denominator lcm takes the
    # gcd of the cofactors
    pairs = [
        ((1, 1, 1), (1, 0, 1)),
        ((2, 0, 2), (3, 0, 0, 3)),
        ((2, 0, 2), (0, 0, 4, 0, 4)),
        ((1, -1, 1), p_mul((1, -1, 1), (1, 1, 1))),
        ((6, 3, 3), (1, 2, 1)),
        ((-1, 0, 0, 1), (1, 1, 1)),
    ]
    for a, b in pairs:
        assert _split(a[p_val(a):])[3] != P_ONE or _split(b[p_val(b):])[3] != P_ONE
        g = p_gcd(a, b)
        lcm = _lcm(a, b)
        assert lcm[-1] > 0 and g[-1] > 0
        assert p_mul(lcm, g) in (p_mul(a, b), p_neg(p_mul(a, b)))
        assert p_div_exact(lcm, a) and p_div_exact(lcm, b)
    assert p_gcd((1, 1, 1), (1, 0, 1)) == (1,)
    assert _lcm((1, 1, 1), (1, 0, 1)) == p_mul((1, 1, 1), (1, 0, 1))
    assert p_gcd((2, 0, 2), (3, 0, 0, 3)) == (1,)
    assert p_gcd((2, 0, 2), (0, 0, 4, 0, 4)) == (2, 0, 2)
    assert _lcm((2, 0, 2), (0, 0, 4, 0, 4)) == (0, 0, 4, 0, 4)
    # an empty (zero) operand: the gcd is the other one, made positive
    assert p_gcd((), (1, 0, -2)) == (-1, 0, 2)
    assert p_gcd((1, -3), ()) == (-1, 3)
    assert p_gcd((), ()) == ()


def test_constants_values_and_identities():
    # weyl and polymod compare ONE by identity
    assert qpow(0) is ONE
    assert from_int(0) is ZERO and from_int(1) is ONE
    assert from_int(-1) is scalars.MINUS_ONE
    assert qfact(0) is ONE and qdoublefact(0) is ONE
    for k in range(-12, 13):
        expected = QScalar((0,) * k + (1,)) if k >= 0 else QScalar((1,), (0,) * -k + (1,))
        assert qpow(k) == expected
        assert from_int(3 * k) == QScalar(3 * k)
        assert qint(k) == (qpow(k) - qpow(-k)) / (qpow(1) - qpow(-1))
    fact = dfact = ONE
    for n in range(1, 10):
        fact = fact * qint(n)
        dfact = dfact * qint(2 * n)
        assert qfact(n) == fact and qdoublefact(n) == dfact
    # constants are built, not remembered, and arithmetic keeps no table:
    # no module table grows, and the one there is holds the three constants
    tables = {k: v for k, v in vars(scalars).items() if isinstance(v, dict) and k[:2] != "__"}
    assert set(tables) == {"_SMALL_INTS"}
    sizes = {k: len(v) for k, v in tables.items()}
    qpow(4321), from_int(4321), qint(4321)
    v = qweyl.Variant("jmath", 2)
    qweyl.parse("x1/(q^2+q+1) + d1/(q^2+1)", "weyl", v)
    qweyl.parse("3/4 x3^3 d3^5 x3^2 m3^-1 d3 x3 d3^4 / (q^2 + 1)", "weyl", v)
    assert {k: len(v) for k, v in tables.items()} == sizes


def test_power_of_a_constant_fraction_is_one_int_power():
    t0 = time.perf_counter()
    assert qpow(1) ** 10**9 == qpow(10**9)
    assert (-qpow(2)) ** 3 == -qpow(6)
    assert from_frac(-2, 3) ** 5 == from_frac(-32, 243)
    assert time.perf_counter() - t0 < 1.0


def test_pow_matches_repeated_multiplication():
    rng = random.Random(606)
    for _ in range(60):
        s = _rand_shaped_scalar(rng)
        if s.is_zero:
            continue
        prod = ONE
        for k in range(7):
            got = s ** k
            assert (got.val, got.num, got.dfac) == (prod.val, prod.num, prod.dfac)
            prod = prod * s


def test_numerators_over_the_common_denominator_keep_a_constant_term():
    # terms_str takes every coefficient over the lcm D of their denominators
    # and reads a single q-power off a one-coefficient numerator: that needs
    # each numerator num * D/den to be nonzero at q = 0
    rng = random.Random(2929)
    for _ in range(300):
        coeffs = [QScalar(_rand_num(rng), _rand_den(rng)) for _ in range(rng.randint(1, 4))]
        D = D_ONE
        for s in coeffs:
            D = _den_lcm(D, s.dfac)
        dpoly = _expand(P_ONE, *D)
        for s in coeffs:
            n = scalars._over(s.num, D, s.dfac)
            assert n[0] != 0
            assert s == qpow(s.val) * QScalar(n, dpoly)


def test_terms_str_pinned():
    # single q-powers inline, +-1 vanishing, a lone longer numerator bare,
    # and a shared denominator centred on q^0
    ts = scalars.terms_str
    assert ts([]) == "0"
    assert ts([("", ONE)]) == "1"
    assert ts([("x1", -ONE), ("", qpow(-1))]) == "-x1 + q^-1"
    assert ts([("m1", from_int(-3) * q), ("d2", qpow(2))], sep=" ") == "-3*q m1 + q^2 d2"
    assert ts([("", q + 1)]) == "q + 1"
    assert ts([("x1", q + 1), ("", from_int(2))]) == "(q + 1)*x1 + 2"
    one_over = ONE / (q - qi)
    assert ts([("m1", one_over), ("", qi / (q * q - 1))]) == "(m1 + q^-2)/(q - q^-1)"
    assert ts([("x1", ONE / (q * q + 1)), ("", from_frac(1, 2))]) == (
        "(2*q^-1*x1 + (q + q^-1))/(2*q + 2*q^-1)"
    )
