import os
import random
import subprocess
import sys

import pytest

import qweyl
from qweyl import scalars
from qweyl.scalars import (
    ONE,
    ZERO,
    QScalar,
    _cancel,
    _from_shape,
    _shape,
    from_frac,
    from_int,
    laurent_parts,
    p_add,
    p_div_exact,
    p_gcd,
    p_lcm,
    p_mul,
    p_neg,
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
    assert s.num == (1, 0, 1) and s.den == (0, 1)
    assert QScalar((2, 2), (4,)).num == (1, 1)
    assert QScalar((2, 2), (4,)).den == (2,)
    # 2q / 4q^2 = 1 / 2q
    s = QScalar((0, 2), (0, 0, 4))
    assert s.num == (1,) and s.den == (0, 2)
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
        blown = QScalar(
            tuple(x for x in _mul(a.num, junk)), tuple(x for x in _mul(a.den, junk))
        )
        assert blown.num == a.num and blown.den == a.den


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_q_lives_on_one_side_only():
    rng = random.Random(5)
    for _ in range(80):
        s = _rand_scalar(rng)
        if s.is_zero:
            continue
        num_div = s.num[0] == 0
        den_div = s.den[0] == 0
        assert not (num_div and den_div)


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
    t, nt, dt = laurent_parts(qpow(-3))
    assert (t, nt, dt) == (-3, (1,), (1,))
    t, nt, dt = laurent_parts(qint(3))
    assert t == -2 and nt == (1, 0, 1, 0, 1) and dt == (1,)
    t, nt, dt = laurent_parts(ONE / (q - qi))
    assert t == 1 and nt == (1,) and dt == (-1, 0, 1)


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


def _shaped(c, j, a, b):
    p = _times(_times((c,), Q_MINUS_1, a), Q_PLUS_1, b)
    return (0,) * j + p


def test_shape_examples():
    assert _shape((1, 1)) == (1, 0, 0, 1)
    assert _shape((-1, 1)) == (1, 0, 1, 0)
    for k in range(1, 7):
        assert _shape(_times((1,), (-1, 0, 1), k)) == (1, 0, k, k)
    assert _shape(_shaped(2, 3, 2, 2)) == (2, 3, 2, 2)
    assert _shape((0, 0, 0, 2, 0, -4, 0, 2)) == (2, 3, 2, 2)  # 2q^3(q^2-1)^2
    assert _shape((1,)) == (1, 0, 0, 0)
    assert _shape((0, 0, -3)) == (-3, 2, 0, 0)
    assert _shape((1, 0, 1)) is None
    assert _shape((1, 1, 1)) is None
    assert _shape((1, 2)) is None
    assert _shape(_times((1, 0, 1), Q_MINUS_1, 2)) is None


def test_from_shape_round_trip():
    for s in ((1, 0, 0, 0), (3, 2, 1, 0), (-2, 0, 4, 6), (1, 5, 6, 6)):
        assert _from_shape(s) == _shaped(*s)
        assert _shape(_from_shape(s)) == s


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
    return _shaped(c, rng.randint(0, 5), rng.randint(0, 6), rng.randint(0, 6))


UNSHAPED = ((1, 0, 1), (1, 1, 1), (1, 2))


def _rand_den(rng):
    d = _rand_shaped_den(rng)
    if rng.random() < 0.3:
        d = p_mul(d, rng.choice(UNSHAPED))
    return d


def _by_gcd(n, d):
    g = p_gcd(n, d)
    return p_div_exact(n, g), p_div_exact(d, g)


def test_cancel_matches_gcd():
    rng = random.Random(20261017)
    for _ in range(600):
        n = _rand_num(rng)
        d = _rand_den(rng)
        assert _cancel(n, d) == _by_gcd(n, d), (n, d)
    for d in UNSHAPED:
        for n in (d, p_mul(d, (3, 0, 1)), (5,), p_mul(d, (0, -1, 1))):
            assert _cancel(n, d) == _by_gcd(n, d), (n, d)


def _reference(n, d):
    # canonical form through the general gcd alone
    if not n:
        return (), (1,)
    n, d = _by_gcd(n, d)
    if d[-1] < 0:
        n, d = p_neg(n), p_neg(d)
    return n, d


def _rand_shaped_scalar(rng):
    n, d = _reference(_rand_num(rng), _rand_den(rng))
    return QScalar._raw(n, d)


def test_products_and_sums_match_general_gcd():
    rng = random.Random(1017)
    for _ in range(400):
        a = _rand_shaped_scalar(rng)
        b = _rand_shaped_scalar(rng)
        prod = a * b
        want = _reference(p_mul(a.num, b.num), p_mul(a.den, b.den))
        assert (prod.num, prod.den) == want
        old = QScalar(p_mul(a.num, b.num), p_mul(a.den, b.den))
        assert (prod.num, prod.den) == (old.num, old.den)
        total = a + b
        want = _reference(p_add(p_mul(a.num, b.den), p_mul(b.num, a.den)), p_mul(a.den, b.den))
        assert (total.num, total.den) == want
        b = QScalar(b.num, a.den)
        if b.den == a.den:
            same = a + b
            assert (same.num, same.den) == _reference(p_add(a.num, b.num), a.den)


def test_lcm_of_shapes_matches_gcd_formula():
    rng = random.Random(77)
    for _ in range(200):
        a = _rand_shaped_den(rng)
        b = _rand_shaped_den(rng)
        if a[-1] < 0:
            a = p_neg(a)
        if b[-1] < 0:
            b = p_neg(b)
        want = p_mul(a, p_div_exact(b, p_gcd(a, b)))
        assert p_lcm(a, b) == want


def test_constant_tables_are_bounded(monkeypatch):
    cap = 5
    monkeypatch.setattr(scalars, "_CONST_TABLE_MAX", cap)
    tables = {
        "_int_cache": scalars._INT_SEED,
        "_qpow_cache": scalars._UNIT_SEED,
        "_qint_cache": {},
    }
    for name, seed in tables.items():
        monkeypatch.setattr(scalars, name, dict(seed))

    def sizes_ok():
        return all(len(getattr(scalars, name)) <= cap for name in tables)

    for k in range(-12, 13):
        expected = QScalar((0,) * k + (1,)) if k >= 0 else QScalar((1,), (0,) * -k + (1,))
        assert qpow(k) == expected
        assert from_int(3 * k) == QScalar(3 * k)
        assert qint(k) == (qpow(k) - qpow(-k)) / (qpow(1) - qpow(-1))
        assert sizes_ok()
    # 25 keys each went through tables of 5 entries, so every table started
    # over more than once, and the seeds came back each time
    assert qpow(0) is ONE
    assert from_int(0) is ZERO and from_int(1) is ONE
    assert from_int(-1) is scalars.MINUS_ONE
    for _ in range(2):
        fact = dfact = ONE
        for n in range(1, 10):
            fact = fact * qint(n)
            dfact = dfact * qint(2 * n)
            assert qfact(n) == fact and qdoublefact(n) == dfact
            assert sizes_ok()
    assert qfact(0) is ONE and qdoublefact(0) is ONE
