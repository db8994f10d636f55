import random

import pytest

from qweyl import iqg, parser, scalars
from qweyl.expressions import FreeExpr, qcomm
from qweyl.parser import ParseError, parse
from qweyl.polymod import PolyElement
from qweyl.satake import Variant
from qweyl.scalars import qpow
from qweyl.weyl import WeylElement, generator_letters, reduce_word

J2 = Variant("jmath", 2)
I2 = Variant("imath", 2)


def test_pinned_normalization_string():
    e = parse("d1 x1", "weyl", I2)
    assert e == reduce_word(I2, (("d", 1), ("x", 1)))
    assert str(e) == "(q*m1 - q^-1*m1^-1)/(q - q^-1)"


def test_juxtaposition_and_precedence():
    assert parse("x1 x2", "weyl", J2) == parse("x1*x2", "weyl", J2)
    assert parse("x1 + 2 d1", "weyl", J2) == parse("x1", "weyl", J2) + parse(
        "d1", "weyl", J2
    ).scale(scalars.from_int(2))
    assert parse("q^-1 m1", "weyl", J2) == WeylElement.generator(J2, "m", 1).scale(
        qpow(-1)
    )
    assert parse("m1^-1", "weyl", J2) == WeylElement.generator(J2, "mi", 1)
    assert parse("m1^0", "weyl", J2) == WeylElement.unit(J2)
    assert parse("x1^2", "weyl", J2) == parse("x1 x1", "weyl", J2)
    assert parse("-d2", "weyl", J2) == -WeylElement.generator(J2, "d", 2)
    assert parse("3/2", "weyl", J2) == WeylElement.unit(J2).scale(
        scalars.from_frac(3, 2)
    )


def test_commutator_sugar():
    b1b2 = FreeExpr.word((("B", 1), ("B", 2)))
    b2b1 = FreeExpr.word((("B", 2), ("B", 1)))
    assert parse("[B1,B2]_-", "iqg", J2) == b1b2 - b2b1.scale(qpow(-1))
    assert parse("[B1,B2]_+", "iqg", J2) == b1b2 - b2b1.scale(qpow(1))
    assert parse("[B1,B2]_", "iqg", J2) == b1b2 - b2b1.scale(qpow(1))
    # nests and mixes with ordinary arithmetic
    inner = parse("[[B1,B2]_+, B3]_-", "iqg", J2)
    outer = parse("[B1,B2]_+", "iqg", J2)
    b3 = FreeExpr.letter("B", 3)
    assert inner == outer * b3 - (b3 * outer).scale(qpow(-1))
    # in the weyl context the commutator reduces on the spot
    w = parse("[x1, d1]_-", "weyl", J2)
    x1, d1 = WeylElement.generator(J2, "x", 1), WeylElement.generator(J2, "d", 1)
    assert w == x1 * d1 - (d1 * x1).scale(qpow(-1))


def test_commutators_go_through_qcomm_in_every_context(monkeypatch):
    seen = []
    qcomm = parser.qcomm

    def spy(x, y, e):
        seen.append((type(x), type(y), e))
        return qcomm(x, y, e)

    monkeypatch.setattr(parser, "qcomm", spy)
    x1 = PolyElement.monomial(J2, (1, 0, 0))
    x2 = PolyElement.monomial(J2, (0, 1, 0))
    assert parse("[X1, X2]_-", "poly", J2) == x1 * x2 - (x2 * x1).scale(qpow(-1))
    assert parse("[2, X1]_+", "poly", J2) == x1.scale(2 - 2 * qpow(1))
    parse("[x1, d1]_-", "weyl", J2)
    parse("[B1, B2]_+", "iqg", J2)
    assert seen == [
        (PolyElement, PolyElement, -1),
        (PolyElement, PolyElement, 1),
        (WeylElement, WeylElement, -1),
        (FreeExpr, FreeExpr, 1),
    ]


def test_scalar_expressions_become_elements():
    e = parse("q", "weyl", J2)
    assert isinstance(e, WeylElement) and e == WeylElement.unit(J2).scale(qpow(1))
    p = parse("(q + q^-1)/2", "poly", J2)
    assert isinstance(p, PolyElement)
    assert p == PolyElement.unit(J2).scale((qpow(1) + qpow(-1)) * scalars.from_frac(1, 2))
    f = parse("2", "iqg", J2)
    assert isinstance(f, FreeExpr) and f == FreeExpr.from_scalar(scalars.from_int(2))


def test_weyl_round_trip_random():
    rng = random.Random(9241)
    letters = generator_letters(J2)
    for _ in range(40):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        coeff = qpow(rng.randint(-3, 3))
        if rng.random() < 0.4:
            coeff = coeff + qpow(rng.randint(-2, 2))
        elem = reduce_word(J2, word, coeff)
        assert parse(str(elem), "weyl", J2) == elem


def test_poly_round_trip_random():
    rng = random.Random(77)
    for _ in range(40):
        poly = PolyElement(J2, {})
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(0, 4) for _ in range(3))
            poly = poly + PolyElement.monomial(J2, exps, qpow(rng.randint(-4, 4)))
        assert parse(str(poly), "poly", J2) == poly


def test_iqg_round_trip_random():
    rng = random.Random(5150)
    letters = iqg.iqg_letters(I2)
    for _ in range(40):
        expr = FreeExpr.zero()
        for _ in range(rng.randint(0, 4)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            expr = expr + FreeExpr.word(word, qpow(rng.randint(-3, 3)))
        assert parse(str(expr), "iqg", I2) == expr


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown generator 'y1'"):
        parse("y1", "weyl", J2)
    with pytest.raises(ParseError, match="K3 illegal: rho fixes node 3"):
        parse("K3", "iqg", I2)
    with pytest.raises(ParseError, match=r"index out of range: X5"):
        parse("X5", "poly", J2)
    with pytest.raises(ParseError, match="division by a non-scalar"):
        parse("x1 / d1", "weyl", J2)
    with pytest.raises(ParseError, match="division by zero"):
        parse("x1 / 0", "weyl", J2)
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x1 @ x2", "weyl", J2)
    with pytest.raises(ParseError, match="unexpected ','"):
        parse("x1 , x2", "weyl", J2)
    with pytest.raises(ParseError, match="negative power of B1"):
        parse("B1^-1", "iqg", J2)
    with pytest.raises(ParseError, match="negative exponent on X1"):
        parse("X1^-1", "poly", J2)
    with pytest.raises(ParseError, match="negative power of a non-scalar"):
        parse("(x1 + d1)^-1", "weyl", J2)
    with pytest.raises(ParseError, match="expected 'INT'"):
        parse("q^", "weyl", J2)
    with pytest.raises(ParseError, match="expected an expression"):
        parse("x1 +", "weyl", J2)
    with pytest.raises(ParseError, match="unknown generator 'X2'"):
        parse("X2", "weyl", J2)
    err = None
    try:
        parse("x1 + y2", "weyl", J2)
    except ParseError as caught:
        err = caught
    assert err is not None and err.pos == 5
    with pytest.raises(ValueError, match="unknown context"):
        parse("x1", "algebra", J2)


def test_negative_k_powers():
    expr = parse("K2^-2", "iqg", J2)
    ki = FreeExpr.letter("Ki", 2)
    assert expr == ki * ki
    # a parenthesised scalar can carry a negative power
    assert parse("(2)^-1", "weyl", J2) == WeylElement.unit(J2).scale(
        scalars.from_frac(1, 2)
    )



def _random_expr(rng, ctx, v, depth):
    """A random text of context ctx and its value, built factor by factor."""
    texts, value = [], 0  # the first term turns the int into an element
    for n in range(rng.randint(1, 3 if depth else 2)):
        text, term = _random_term(rng, ctx, v, depth)
        sign = rng.choice("+-") if n else rng.choice(("", "-"))
        texts.append("%s %s" % (sign, text) if sign else text)
        value = value - term if sign == "-" else value + term
    return " ".join(texts), value


def _unit(ctx, v):
    if ctx == "weyl":
        return WeylElement.unit(v)
    return FreeExpr.one() if ctx == "iqg" else PolyElement.unit(v)


def _random_term(rng, ctx, v, depth):
    parts = []
    value = _unit(ctx, v)
    for n in range(rng.randint(1, 6 if depth else 2)):
        if n:
            join = rng.choice((" ", " ", " * ", " / "))
            if join == " / ":
                den = rng.randint(2, 5)
                parts.append(" / %d " % den)
                value = value.scale(scalars.from_frac(1, den))
            else:
                parts.append(join)
        text, factor = _random_factor(rng, ctx, v, depth)
        parts.append(text)
        value = value * factor
    return "".join(parts), value


def _random_letter(rng, ctx, v):
    """A random generator power: its text and its value."""
    name = rng.choice({"weyl": "dxm", "iqg": "BK", "poly": "X"}[ctx])
    if ctx == "iqg":
        idx = rng.choice([j for j in v.node_indices if name == "B" or v.k_legal(j)])
    else:
        idx = rng.choice(v.weyl_indices)  # X letters share the weyl indices
    power = rng.choice((None, -2, -1, 0, 2) if name in "mK" else (None, None, None, 0, 2))
    base = name + "i" if (power or 0) < 0 else name
    if ctx == "weyl":
        gen = WeylElement.generator(v, base, idx)
    elif ctx == "iqg":
        gen = FreeExpr.letter(base, idx)
    else:
        gen = PolyElement.monomial(v, [int(j == idx) for j in v.weyl_indices])
    if power is None:
        return "%s%d" % (name, idx), gen
    return "%s%d^%d" % (name, idx, power), gen ** abs(power)


def _random_factor(rng, ctx, v, depth):
    roll = rng.random()
    if roll < 0.65 or (depth == 0 and roll < 0.9):
        return _random_letter(rng, ctx, v)
    if roll < 0.75:
        k = rng.randint(-3, 3)
        return "q^%d" % k, qpow(k)
    if roll < 0.85 or depth == 0:
        c = rng.randint(0, 4)
        return "%d" % c, scalars.from_int(c)
    if roll < 0.93:
        text, value = _random_expr(rng, ctx, v, depth - 1)
        return "(%s)" % text, value
    lhs, a = _random_term(rng, ctx, v, depth - 1)
    rhs, b = _random_term(rng, ctx, v, depth - 1)
    e = rng.choice((1, -1))
    return "[%s, %s]_%s" % (lhs, rhs, "+" if e == 1 else "-"), qcomm(a, b, e)


def test_weyl_texts_match_factor_by_factor_products_random():
    rng = random.Random(60221)
    for v in (J2, I2, Variant("jmath", 1)):
        for _ in range(60):
            text, value = _random_expr(rng, "weyl", v, depth=1)
            assert parse(text, "weyl", v) == value, text
    # fixed shapes: leading and infix scalars, powers, a run broken by '/'
    x1, d1 = WeylElement.generator(J2, "x", 1), WeylElement.generator(J2, "d", 1)
    m1i = WeylElement.generator(J2, "mi", 1)
    third = scalars.from_frac(1, 3)
    assert parse("2/3 x1 d1", "weyl", J2) == (x1 * d1).scale(2 * third)
    assert parse("q^-2 x1*d1 m1^-2", "weyl", J2) == (x1 * d1 * m1i * m1i).scale(qpow(-2))
    assert parse("x1 / 3 d1", "weyl", J2) == (x1 * d1).scale(third)
    assert parse("x1^0 d1 x1^0", "weyl", J2) == d1
    assert parse("x1^0", "weyl", J2) == WeylElement.unit(J2)
    assert parse("0 x1 d1", "weyl", J2) == WeylElement(J2, {})


def test_iqg_and_poly_texts_match_factor_by_factor_products_random():
    rng = random.Random(31415)
    for ctx in ("iqg", "poly"):
        for v in (J2, I2, Variant("jmath", 1)):
            for _ in range(60):
                text, value = _random_expr(rng, ctx, v, depth=1)
                assert parse(text, ctx, v) == value, text
    # fixed shapes: powers, leading and infix scalars, a '/' inside a run
    b1, b2, k2i = FreeExpr.letter("B", 1), FreeExpr.letter("B", 2), FreeExpr.letter("Ki", 2)
    third = scalars.from_frac(1, 3)
    assert parse("K2^-2 B1^0", "iqg", J2) == k2i * k2i
    assert parse("B1 q B2 / 3 B1", "iqg", J2) == (b1 * b2 * b1).scale(qpow(1) * third)
    assert parse("2 B1^0", "iqg", J2) == FreeExpr.from_scalar(scalars.from_int(2))
    x1 = PolyElement.monomial(J2, (1, 0, 0))
    x2 = PolyElement.monomial(J2, (0, 1, 0))
    assert parse("X1 / 3 X2 X1^0 q", "poly", J2) == (x1 * x2).scale(qpow(1) * third)
    assert parse("X1^0", "poly", J2) == PolyElement.unit(J2)
    assert parse("X2 0 X1", "poly", J2) == PolyElement(J2, {})


def test_a_run_costs_one_element_in_every_context(monkeypatch):
    calls = []

    def counting(tag, fn):
        def wrapped(*args, **kwargs):
            calls.append(tag)
            return fn(*args, **kwargs)

        return wrapped

    for cls in (WeylElement, FreeExpr, PolyElement):
        for name in ("__mul__", "__pow__"):
            tag = "%s.%s" % (cls.__name__, name)
            # getattr: PolyElement inherits __pow__ from Terms
            monkeypatch.setattr(cls, name, counting(tag, getattr(cls, name)))
    monkeypatch.setattr(parser, "reduce_word", counting("reduce_word", parser.reduce_word))
    # a scalar inside a run joins the coefficient and does not split it
    for ctx, text, v, expected in (
        ("weyl", "x1 q d1 x2 d2", J2, ["reduce_word"]),
        ("weyl", "x1 / 3 d1 x2 d2", J2, ["reduce_word"]),
        ("weyl", "x1 2 d1 x2 d2", J2, ["reduce_word"]),
        ("iqg", "B1 B2 K1^-1 B3^2", J2, []),
        ("poly", "X1^2 X2 X4^3", Variant("jmath", 3), []),
    ):
        calls.clear()
        parse(text, ctx, v)
        assert calls == expected, text


def test_errors_inside_a_run_keep_their_position():
    for ctx, text, message, pos in (
        ("weyl", "x1 d2 x9", "index out of range: x9 (indices run 1..3)", 6),
        ("weyl", "x1 d1^-1", "negative power of d1", 3),
        ("iqg", "B1 B2 B9", "index out of range: B9 (nodes run 1..4)", 6),
        ("poly", "X1 X2^-1", "negative exponent on X2", 3),
        # an operator needs a factor after it: term := factor (('*' | '/')? factor)*
        ("weyl", "x1 *", "expected an expression, found 'end of input'", 4),
        ("weyl", "x1 * + d1", "expected an expression, found '+'", 5),
        ("weyl", "x1 /", "expected an expression, found 'end of input'", 4),
        ("iqg", "B1 * * B2", "expected an expression, found '*'", 5),
        # only ASCII digits are digits: int() rejects '²' and reads '٣' as 3
        ("weyl", "x1²", "unexpected character '²'", 2),
        ("weyl", "x1 ٣", "unexpected character '٣'", 3),
        ("weyl", "x١", "unexpected character '١'", 1),
    ):
        with pytest.raises(ParseError) as info:
            parse(text, ctx, J2)
        assert str(info.value) == "%s (at position %d)" % (message, pos)
        assert info.value.pos == pos


def test_a_run_of_letters_is_reduced_once(monkeypatch):
    calls = {"mul": 0, "reduce": 0}
    mul, reduce = WeylElement.__mul__, parser.reduce_word

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_reduce(*args, **kwargs):
        calls["reduce"] += 1
        return reduce(*args, **kwargs)

    monkeypatch.setattr(WeylElement, "__mul__", counting_mul)
    monkeypatch.setattr(parser, "reduce_word", counting_reduce)
    for text in ("x1 d1 m2^-1 x2^2 d3", "2/3 q^-1 x1*d1 x1^3"):
        calls.update(mul=0, reduce=0)
        parse(text, "weyl", J2)
        assert calls == {"mul": 0, "reduce": 1}, text


def test_a_commutator_subscript_is_only_its_sign():
    # an integer or q right after '_' or its sign is not read as a scalar factor
    I1 = Variant("imath", 1)
    for ctx, comm, v in (
        ("weyl", "[x1, d1]", I1),
        ("iqg", "[B1, K1]", I2),
        ("poly", "[X1, X2]", J2),
    ):
        n = len(comm) + 1
        for sub, found, pos in (
            ("_0", "0", n),
            ("_2", "2", n),
            ("_q", "q", n),
            ("_-2", "2", n + 1),
            ("_+q^2", "q", n + 1),
        ):
            with pytest.raises(ParseError) as info:
                parse(comm + sub, ctx, v)
            message = "a commutator subscript is '+' or '-', not %r" % found
            assert str(info.value) == "%s (at position %d)" % (message, pos)
        # a separator keeps the scalar a factor of the term
        plus, minus = parse(comm + "_+", ctx, v), parse(comm + "_-", ctx, v)
        two = scalars.from_int(2)
        assert parse(comm + "_+ 2", ctx, v) == plus.scale(two)
        assert parse(comm + "_+*2", ctx, v) == plus.scale(two)
        assert parse(comm + "_- * q", ctx, v) == minus.scale(qpow(1))
        assert parse(comm + "_ q", ctx, v) == plus.scale(qpow(1))
