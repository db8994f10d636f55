"""The shared accumulate and the term types built on it."""

import importlib.util
import os

import pytest

from qweyl import iqg, operators, scalars
from qweyl.expressions import FreeExpr, acc
from qweyl.polymod import PolyElement, act
from qweyl.satake import Variant
from qweyl.scalars import qpow
from qweyl.weyl import WeylElement, unit_mono

J2 = Variant("jmath", 2)
I2 = Variant("imath", 2)


def units(v):
    return FreeExpr.one(), WeylElement.unit(v), PolyElement.unit(v)


def test_acc_adds_and_drops_cancelled_keys():
    out = {}
    acc(out, "a", qpow(1))
    acc(out, "b", scalars.ZERO)
    assert out == {"a": qpow(1)}
    acc(out, "a", qpow(1))
    assert out == {"a": qpow(1) + qpow(1)}
    acc(out, "a", -(qpow(1) + qpow(1)))
    assert out == {}


def test_opposite_terms_on_one_key_cancel_in_every_term_type():
    one = scalars.ONE
    # free expressions: two term pairs of the product land on the word B1
    b1 = FreeExpr.letter("B", 1)
    prod = (1 + b1) * (1 - b1)
    assert (("B", 1),) not in prod.terms
    assert prod == 1 - b1 * b1
    assert (b1 + (-b1)).terms == {}

    # Weyl elements: m1 m1^-1 reduces to 1 and the summand -1 cancels it
    m1 = WeylElement.generator(J2, "m", 1)
    mi1 = WeylElement.generator(J2, "mi", 1)
    assert (m1 * mi1 - 1).terms == {}
    prod = (1 + m1) * (1 - m1)
    assert m1.terms.keys().isdisjoint(prod.terms)
    assert prod == 1 - m1 * m1

    # polynomials: the same product, then an action whose two monomials
    # send X1 to the key X1 with opposite coefficients
    x1 = PolyElement.monomial(J2, (1, 0, 0))
    prod = (1 + x1) * (1 - x1)
    assert (1, 0, 0) not in prod.terms
    assert prod == 1 - x1 * x1
    elem = m1 - WeylElement(J2, {unit_mono(J2): qpow(1)})
    assert act(J2, elem, x1).terms == {}
    assert act(J2, elem, PolyElement.monomial(J2, (2, 0, 0), one)) == PolyElement.monomial(
        J2, (2, 0, 0), qpow(2) - qpow(1)
    )


def test_every_term_type_equals_the_scalar_of_its_constant_term():
    c = qpow(1) + qpow(-1)
    for unit in units(J2):
        assert unit == 1 and 1 == unit
        assert unit == scalars.ONE and scalars.ONE == unit
        assert unit.scale(c) == c and c == unit.scale(c)
        assert unit != 2 and unit != qpow(1)
        assert unit - unit == 0
        assert unit.constant(3) == 3 and unit.constant(3) == unit.scale(3)
        assert unit.constant(0).terms == {}
    assert FreeExpr.letter("B", 1) != 1
    assert WeylElement.generator(J2, "m", 1) != 1
    assert PolyElement.monomial(J2, (1, 0, 0)) != 1


def test_no_term_type_is_hashable():
    for unit in units(J2):
        with pytest.raises(TypeError):
            hash(unit)


def test_comparing_elements_of_two_variants_raises():
    assert WeylElement.unit(J2) == WeylElement.unit(Variant("jmath", 2))
    assert PolyElement.unit(J2) == PolyElement.unit(Variant("jmath", 2))
    with pytest.raises(ValueError, match="variant mismatch"):
        WeylElement.unit(J2) == WeylElement.unit(I2)
    with pytest.raises(ValueError, match="variant mismatch"):
        PolyElement.unit(J2) == PolyElement.unit(I2)
    # different term types are simply unequal
    assert WeylElement.unit(J2) != PolyElement.unit(J2)
    assert FreeExpr.one() != WeylElement.unit(J2)


def test_is_zero_is_a_bool_property():
    for unit in units(J2):
        zero = unit - unit
        assert unit.is_zero is False and zero.is_zero is True
        assert bool(unit) and not zero


def test_scalar_value():
    c = qpow(2) - scalars.from_frac(1, 3)
    gens = (
        FreeExpr.letter("B", 1),
        WeylElement.generator(J2, "m", 1),
        PolyElement.monomial(J2, (1, 0, 0)),
    )
    for unit, gen in zip(units(J2), gens):
        assert unit.scale(c).scalar_value() == c
        assert (unit - unit).scalar_value() is scalars.ZERO
        assert gen.scalar_value() is None
        assert (unit + gen).scalar_value() is None


def test_free_expressions_render_in_letter_tags():
    assert str(FreeExpr.zero()) == "0"
    assert str(FreeExpr.one()) == "1"
    assert str(FreeExpr.letter("mi", 2)) == "m2^-1"
    assert str(FreeExpr.letter("Ki", 3).scale(qpow(1) + qpow(-1))) == "(q + q^-1)*K3^-1"


def samples(v):
    """One element of two terms, one with a q-power coefficient, per term type."""
    q = qpow(1)
    return (
        FreeExpr.letter("B", 1) + FreeExpr.letter("Ki", 2).scale(q),
        WeylElement.generator(v, "x", 1) + WeylElement.generator(v, "m", 2).scale(q),
        PolyElement.monomial(v, (1, 0, 0)) + PolyElement.monomial(v, (0, 2, 0), q),
    )


def test_every_term_type_shares_the_arithmetic_contract():
    for x in samples(J2):
        y = x * x
        assert x - y == x + (-y)
        assert 2 - x == -(x - 2)
        assert 2 * x == x * 2 == x.scale(2)
        assert 2 * x != x
        assert x.scale(0).is_zero
        assert x ** 0 == 1
        assert x ** 2 == y
        with pytest.raises(ValueError, match="negative power of %s" % type(x).__name__):
            x ** -1
        with pytest.raises(ValueError, match="non-integer power of %s" % type(x).__name__):
            x ** 1.5
        assert repr(x) == "%s(%s)" % (type(x).__name__, x)


def _tracer_targets():
    """TARGETS of the benchmark's tracer, read from its source file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_term_operators_are_bound_in_their_own_class():
    # The tracer wraps vars(cls)[name] and needs one code object per target.
    # An operator inherited from Terms is not wrapped at all, and a Terms
    # body aliased into the class (__add__ = Terms.__add__) is wrapped as
    # Terms.__add__ too, so the Weyl and polynomial calls to that body count
    # in the expressions layer.
    classes = {cls.__name__: cls for cls in (FreeExpr, WeylElement, PolyElement)}
    codes = {}
    for _, attr, _, _ in _tracer_targets():
        cls_name, _, name = attr.rpartition(".")
        if cls_name not in classes:
            continue
        assert name in vars(classes[cls_name]), attr
        fn = vars(classes[cls_name])[name]
        assert fn.__qualname__ == attr
        codes[attr] = fn.__code__
    assert {attr.split(".")[0] for attr in codes} == set(classes)
    assert len(set(codes.values())) == len(codes)


def test_products_of_two_variants_raise():
    # free expressions have no variant: any two of them multiply
    assert FreeExpr.letter("B", 1) * FreeExpr.letter("B", 2) == FreeExpr.word(
        (("B", 1), ("B", 2))
    )
    for x, y in zip(samples(J2)[1:], samples(I2)[1:]):
        with pytest.raises(ValueError, match="variant mismatch"):
            x * y
        with pytest.raises(ValueError, match="variant mismatch"):
            y * x


def test_products_of_two_term_types_raise_type_error():
    xs = samples(J2)
    for x in xs:
        for y in xs:
            if type(x) is not type(y):
                with pytest.raises(TypeError):
                    x * y


def test_a_scalar_factor_on_either_side_scales():
    for x in samples(J2):
        for c in (3, qpow(2) - scalars.from_frac(1, 3)):
            assert c * x == x * c == x.scale(c)
        assert (0 * x).is_zero and (x * scalars.ZERO).is_zero


def test_substitutions_send_a_scalar_to_that_scalar_in_their_images_type():
    # the empty word's image is the constant of the images' algebra, with
    # its coefficient barred under a bar-twisted substitution
    c = qpow(2) - scalars.from_frac(1, 3)
    for v in (J2, I2):
        weyl_scalar = WeylElement.unit(v).scale(c)
        free_scalar = FreeExpr.from_scalar(c)
        subs = [
            (operators.braid_op(v, 1, 1, "prime"), weyl_scalar, False),
            (operators.braid_op(v, 1, -1, "doubleprime"), weyl_scalar, False),
            (operators.omega_op(v), weyl_scalar, True),
            (operators.psi_op(v), weyl_scalar, False),
            (iqg.phi_spec(v), free_scalar, False),
            (iqg.tau_subst(v, 1, 1, "prime"), free_scalar, False),
            (iqg.omega_subst(v), free_scalar, True),
            (iqg.psi_subst(v), free_scalar, False),
        ]
        for spec, x, barred in subs:
            image_type = type(next(iter(spec.images.values())))
            for y in (x, x.scale(0)):
                got = spec.apply(y) if isinstance(y, WeylElement) else spec.apply_free(y)
                assert type(got) is image_type, spec.label
                expect = y.scalar_value()
                assert got == (expect.bar() if barred else expect), spec.label
