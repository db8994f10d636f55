"""The shared accumulate and the term types built on it."""

from qweyl import scalars
from qweyl.expressions import FreeExpr, acc
from qweyl.polymod import PolyElement, act
from qweyl.satake import Variant
from qweyl.scalars import qpow
from qweyl.weyl import WeylElement, unit_mono

J2 = Variant("jmath", 2)


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
