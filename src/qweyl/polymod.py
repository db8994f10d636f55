"""Polynomials in X_1..X_{r+1} as a module over the Weyl algebra.

The letters act by d_i X^a = [kappa(i) a_i] X^(a - e_i), x_i X^a =
X^(a + e_i), m_i^{+-1} X^a = q^{+-kappa(i) a_i} X^a, rightmost letter
first.  tcal_map binds a braid operator on polynomials and letter_action
a letter, once per check; the check_* suites drive every module-level
identity over the full grid of monomials with entries bounded by a degree
parameter.
"""

import itertools
import random

from . import iqg, operators, scalars
from .expressions import Terms, acc, letter_tag
from .report import aggregate_check, pointwise
from .satake import BRAID_KINDS as TCAL_KINDS
from .satake import braid_relation_checks
from .scalars import P_ONE, laurent_times, p_mul, qint, qint_laurent, qpow
from .weyl import WeylElement, generator_letters, reduce_word, validate_letter


def _exps_str(exps):
    parts = []
    for p, k in enumerate(exps):
        if k == 0:
            continue
        parts.append("X%d" % (p + 1) if k == 1 else "X%d^%d" % (p + 1, k))
    return " ".join(parts)


class PolyElement(Terms):
    """A polynomial with coefficients in the rational functions of q."""

    __slots__ = ("variant", "terms")

    def __init__(self, variant, terms):
        self.variant = variant
        self.terms = terms

    def _new(self, terms):
        return PolyElement(self.variant, terms)

    def _const_key(self):
        return (0,) * (self.variant.rank + 1)

    _sep = " "
    _label = staticmethod(_exps_str)

    @staticmethod
    def unit(variant):
        return PolyElement(variant, {}).constant(scalars.ONE)

    @staticmethod
    def monomial(variant, exps, coeff=scalars.ONE):
        exps = tuple(exps)
        if len(exps) != variant.rank + 1:
            raise ValueError(
                "exponent vector has length %d, expected %d"
                % (len(exps), variant.rank + 1)
            )
        if any(k < 0 for k in exps):
            raise ValueError("negative exponent in %r" % (exps,))
        if not coeff:
            return PolyElement(variant, {})
        return PolyElement(variant, {exps: coeff})

    def __neg__(self):
        return Terms.__neg__(self)

    def __add__(self, other):
        return Terms.__add__(self, other)

    def __radd__(self, other):
        return Terms.__add__(self, other)

    def __sub__(self, other):
        return Terms.__sub__(self, other)

    def scale(self, s):
        return Terms.scale(self, s)

    def __mul__(self, other):
        if isinstance(other, (int, scalars.QScalar)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                acc(out, tuple(x + y for x, y in zip(a, b)), c * d)
        return PolyElement(self.variant, out)


def letter_action(v, name, idx):
    """The map poly -> letter . poly, bound once for any number of polynomials.

    The letter is validated and its weight read here, once; the map checks
    only each polynomial's variant.  The rule is written apart from action,
    so acting letter by letter stays an independent reference for it.  A
    weight q^k shifts the coefficient's exponent; only [kappa t] times a
    coefficient other than 1 is a product.
    """
    validate_letter(v, name, idx)
    k = v.kappa(idx)
    mk = -k if name == "mi" else k
    p = idx - 1
    one = scalars.ONE

    def apply(poly):
        v.check_variant(poly.variant)
        out = {}
        for a, c in poly.terms.items():
            t = a[p]
            if name == "d":
                if t == 0:
                    continue
                a = a[:p] + (t - 1,) + a[p + 1 :]
                c = qint(k * t) if c is one else laurent_times(*qint_laurent(k * t), c)
            elif name == "x":
                a = a[:p] + (t + 1,) + a[p + 1 :]
            else:
                c = laurent_times(mk * t, P_ONE, c)
            # a letter sends distinct exponent vectors to distinct ones, and
            # [kappa t] and q^k are nonzero: no two terms meet, none cancels
            out[a] = c
        return PolyElement(v, out)

    return apply


def act_letter(v, name, idx, poly):
    """One generator letter applied to a polynomial; see letter_action."""
    return letter_action(v, name, idx)(poly)


def act_word(v, word, poly):
    """A letter word applied one letter at a time, rightmost first."""
    for name, idx in reversed(word):
        poly = act_letter(v, name, idx, poly)
    return poly


# Always empty, as action keeps no table; perfbench/tracing.py reads the name.
_ACT_CACHE = {}


def action(v, elem):
    """The map poly -> elem . poly, bound once for any number of polynomials.

    The element's variant is checked here, once, and each canonical monomial
    x^al d^be m^ga is kept with its coefficient and its support triples and
    their weights; the map checks only each polynomial's variant.  At an
    index of weight k where a has entry t the monomial sends X^a to
    q^(ga k t) [k t][k (t - 1)]...[k (t - be + 1)] X^a with that entry
    replaced by t - be + al, and annihilates X^a when t < be.  That weight
    is kept as an integer Laurent polynomial q^lo cs(q) and applied to the
    coefficient in one step, a shift of its exponent when cs is +-1.
    """
    v.check_variant(elem.variant)
    one = scalars.ONE
    parts = []
    for mono, mc in elem.terms.items():
        support = tuple(
            (p, v.kappa(p + 1), al, be, ga)
            for p, (al, be, ga) in enumerate(mono)
            if al or be or ga
        )
        parts.append((mc, support))

    def apply(poly):
        v.check_variant(poly.variant)
        out = {}
        for mc, support in parts:
            for a, c in poly.terms.items():
                b = list(a)
                lo = 0
                cs = P_ONE
                for p, k, al, be, ga in support:
                    t = a[p]
                    if t < be:
                        break
                    lo += ga * k * t
                    for n in range(k * (t - be + 1), k * t + 1, k):
                        nlo, ncs = qint_laurent(n)
                        lo += nlo
                        cs = p_mul(cs, ncs)
                    b[p] = t - be + al
                else:
                    # grid monomials and most letter images carry the coefficient 1
                    if mc is not one:
                        c = mc if c is one else c * mc
                    acc(out, tuple(b), laurent_times(lo, cs, c))
        return PolyElement(v, out)

    return apply


def act(v, elem, poly):
    """A Weyl-algebra element applied to a polynomial; see action."""
    return action(v, elem)(poly)


def _tcal_point(v, i, e, kind, a):
    """Sign, q-exponent and new exponent vector of one tcal on X^a."""
    if v.pinned(i):
        r = v.rank
        if v.kind == "jmath":
            aa, bb = a[r - 1], a[r]
            k = aa * (aa + 3) // 2 - bb + 2 * aa * bb
        else:
            aa = a[r]
            k = aa * (aa - 1) // 2
        return 1, e * k, a
    p = i - 1
    aa, bb = a[p], a[p + 1]
    newa = a[:p] + (bb, aa) + a[p + 2 :]
    if kind == "prime":
        return (-1 if bb % 2 else 1), e * bb * (aa + 1), newa
    return (-1 if aa % 2 else 1), e * aa * (bb + 1), newa


def tcal_map(v, i, e, kind):
    """The braid operator on polynomials with subscripts i and e, bound once.

    The subscripts are checked here, once; the map checks only each
    polynomial's variant.  It remembers the image X^b, k, the sign and the
    scalar +-q^k of each exponent vector a it has seen, for as long as the
    map lives: a unit coefficient takes the scalar, any other is shifted.
    """
    v.check_braid_args(i, e, kind)
    one = scalars.ONE
    seen = {}

    def apply(poly):
        v.check_variant(poly.variant)
        out = {}
        for a, c in poly.terms.items():
            img = seen.get(a)
            if img is None:
                sign, k, b = _tcal_point(v, i, e, kind, a)
                w = qpow(k)
                img = seen[a] = (b, k, (sign,), -w if sign < 0 else w)
            b, k, cs, w = img
            # tcal permutes exponent vectors: no two terms meet, none cancels
            out[b] = w if c is one else laurent_times(k, cs, c)
        return PolyElement(v, out)

    return apply


def tcal(v, i, e, kind, poly):
    """The braid operator on polynomials with subscripts i and e; see tcal_map."""
    return tcal_map(v, i, e, kind)(poly)


def grid(v, bound):
    """All exponent vectors with entries 0..bound, in lexicographic order."""
    return itertools.product(range(bound + 1), repeat=v.rank + 1)


def _grid_monos(v, bound):
    """(a, X^a) over the grid; built directly, a grid point needs no checks."""
    one = scalars.ONE
    return [(a, PolyElement(v, {a: one})) for a in grid(v, bound)]


def _intertwine_instances(v, i, e, kind, monos, sides):
    """tcal(left(X^a)) against act(right, tcal(X^a)), side by side, point by point.

    sides lists (tag, left, right): left maps a polynomial to a polynomial
    and right is a Weyl element, bound once per side.  One bound tcal map
    serves the whole check; the tcal image of each grid monomial is taken
    once and serves every side.  Each instance
    is tagged (tag, a), which the report renders only if it fails.
    """
    t = tcal_map(v, i, e, kind)
    tcal_monos = [t(m) for _, m in monos]
    for tag, left, right in sides:
        right = action(v, right)
        for (a, m), tm in zip(monos, tcal_monos):
            yield (tag, a), t(left(m)), right(tm)


def check_module_homomorphism(v, bound):
    """Letter-by-letter action agrees with acting by the normal form."""
    rng = random.Random("module-homomorphism/%s/%d/%d" % (v.kind, v.rank, bound))
    letters = generator_letters(v)
    points = [((None, a), m) for a, m in _grid_monos(v, bound)]
    checks = []
    unit = action(v, WeylElement.unit(v))
    checks.append(
        aggregate_check(
            "module-homomorphism/unit",
            "the empty word acts as the identity on the grid",
            pointwise(points, unit, lambda m: m),
        )
    )
    for w in range(10):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        elem = action(v, reduce_word(v, word))
        checks.append(
            aggregate_check(
                "module-homomorphism/word/%02d" % w,
                "the word %s acts like its normal form on the grid"
                % " ".join(letter_tag(l) for l in word),
                pointwise(points, lambda m: act_word(v, word, m), elem),
            )
        )
    for t in range(6):
        wu = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        ww = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        eu = reduce_word(v, wu)
        ew = reduce_word(v, ww)
        prod = action(v, eu * ew)
        eu, ew = action(v, eu), action(v, ew)
        checks.append(
            aggregate_check(
                "module-homomorphism/assoc/%02d" % t,
                "acting by %s * %s equals acting twice on the grid"
                % (
                    " ".join(letter_tag(l) for l in wu),
                    " ".join(letter_tag(l) for l in ww),
                ),
                pointwise(points, prod, lambda m: eu(ew(m))),
            )
        )
    return checks


_TCAL_TEXT = {
    "doubleprime-after-prime": "the two polynomial braid operators at i=%(i)d"
    " invert each other",
    "prime-after-doubleprime": "the two polynomial braid operators at i=%(i)d"
    " invert each other",
    "3-term": "the 3-term braid move at i=%(i)d holds on the grid",
    "4-term": "the 4-term braid move at the top pair holds on the grid",
    "commute": "distant polynomial braid operators commute on the grid",
}


def check_tcal_suite(v, e, bound):
    """Intertwining with the algebra braid action, inverses, braid moves."""
    checks = []
    monos = _grid_monos(v, bound)
    for kind in TCAL_KINDS:
        for i in v.braid_indices:
            t_op = operators.braid_op(v, i, e, kind)
            # letter by letter on the tcal side: the independent reference
            sides = [
                (letter_tag(l), letter_action(v, *l), t_op.images[l])
                for l in generator_letters(v)
            ]
            checks.append(
                aggregate_check(
                    "tcal/intertwine/%s/i=%d" % (kind, i),
                    "moving a generator across the polynomial braid operator"
                    " matches %s" % t_op.label,
                    _intertwine_instances(v, i, e, kind, monos, sides),
                )
            )

    def compose(word):
        maps = [tcal_map(v, *t) for t in reversed(word)]

        def at(poly):
            for t in maps:
                poly = t(poly)
            return poly

        return at

    points = [((None, a), m) for a, m in monos]
    checks.extend(
        braid_relation_checks(
            v, e, compose, points, ("tcal/inverse/", "tcal/braid/"), _TCAL_TEXT
        )
    )
    return checks


def check_iu_module(v, e, bound):
    """The coideal action through phi is braided compatibly with tcal."""
    checks = []
    letters = iqg.iqg_letters(v)
    ph = iqg.phi_spec(v)
    monos = _grid_monos(v, bound)
    # the left sides do not depend on the check: bind each once
    lefts = [(u, letter_tag(u), action(v, ph.image(u))) for u in letters]
    for kind in TCAL_KINDS:
        for i in v.braid_indices:
            ph_s = iqg.fuse(ph, iqg.tau_subst(v, i, e, kind))
            sides = [(tag, left, ph_s.image(u)) for u, tag, left in lefts]
            checks.append(
                aggregate_check(
                    "iu-module/%s/i=%d" % (kind, i),
                    "the coideal letters move across tcal through their tau"
                    " images (kind %s, i=%d)" % (kind, i),
                    _intertwine_instances(v, i, e, kind, monos, sides),
                )
            )
    return checks
