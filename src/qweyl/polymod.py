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
from .report import aggregate_check
from .satake import BRAID_KINDS as TCAL_KINDS
from .satake import braid_relation_checks
from .scalars import qint, qpow
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
        return PolyElement(self.variant, {a: -c for a, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for a, c in other.terms.items():
            acc(out, a, c)
        return PolyElement(self.variant, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        if not c:
            return PolyElement(self.variant, {})
        return PolyElement(self.variant, {a: v * c for a, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, scalars.QScalar)):
            return self.scale(
                scalars.from_int(other) if isinstance(other, int) else other
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                acc(out, tuple(x + y for x, y in zip(a, b)), c * d)
        return PolyElement(self.variant, out)

    def __rmul__(self, other):
        if isinstance(other, (int, scalars.QScalar)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("negative power of a polynomial")
        out = self if k else PolyElement.unit(self.variant)
        for _ in range(k - 1):
            out = out * self
        return out

    def __str__(self):
        monos = sorted(self.terms, reverse=True)
        return scalars.terms_str(
            [(_exps_str(a), self.terms[a]) for a in monos], sep=" "
        )

    def __repr__(self):
        return "PolyElement(%r, %s)" % (self.variant, self)


def letter_action(v, name, idx):
    """The map poly -> letter . poly, bound once for any number of polynomials.

    The letter is validated and its weight read here, once; the map checks
    only each polynomial's variant.  The rule is written apart from action,
    so acting letter by letter stays an independent reference for it.
    """
    validate_letter(v, name, idx)
    k = v.kappa(idx)
    p = idx - 1
    one = scalars.ONE

    def apply(poly):
        v.check_variant(poly.variant)
        out = {}
        for a, c in poly.terms.items():
            if name == "d":
                if a[p] == 0:
                    continue
                w = qint(k * a[p])
                a = a[:p] + (a[p] - 1,) + a[p + 1 :]
            elif name == "x":
                w = one
                a = a[:p] + (a[p] + 1,) + a[p + 1 :]
            elif name == "m":
                w = qpow(k * a[p])
            else:  # "mi"
                w = qpow(-k * a[p])
            # a letter sends distinct exponent vectors to distinct ones, and
            # [kappa t] and q^k are nonzero: no two terms meet, none cancels
            out[a] = w if c is one else c * w
        return PolyElement(v, out)

    return apply


def act_letter(v, name, idx, poly):
    """One generator letter applied to a polynomial; see letter_action."""
    return letter_action(v, name, idx)(poly)


def act_word(v, word, poly, coeff=scalars.ONE):
    """A letter word applied one letter at a time, rightmost first."""
    for name, idx in reversed(word):
        poly = act_letter(v, name, idx, poly)
    return poly.scale(coeff) if coeff != scalars.ONE else poly


# Per variant, keyed by (kind, rank), which hashes without a Python call:
# (monomial, exponents on its support) -> action image, None when the
# monomial annihilates.  The table is bounded and starts over when full.
_ACT_CACHE_MAX = 1 << 16
_ACT_CACHE = {}
_UNSEEN = object()


def _mono_image(v, mono, support, sub):
    """Scalar and new support exponents of a canonical monomial on X^a.

    sub lists the entries of a on the support of the monomial; the action
    never reads the other positions.  None when the monomial annihilates X^a.
    """
    coeff = scalars.ONE
    new = []
    for p, t in zip(support, sub):
        al, be, ga = mono[p]
        k = v.kappa(p + 1)
        if t < be:
            return None
        if ga:
            coeff = coeff * qpow(ga * k * t)
        for s in range(be):
            coeff = coeff * qint(k * (t - s))
        new.append(t - be + al)
    return coeff, tuple(new)


def action(v, elem):
    """The map poly -> elem . poly, bound once for any number of polynomials.

    The element's variant, the per-variant table and the support of each
    monomial are read here, once; the map checks only each polynomial's
    variant.
    """
    v.check_variant(elem.variant)
    vkey = (v.kind, v.rank)
    cache = _ACT_CACHE.get(vkey)
    if cache is None:
        cache = _ACT_CACHE[vkey] = {}
    one = scalars.ONE
    parts = []
    for mono, mc in elem.terms.items():
        support = tuple(p for p, t in enumerate(mono) if t != (0, 0, 0))
        parts.append((mono, mc, support))

    def apply(poly):
        v.check_variant(poly.variant)
        out = {}
        for mono, mc, support in parts:
            for a, c in poly.terms.items():
                sub = tuple([a[p] for p in support])
                key = (mono, sub)
                img = cache.get(key, _UNSEEN)
                if img is _UNSEEN:
                    img = _mono_image(v, mono, support, sub)
                    scalars.remember(cache, key, img, _ACT_CACHE_MAX)
                if img is None:
                    continue
                w, new = img
                b = list(a)
                for p, t in zip(support, new):
                    b[p] = t
                b = tuple(b)
                # grid monomials and most letter images carry the coefficient 1
                if c is not one:
                    w = c * w
                if mc is not one:
                    w = mc * w
                acc(out, b, w)
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
    polynomial's variant.  It remembers the image X^b and scalar +-q^k of
    each exponent vector a it has seen, for as long as the map lives.
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
                img = seen[a] = (b, -w if sign < 0 else w)
            b, w = img
            # tcal permutes exponent vectors: no two terms meet, none cancels
            out[b] = w if c is one else c * w
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
    monos = _grid_monos(v, bound)
    checks = []
    unit = action(v, WeylElement.unit(v))
    checks.append(
        aggregate_check(
            "module-homomorphism/unit",
            "the empty word acts as the identity on the grid",
            (((None, a), unit(m), m) for a, m in monos),
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
                (((None, a), act_word(v, word, m), elem(m)) for a, m in monos),
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
                (((None, a), prod(m), eu(ew(m))) for a, m in monos),
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

    def instances(lhs, rhs):
        return (((None, a), lhs(m), rhs(m)) for a, m in monos)

    checks.extend(
        braid_relation_checks(
            v, e, compose, instances, ("tcal/inverse/", "tcal/braid/"), _TCAL_TEXT
        )
    )
    return checks


def check_iu_module(v, e, bound):
    """The coideal action through phi is braided compatibly with tcal."""
    checks = []
    letters = iqg.iqg_letters(v)
    ph = iqg.phi_spec(v)
    monos = _grid_monos(v, bound)
    for kind in TCAL_KINDS:
        for i in v.braid_indices:
            s = iqg.tau_subst(v, i, e, kind)
            sides = [
                (
                    letter_tag(u),
                    action(v, ph.image(u)),
                    ph.apply_free(s.image(u)),
                )
                for u in letters
            ]
            checks.append(
                aggregate_check(
                    "iu-module/%s/i=%d" % (kind, i),
                    "the coideal letters move across tcal through their tau"
                    " images (kind %s, i=%d)" % (kind, i),
                    _intertwine_instances(v, i, e, kind, monos, sides),
                )
            )
    return checks
