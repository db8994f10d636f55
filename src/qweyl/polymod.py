"""Polynomials in X_1..X_{r+1} as a module over the Weyl algebra.

The letters act by d_i X^a = [kappa(i) a_i] X^(a - e_i), x_i X^a =
X^(a + e_i), m_i^{+-1} X^a = q^{+-kappa(i) a_i} X^a, rightmost letter
first.  tcal builds the braid operators on polynomials; the check_*
suites drive every module-level identity over the full grid of
monomials with entries bounded by a degree parameter.
"""

import itertools
import random

from . import iqg, operators, scalars
from .expressions import letter_tag
from .report import aggregate_check
from .satake import BRAID_KINDS as TCAL_KINDS
from .satake import braid_relation_checks
from .scalars import qint, qpow
from .weyl import WeylElement, generator_letters, reduce_word


def _exps_str(exps):
    parts = []
    for p, k in enumerate(exps):
        if k == 0:
            continue
        parts.append("X%d" % (p + 1) if k == 1 else "X%d^%d" % (p + 1, k))
    return " ".join(parts)


class PolyElement:
    """A polynomial with coefficients in the rational functions of q."""

    __slots__ = ("variant", "terms")

    def __init__(self, variant, terms):
        self.variant = variant
        self.terms = terms

    @staticmethod
    def unit(variant):
        return PolyElement(variant, {(0,) * (variant.rank + 1): scalars.ONE})

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

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, PolyElement):
            if other.variant != self.variant:
                raise ValueError("variant mismatch")
            return other
        if isinstance(other, (int, scalars.QScalar)):
            c = scalars.from_int(other) if isinstance(other, int) else other
            return PolyElement.monomial(self.variant, (0,) * (self.variant.rank + 1), c)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.variant, frozenset(self.terms.items())))

    def __neg__(self):
        return PolyElement(self.variant, {a: -c for a, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a)
            s = c if s is None else s + c
            if s:
                out[a] = s
            else:
                out.pop(a, None)
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
                ab = tuple(x + y for x, y in zip(a, b))
                s = out.get(ab)
                s = c * d if s is None else s + c * d
                if s:
                    out[ab] = s
                else:
                    out.pop(ab, None)
        return PolyElement(self.variant, out)

    def __rmul__(self, other):
        if isinstance(other, (int, scalars.QScalar)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("negative power of a polynomial")
        out = PolyElement.unit(self.variant)
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        monos = sorted(self.terms, reverse=True)
        return scalars.terms_str(
            [(_exps_str(a), self.terms[a]) for a in monos], sep=" "
        )

    def __repr__(self):
        return "PolyElement(%r, %s)" % (self.variant, self)


def act_letter(v, name, idx, poly):
    """One generator letter applied to a polynomial."""
    if poly.variant != v:
        raise ValueError("variant mismatch")
    k = v.kappa(idx)
    p = idx - 1
    out = {}
    for a, c in poly.terms.items():
        if name == "d":
            if a[p] == 0:
                continue
            c = c * qint(k * a[p])
            a = a[:p] + (a[p] - 1,) + a[p + 1 :]
        elif name == "x":
            a = a[:p] + (a[p] + 1,) + a[p + 1 :]
        elif name == "m":
            c = c * qpow(k * a[p])
        elif name == "mi":
            c = c * qpow(-k * a[p])
        else:
            raise ValueError("unknown generator '%s%d'" % (name, idx))
        s = out.get(a)
        s = c if s is None else s + c
        if s:
            out[a] = s
        else:
            out.pop(a, None)
    return PolyElement(v, out)


def act_word(v, word, poly, coeff=scalars.ONE):
    """A letter word applied one letter at a time, rightmost first."""
    for name, idx in reversed(word):
        poly = act_letter(v, name, idx, poly)
    return poly.scale(coeff) if coeff != scalars.ONE else poly


# Per variant: (monomial, exponents on its support) -> action image; each
# per-variant table is bounded and starts over when full.
_ACT_CACHE_MAX = 1 << 16
_ACT_CACHE = {}


def _mono_act(v, mono, a):
    """Scalar and exponent image of one canonical monomial on X^a.

    Cached on the entries of a inside the support of the monomial; the
    action never reads the other positions.  Returns None when the
    monomial annihilates X^a.
    """
    support = tuple(p for p, t in enumerate(mono) if t != (0, 0, 0))
    key = (mono, tuple(a[p] for p in support))
    cache = _ACT_CACHE.get(v)
    if cache is None:
        cache = _ACT_CACHE[v] = {}
    hit = cache.get(key)
    if hit is None and key not in cache:
        coeff = scalars.ONE
        new = []
        for p in support:
            al, be, ga = mono[p]
            k = v.kappa(p + 1)
            t = a[p]
            if t < be:
                coeff = None
                break
            if ga:
                coeff = coeff * qpow(ga * k * t)
            for s in range(be):
                coeff = coeff * qint(k * (t - s))
            new.append(t - be + al)
        hit = None if coeff is None else (coeff, tuple(new))
        scalars.remember(cache, key, hit, _ACT_CACHE_MAX)
    if hit is None:
        return None
    coeff, new = hit
    out = list(a)
    for p, t in zip(support, new):
        out[p] = t
    return coeff, tuple(out)


def act(v, elem, poly):
    """A Weyl-algebra element applied to a polynomial."""
    if elem.variant != v or poly.variant != v:
        raise ValueError("variant mismatch")
    out = {}
    for mono, mc in elem.terms.items():
        for a, c in poly.terms.items():
            img = _mono_act(v, mono, a)
            if img is None:
                continue
            w, b = img
            s = out.get(b)
            s = mc * c * w if s is None else s + mc * c * w
            if s:
                out[b] = s
            else:
                out.pop(b, None)
    return PolyElement(v, out)


def _tcal_point(v, i, e, kind, a):
    """Sign, q-exponent and new exponent vector of one tcal on X^a."""
    if v.pinned(i):
        r = v.rank
        if v.kind == "jmath":
            aa, bb = a[r - 1], a[r]
            num = aa * aa + 3 * aa - 2 * bb + 4 * aa * bb
        else:
            aa = a[r]
            num = aa * aa - aa
        if num % 2:
            raise ArithmeticError("diagonal exponent must be an integer")
        return 1, e * (num // 2), a
    p = i - 1
    aa, bb = a[p], a[p + 1]
    newa = a[:p] + (bb, aa) + a[p + 2 :]
    if kind == "prime":
        return (-1 if bb % 2 else 1), e * bb * (aa + 1), newa
    return (-1 if aa % 2 else 1), e * aa * (bb + 1), newa


def tcal(v, i, e, kind, poly):
    """The braid operator on polynomials with subscripts i and e."""
    v.check_braid_args(i, e, kind)
    if poly.variant != v:
        raise ValueError("variant mismatch")
    out = {}
    for a, c in poly.terms.items():
        sign, k, b = _tcal_point(v, i, e, kind, a)
        w = c * qpow(k)
        if sign < 0:
            w = -w
        s = out.get(b)
        s = w if s is None else s + w
        if s:
            out[b] = s
        else:
            out.pop(b, None)
    return PolyElement(v, out)


def grid(v, bound):
    """All exponent vectors with entries 0..bound, in lexicographic order."""
    return itertools.product(range(bound + 1), repeat=v.rank + 1)


def check_module_homomorphism(v, bound):
    """Letter-by-letter action agrees with acting by the normal form."""
    rng = random.Random("module-homomorphism/%s/%d/%d" % (v.kind, v.rank, bound))
    letters = generator_letters(v)
    checks = []
    unit = WeylElement.unit(v)
    checks.append(
        aggregate_check(
            "module-homomorphism/unit",
            "the empty word acts as the identity on the grid",
            (
                ("X^%s" % (a,), act(v, unit, PolyElement.monomial(v, a)), PolyElement.monomial(v, a))
                for a in grid(v, bound)
            ),
        )
    )
    for w in range(10):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        elem = reduce_word(v, word)
        checks.append(
            aggregate_check(
                "module-homomorphism/word/%02d" % w,
                "the word %s acts like its normal form on the grid"
                % " ".join(letter_tag(l) for l in word),
                (
                    (
                        "X^%s" % (a,),
                        act_word(v, word, PolyElement.monomial(v, a)),
                        act(v, elem, PolyElement.monomial(v, a)),
                    )
                    for a in grid(v, bound)
                ),
            )
        )
    for t in range(6):
        wu = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        ww = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        eu = reduce_word(v, wu)
        ew = reduce_word(v, ww)
        prod = eu * ew
        checks.append(
            aggregate_check(
                "module-homomorphism/assoc/%02d" % t,
                "acting by %s * %s equals acting twice on the grid"
                % (
                    " ".join(letter_tag(l) for l in wu),
                    " ".join(letter_tag(l) for l in ww),
                ),
                (
                    (
                        "X^%s" % (a,),
                        act(v, prod, PolyElement.monomial(v, a)),
                        act(v, eu, act(v, ew, PolyElement.monomial(v, a))),
                    )
                    for a in grid(v, bound)
                ),
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
    letters = generator_letters(v)
    pts = list(grid(v, bound))

    def intertwine(t_op, tc_i, tc_e, tc_kind):
        for name, idx in letters:
            img = t_op.images[(name, idx)]
            for a in pts:
                mono = PolyElement.monomial(v, a)
                lhs = tcal(v, tc_i, tc_e, tc_kind, act_letter(v, name, idx, mono))
                rhs = act(v, img, tcal(v, tc_i, tc_e, tc_kind, mono))
                yield "%s on X^%s" % (letter_tag((name, idx)), (a,)), lhs, rhs

    for kind in TCAL_KINDS:
        for i in v.braid_indices:
            t_op = operators.braid_op(v, i, e, kind)
            checks.append(
                aggregate_check(
                    "tcal/intertwine/%s/i=%d" % (kind, i),
                    "moving a generator across the polynomial braid operator"
                    " matches %s" % t_op.label,
                    intertwine(t_op, i, e, kind),
                )
            )

    def compose(word):
        def at(a):
            poly = PolyElement.monomial(v, a)
            for t in reversed(word):
                poly = tcal(v, *t, poly)
            return poly

        return at

    def instances(lhs, rhs):
        return (("X^%s" % (a,), lhs(a), rhs(a)) for a in pts)

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
    pts = list(grid(v, bound))
    for kind in TCAL_KINDS:
        for i in v.braid_indices:
            s = iqg.tau_subst(v, i, e, kind)
            moved = {u: ph.apply_free(s.image(u)) for u in letters}

            def instances(i=i, kind=kind, moved=moved):
                for u in letters:
                    phi_u = ph.image(u)
                    for a in pts:
                        mono = PolyElement.monomial(v, a)
                        lhs = tcal(v, i, e, kind, act(v, phi_u, mono))
                        rhs = act(v, moved[u], tcal(v, i, e, kind, mono))
                        yield "%s on X^%s" % (letter_tag(u), (a,)), lhs, rhs

            checks.append(
                aggregate_check(
                    "iu-module/%s/i=%d" % (kind, i),
                    "the coideal letters move across tcal through their tau"
                    " images (kind %s, i=%d)" % (kind, i),
                    instances(),
                )
            )
    return checks
