"""The modified q-Weyl algebra: canonical forms, products, substitutions.

Letters d_i, x_i, m_i, m_i^-1 for i in 1..r+1; distinct indices commute.
With k = kappa(i), the same-index rewrites are

    d_i m_i^s -> q^(sk) m_i^s d_i,    x_i m_i^s -> q^(-sk) m_i^s x_i,
    d_i x_i -> (q^k m_i - q^-k m_i^-1)/(q - q^-1),
    x_i d_i -> (m_i - m_i^-1)/(q - q^-1),    m_i m_i^-1 -> 1.

A canonical monomial stores one (xexp, dexp, mexp) triple per index with
min(xexp, dexp) = 0 and mexp in Z; an element maps monomials to scalars.
The rewrites act at one index, so words are reduced and monomials
multiplied one index at a time.
"""

import functools
import itertools

from . import scalars
from .expressions import FreeExpr, Terms, acc, letter_tag
from .report import Check, equality_check
from .satake import Variant
from .scalars import P_ONE, laurent_times, p_mul, p_neg, p_trim, p_val, qpow

WEYL_LETTER_NAMES = ("d", "x", "m", "mi")

# Most x and d letters one index may have, in a word reduce_word takes or in
# a product of two monomials: reducing n of them takes time about n^4
# (d1^160 x1^160 several seconds), so a longer word or product is refused
# before it is reduced.
MAX_INDEX_LETTERS = 200

# 1/(q - q^-1)
_QD = scalars.QScalar((0, 1), (-1, 0, 1))


def unit_mono(v):
    return ((0, 0, 0),) * (v.rank + 1)


# the triple of each letter at its own index
_LETTER_TRIPLES = {"d": (0, 1, 0), "x": (1, 0, 0), "m": (0, 0, 1), "mi": (0, 0, -1)}


def letter_mono(v, name, idx):
    validate_letter(v, name, idx)
    unit = unit_mono(v)
    return unit[: idx - 1] + (_LETTER_TRIPLES[name],) + unit[idx:]


def validate_letter(v, name, idx):
    if name not in WEYL_LETTER_NAMES:
        raise ValueError("unknown generator '%s%s'" % (name, idx))
    if not 1 <= idx <= v.rank + 1:
        raise ValueError(
            "index out of range: %s%d (indices run 1..%d)" % (name, idx, v.rank + 1)
        )


@functools.lru_cache(maxsize=64)
def _weyl_letters(rank):
    """Every letter (name, index) that validate_letter accepts at this rank."""
    return frozenset(itertools.product(WEYL_LETTER_NAMES, range(1, rank + 2)))


# A one-index state (a, b, n, terms) stands for
#
#     (q - q^-1)^-n * sum over c of L_c(q) * x^a d^b m^c,
#
# terms mapping each c to the integer Laurent polynomial L_c, stored as
# (lo, cs) for q^lo * (cs[0] + cs[1] q + ...) with cs[0] and cs[-1] nonzero.
# The rewrites send (a, b) to a pair that does not depend on c, and each x-d
# rewrite divides every term by q - q^-1, so a, b and n are shared by the
# terms and the rules below add and shift integer polynomials only.


def _lacc(out, c, lo, cs, sign=1):
    """out[c] += sign * q^lo * cs, sign 1 or -1; a sum that cancels drops c."""
    old = out.get(c)
    if old is None:
        out[c] = (lo, cs if sign > 0 else p_neg(cs))
        return
    lo2, cs2 = old
    start = min(lo, lo2)
    i2, i1 = lo2 - start, lo - start
    total = [0] * max(i2 + len(cs2), i1 + len(cs))
    total[i2 : i2 + len(cs2)] = cs2
    if sign > 0:
        for i, x in enumerate(cs, i1):
            total[i] += x
    else:
        for i, x in enumerate(cs, i1):
            total[i] -= x
    cs = p_trim(total)
    if not cs:
        del out[c]
        return
    i = p_val(cs)
    out[c] = (start + i, cs[i:])


def _append_right(k, state, names):
    """At one index of weight k: the state (a, b, n, terms) times the letters names.

    names is in rewrite order: the letter next to the state comes first.
    """
    a, b, n, terms = state
    for name in names:
        if name == "m" or name == "mi":
            s = 1 if name == "m" else -1
            terms = {c + s: t for c, t in terms.items()}
        elif name == "x":
            if b == 0:
                a += 1
                terms = {c: (lo + k * c, cs) for c, (lo, cs) in terms.items()}
            else:
                out = {}
                for c, (lo, cs) in terms.items():
                    _lacc(out, c + 1, lo + k * (c + 1), cs)
                    _lacc(out, c - 1, lo + k * (c - 1), cs, -1)
                b, n, terms = b - 1, n + 1, out
        elif a == 0:  # name == "d"
            b += 1
            terms = {c: (lo - k * c, cs) for c, (lo, cs) in terms.items()}
        else:
            out = {}
            for c, (lo, cs) in terms.items():
                lo -= k * c
                _lacc(out, c + 1, lo, cs)
                _lacc(out, c - 1, lo, cs, -1)
            a, n, terms = a - 1, n + 1, out
    return a, b, n, terms


def _append_left(k, state, names):
    """At one index of weight k: the letters names times the state (a, b, n, terms).

    names is in rewrite order, the word reversed: the letter next to the
    state comes first.
    """
    a, b, n, terms = state
    for name in names:
        if name == "m" or name == "mi":
            s = 1 if name == "m" else -1
            e = s * k * (a - b)
            terms = {c + s: (lo + e, cs) for c, (lo, cs) in terms.items()}
            continue
        if name == "x":
            if b == 0:
                a += 1
                continue
            e, a, b = -k * (b - 1), 0, b - 1
        elif a == 0:
            b += 1
            continue
        else:
            e, a, b = k * a, a - 1, 0
        out = {}
        for c, (lo, cs) in terms.items():
            _lacc(out, c + 1, lo + e, cs)
            _lacc(out, c - 1, lo - e, cs, -1)
        n, terms = n + 1, out
    return a, b, n, terms


def _index_state(k, rule, t, names):
    """The state of the triple t after the letters names, in one rule call."""
    a, b, c = t
    return rule(k, (a, b, 0, {c: (0, P_ONE)}), names)


# Distinct indices commute, so _mul_terms multiplies canonical
# monomials one index at a time.  The products are filled from _append_right,
# so the rewrite rules stay written once, and memoised: the suites multiply
# the same few triples over and over.
@functools.lru_cache(maxsize=1 << 16)
def _index_product(k, t1, t2):
    """The (triple, scalar) pairs of t1 times t2 at an index of weight k.

    Raises ValueError when t1 and t2 together have more than
    MAX_INDEX_LETTERS x and d letters, as reduce_word does for their word.
    """
    letters = t1[0] + t1[1] + t2[0] + t2[1]
    if letters > MAX_INDEX_LETTERS:
        raise ValueError(
            "product has %d x and d letters at one index, above the limit of %d"
            % (letters, MAX_INDEX_LETTERS)
        )
    a, b, n, terms = _index_state(k, _append_right, t1, _triple_word(t2))
    qd = _QD ** n
    pairs = []
    for c, (lo, cs) in terms.items():
        s = laurent_times(lo, cs, qd)
        # a scalar equal to 1 is stored as scalars.ONE itself, which the
        # product loop skips by identity
        pairs.append(((a, b, c), scalars.ONE if s == 1 else s))
    return tuple(pairs)


# The (position, weight, triple) entries of a right factor's monomial other
# than (0, 0, 0), shared by every product that has it on the right.  The
# kind and the monomial's length fix each index's weight.
@functools.lru_cache(maxsize=1 << 16)
def _mono_support(kind, mono):
    v = Variant(kind, len(mono) - 1)
    return tuple((p, v.kappa(p + 1), t) for p, t in enumerate(mono) if t != (0, 0, 0))


def _mul_terms(v, terms1, terms2):
    """The terms of the product of two elements of variant v, given their terms."""
    one = scalars.ONE
    kind = v.kind
    out = {}
    for mono2, c2 in terms2.items():
        support = _mono_support(kind, mono2)
        for mono1, c1 in terms1.items():
            c = c1 if c2 is one else c2 if c1 is one else c1 * c2
            # partial products over the indices done so far; usually one
            partial = [(list(mono1), c)]
            for p, k, t2 in support:
                t1 = mono1[p]
                pairs = _index_product(k, t1, t2)
                if len(pairs) == 1:
                    ((t, s),) = pairs
                    for m, _ in partial:
                        m[p] = t
                    if s is not one:
                        partial = [(m, c * s) for m, c in partial]
                else:
                    partial = [
                        (m[:p] + [t] + m[p + 1 :], c if s is one else c * s)
                        for m, c in partial
                        for t, s in pairs
                    ]
            for m, c in partial:
                acc(out, tuple(m), c)
    return out


def _triple_word(t):
    """Canonical letter names of one index's triple: x, then d, then m."""
    a, b, c = t
    return ("x",) * a + ("d",) * b + (("m",) * c if c > 0 else ("mi",) * -c)


# memoised: a substitution reads the word of the same few monomials over and over
@functools.lru_cache(maxsize=1 << 16)
def mono_word(mono):
    """Canonical letter word of a monomial: per index x, then d, then m."""
    return tuple(
        (name, p + 1) for p, t in enumerate(mono) for name in _triple_word(t)
    )


# the text of one index's triple, shared by every monomial that has it
@functools.lru_cache(maxsize=1024)
def _index_label(i, t):
    a, b, c = t
    bits = []
    if a:
        bits.append("x%d" % i if a == 1 else "x%d^%d" % (i, a))
    if b:
        bits.append("d%d" % i if b == 1 else "d%d^%d" % (i, b))
    if c:
        bits.append("m%d" % i if c == 1 else "m%d^%d" % (i, c))
    return " ".join(bits)


def _mono_str(mono):
    return " ".join([_index_label(i, t) for i, t in enumerate(mono, 1) if t != (0, 0, 0)])


class WeylElement(Terms):
    __slots__ = ("variant", "terms")

    def __init__(self, variant, terms=None):
        self.variant = variant
        self.terms = terms if terms is not None else {}

    def _new(self, terms):
        return WeylElement(self.variant, terms)

    def _const_key(self):
        return unit_mono(self.variant)

    _label = staticmethod(_mono_str)

    def _join(self, t1, t2):
        return _mul_terms(self.variant, t1, t2)

    @staticmethod
    def unit(v, coeff=scalars.ONE):
        return WeylElement(v).constant(coeff)

    @staticmethod
    def generator(v, name, idx):
        return WeylElement(v, {letter_mono(v, name, idx): scalars.ONE})

    def __neg__(self):
        return Terms.__neg__(self)

    def __add__(self, other):
        return Terms.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return Terms.__sub__(self, other)

    def __rsub__(self, other):
        return Terms.__rsub__(self, other)

    def scale(self, s):
        return Terms.scale(self, s)

    def __mul__(self, other):
        return Terms.__mul__(self, other)

    def __rmul__(self, other):
        return Terms.__rmul__(self, other)

    def __pow__(self, k):
        return Terms.__pow__(self, k)


def reduce_word(v, word, coeff=scalars.ONE, strategy="left"):
    """Canonical form of coeff * word, rewriting from one chosen end.

    Letters at distinct indices commute, so the letters are grouped by
    index and every index's subword is reduced on its own integer state by
    _index_state.  Each choice of one term per index is one output
    monomial: its integer polynomials are multiplied over one shared
    (q - q^-1)^-N, N the sum of the states' x-d rewrites, and become one
    scalar.  word may be any iterable of (name, index) letters.  A word
    with more than MAX_INDEX_LETTERS x and d letters at one index raises
    ValueError before any index is reduced.
    """
    word = tuple(word)
    if strategy == "left":
        rule, letters = _append_right, word
    elif strategy == "right":
        rule, letters = _append_left, reversed(word)
    else:
        raise ValueError("unknown strategy %r" % (strategy,))
    # one set test for the whole word; only a word that fails it is walked
    # letter by letter, so the first bad letter is the one named
    if not _weyl_letters(v.rank).issuperset(word):
        for name, idx in word:
            validate_letter(v, name, idx)
    if isinstance(coeff, int):
        coeff = scalars.from_int(coeff)
    if coeff.is_zero:
        return WeylElement(v, {})
    subwords = {}  # index -> its letter names, in rewrite order
    for name, idx in letters:
        subwords.setdefault(idx, []).append(name)
    for idx, names in subwords.items():
        if len(names) > MAX_INDEX_LETTERS:
            n = len(names) - names.count("m") - names.count("mi")
            if n > MAX_INDEX_LETTERS:
                raise ValueError(
                    "word has %d x and d letters at index %d, above the limit of %d"
                    % (n, idx, MAX_INDEX_LETTERS)
                )
    choices = []  # per index: its terms as (position, triple, lo, cs)
    N = 0
    for idx, names in subwords.items():
        # the first letter rewrites the unit triple to its own triple
        t = _LETTER_TRIPLES[names[0]]
        a, b, n, terms = _index_state(v.kappa(idx), rule, t, names[1:])
        N += n
        p = idx - 1
        choices.append([(p, (a, b, c), lo, cs) for c, (lo, cs) in terms.items()])
    if N:
        coeff = coeff * _QD ** N
    mono = list(unit_mono(v))
    out = {}
    # distinct indices: each choice of one term per index is its own monomial
    for pick in itertools.product(*choices):
        lo, cs = 0, P_ONE
        for p, t, lo2, cs2 in pick:
            mono[p] = t
            lo += lo2
            cs = cs2 if cs is P_ONE else p_mul(cs, cs2)
        out[tuple(mono)] = laurent_times(lo, cs, coeff)
    return WeylElement(v, out)


def reduce_expr(v, expr):
    """Canonical form of a free expression over the d/x/m alphabet."""
    out = {}
    for word, c in expr.terms.items():
        for m, s in reduce_word(v, word, c).terms.items():
            acc(out, m, s)
    return WeylElement(v, out)


class EndoSpec:
    """A substitution rule: letter images plus direction and coefficient twist.

    direction "antimultiplicative" reverses each word before multiplying the
    images; coeff_twist "bar" sends every coefficient through q -> q^-1.
    The word walk and the term collection work on term dicts: a word's image
    starts from its first letter image's terms, scaled by the coefficient,
    and multiplies in each later letter image's terms through that image's
    _join, its type's product rule; the empty word maps to the constant of
    _empty(), an empty element of the images' type.  iqg.ISubst maps into
    free expressions.
    """

    __slots__ = ("variant", "images", "antimultiplicative", "bar_twist", "label")

    def __init__(self, variant, images, antimultiplicative=False, bar_twist=False, label=""):
        self.variant = variant
        self.images = images
        self.antimultiplicative = antimultiplicative
        self.bar_twist = bar_twist
        self.label = label

    def image(self, letter):
        img = self.images.get(letter)
        if img is None:
            raise ValueError("no image for letter %s%d" % letter)
        return img

    def _empty(self):
        return WeylElement(self.variant)

    def _word_image(self, word, coeff):
        """The terms of the image of coeff * word; may be a letter image's own."""
        if self.bar_twist:
            coeff = coeff.bar()
        if not word:
            return self._empty().constant(coeff).terms
        images = self.images
        # start from the first image: a unit left factor costs a product per word
        seq = iter(reversed(word) if self.antimultiplicative else word)
        letter = next(seq)
        img = images.get(letter)
        if img is None:
            self.image(letter)
        terms = img.terms
        one = scalars.ONE
        if coeff is not one:
            # as Terms.scale: a unit coefficient takes coeff
            terms = {k: coeff if c is one else c * coeff for k, c in terms.items()}
        join = img._join
        for letter in seq:
            img = images.get(letter)
            if img is None:
                self.image(letter)
            terms = join(terms, img.terms)
        return terms

    def _collect(self, pairs):
        """The terms of the sum of the images of (word, coeff) pairs."""
        pairs = iter(pairs)
        first = next(pairs, None)
        if first is None:
            return {}
        # a copy: the first image may be a letter image's own terms
        out = dict(self._word_image(*first))
        for word, coeff in pairs:
            for key, c in self._word_image(word, coeff).items():
                acc(out, key, c)
        return out

    def apply(self, elem):
        """Image of a canonical element under the substitution."""
        v = self.variant
        v.check_variant(elem.variant)
        pairs = ((mono_word(mono), coeff) for mono, coeff in elem.terms.items())
        return WeylElement(v, self._collect(pairs))

    def apply_free(self, expr):
        """Image of a free expression, one side of a relation check."""
        return WeylElement(self.variant, self._collect(expr.terms.items()))


def generator_letters(v):
    """Deterministic letter order used by every suite."""
    out = []
    for i in v.weyl_indices:
        for name in WEYL_LETTER_NAMES:
            out.append((name, i))
    return out


def relation_instances(v):
    """All defining relations as (id, description, lhs, rhs) free expressions."""
    L = FreeExpr.letter
    rels = []
    for i in v.weyl_indices:
        k = v.kappa(i)
        one = FreeExpr.one()
        m, mi = L("m", i), L("mi", i)
        d, x = L("d", i), L("x", i)
        rels.append(("minv/i=%d" % i, "m%d m%d^-1 = 1" % (i, i), m * mi, one))
        rels.append(("minv-rev/i=%d" % i, "m%d^-1 m%d = 1" % (i, i), mi * m, one))
        for a, sa, ga in (("d", 1, d), ("x", -1, x)):
            for b, sb, gb in (("m", 1, m), ("mi", -1, mi)):
                ta, tb = letter_tag((a, i)), letter_tag((b, i))
                ex = sa * sb * k
                rels.append(
                    (
                        "%s%s/i=%d" % (a, b, i),
                        "%s %s = q^%d %s %s" % (ta, tb, ex, tb, ta),
                        ga * gb,
                        (gb * ga).scale(qpow(ex)),
                    )
                )
        rels.append(
            (
                "dx/i=%d" % i,
                "d%d x%d = (q^%d m%d - q^%d m%d^-1)/(q - q^-1)" % (i, i, k, i, -k, i),
                d * x,
                (m.scale(qpow(k)) - mi.scale(qpow(-k))).scale(_QD),
            )
        )
        rels.append(
            (
                "xd/i=%d" % i,
                "x%d d%d = (m%d - m%d^-1)/(q - q^-1)" % (i, i, i, i),
                x * d,
                (m - mi).scale(_QD),
            )
        )
    names = WEYL_LETTER_NAMES
    for i in v.weyl_indices:
        for j in v.weyl_indices:
            if j <= i:
                continue
            for n1 in names:
                for n2 in names:
                    a, b = L(n1, i), L(n2, j)
                    rels.append(
                        (
                            "comm/%s-%s/i=%d,j=%d" % (n1, n2, i, j),
                            "%s%d %s%d = %s%d %s%d" % (n1, i, n2, j, n2, j, n1, i),
                            a * b,
                            b * a,
                        )
                    )
    return rels


def relation_checks(prefix, relations, side):
    """An equality check of side(lhs) and side(rhs) for each
    (id, description, lhs, rhs) relation."""
    return [
        equality_check(prefix + rid, desc, side(lhs), side(rhs))
        for rid, desc, lhs, rhs in relations
    ]


def check_weyl_relations(v):
    """Reduce both sides of every defining relation and compare."""
    return relation_checks("weyl-relations/", relation_instances(v), lambda x: reduce_expr(v, x))


def check_well_defined_one(spec, prefix, relations, seen):
    """Map relation sides through a substitution's letter images and compare.

    Works on free words, so it is exactly the well-definedness test; an
    antimultiplicative image table reverses the sides on its own.
    relations is relation_instances(spec.variant), built once by the caller.

    A record depends on the table only through the images of its relation's
    letters, the two flags and the label, which reaches only the
    description.  seen, one dict shared by the calls over one relation
    list, keeps under the key None that list and each relation's letters,
    read once, interns each letter image (with its variant) to an int and
    keeps the rendered sides and status per (relation id, flags, letter
    ints), so a relation whose letters two tables map alike is evaluated
    once.
    """
    v = spec.variant
    kept = seen.get(None)
    if kept is None or kept[0] is not relations:
        kept = seen[None] = relations, [
            tuple(l for side in (lhs, rhs) for word in side.terms for l in word)
            for _, _, lhs, rhs in relations
        ]
    ids = {}

    def letter_id(letter):
        n = ids.get(letter)
        if n is None:
            img = spec.image(letter)
            n = ids[letter] = seen.setdefault((v, tuple(sorted(img.terms.items()))), len(seen))
        return n

    flags = (spec.antimultiplicative, spec.bar_twist)
    label = spec.label
    checks = []
    for (rid, desc, lhs, rhs), letters in zip(relations, kept[1]):
        key = (rid, flags) + tuple(map(letter_id, letters))
        desc = "%s preserves %s" % (label, desc)
        texts = seen.get(key)
        if texts is None:
            c = equality_check(prefix + rid, desc, spec.apply_free(lhs), spec.apply_free(rhs))
            seen[key] = (c.lhs, c.rhs, c.status)
        else:
            c = Check(prefix + rid, desc, *texts)
        checks.append(c)
    return checks
