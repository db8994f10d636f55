"""Elements of a free algebra over Q(q) on an abstract letter alphabet.

A letter is a (name, index) pair; a word is a tuple of letters.  An
expression keeps a dict word -> coefficient with like words collected and
zero coefficients dropped.  No rewriting happens here: this is the layer on
which substitution operators act before anything is reduced.  Every term
type of the package, free, Weyl or polynomial, collects through acc and
shares the contract of Terms.
"""

from . import scalars
from .scalars import QScalar

# Most terms a power of an element may expand to before like terms collect:
# an n-term element to the k has n^k words, at most that many terms for free
# expressions and usually far more than the collected Weyl or polynomial
# terms.  On a shared 2-core x86 host (x1 + d1 + x2 + d2)^8, 4^8 words, takes
# 0.03 s; (B1 + B2)^16, 2^16 free words, 0.2 s and 35 MB;
# (x1 + d1 + x2 + d2)^20 ran 4.5 s and 112 MB.  A product or q-commutator of
# two elements is held to the same limit on its term pairs: the product of
# two 425-term powers (x1 + d1 + x2 + d2)^8 ran 11 s and 48 MB.  So is a
# word under a free substitution (iqg.ISubst), on the product of its letter
# images' term counts: tau_1(B2) has 5 words at imath rank 1, and B2^7,
# 5^7 words, ran 1.3 s, 65 MB and printed 5.0 MB; B2^8 6.0 s and 295 MB.
# The parser reads it as parser.MAX_POWER_TERMS.
MAX_POWER_TERMS = 4 ** 8


def acc(out, key, coeff):
    """Add coeff into the dict of terms out at key; a sum that cancels drops the key."""
    s = out.get(key)
    if s is None:
        if not coeff.is_zero:
            out[key] = coeff
    else:
        s = s + coeff
        if s.is_zero:
            del out[key]
        else:
            out[key] = s


class Terms:
    """A linear combination over Q(q): a dict key -> nonzero coefficient.

    The contract of every term type: an element equals the scalar (int or
    QScalar) its constant term carries, so no element is hashable, and
    comparing or combining elements of two variants raises "variant
    mismatch".  A subclass supplies _new(terms), an element of its own
    variant, _const_key(), the key of its constant term, _label(key) for
    str, and __mul__, as each type joins two keys its own way.

    perfbench/tracing.py wraps a traced operator only where the subclass
    binds it, one code object per name, so the subclasses keep one-line
    methods that call the bodies here until the tracer walks the MRO.
    """

    __slots__ = ()

    _sep = "*"  # between a coefficient and a label

    __hash__ = None

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def _coerce(self, other):
        """other as an element of this variant, or None if it is no such thing."""
        if isinstance(other, type(self)):
            if other.variant is not self.variant:
                self.variant.check_variant(other.variant)
            return other
        if isinstance(other, (int, QScalar)):
            return self.constant(other)
        return None

    def constant(self, c):
        """The element of this variant equal to the int or QScalar c."""
        if isinstance(c, int):
            c = scalars.from_int(c)
        return self._new({} if c.is_zero else {self._const_key(): c})

    def scalar_value(self):
        """The scalar this element equals, or None if it is not a scalar."""
        terms = self.terms
        if not terms:
            return scalars.ZERO
        return terms.get(self._const_key()) if len(terms) == 1 else None

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc(out, k, c)
        return self._new(out)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(self._join(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        """This element times the int or QScalar s; a unit coefficient takes s."""
        if isinstance(s, int):
            s = scalars.from_int(s)
        if s.is_zero:
            return self._new({})
        one = scalars.ONE
        return self._new({k: s if c is one else c * s for k, c in self.terms.items()})

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("non-integer power of %s" % type(self).__name__)
        if k < 0:
            raise ValueError("negative power of %s" % type(self).__name__)
        out = self if k else self.constant(scalars.ONE)
        for _ in range(k - 1):
            out = out * self
        return out

    def __str__(self):
        keys = sorted(self.terms, reverse=True)
        return scalars.terms_str(
            [(self._label(k), self.terms[k]) for k in keys], sep=self._sep
        )

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class FreeExpr(Terms):
    __slots__ = ("terms",)

    variant = None  # free expressions have no variant: they all combine

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    def _new(self, terms):
        return FreeExpr(terms)

    def _const_key(self):
        return ()

    @staticmethod
    def _join(t1, t2):
        """Word concatenation: every pair of words is a word of the product."""
        out = {}
        for w1, c1 in t1.items():
            for w2, c2 in t2.items():
                acc(out, w1 + w2, c1 * c2)
        return out

    @staticmethod
    def _label(word):
        """Letter tags, inverse letters spelled as powers (K1^-1)."""
        return " ".join(map(letter_tag, word))

    @staticmethod
    def zero():
        return FreeExpr({})

    @staticmethod
    def one():
        return FreeExpr().constant(scalars.ONE)

    @staticmethod
    def from_scalar(s):
        return FreeExpr().constant(s)

    @staticmethod
    def letter(name, index):
        return FreeExpr({((name, index),): scalars.ONE})

    @staticmethod
    def word(letters, coeff=scalars.ONE):
        if isinstance(coeff, int):
            coeff = scalars.from_int(coeff)
        if coeff.is_zero:
            return FreeExpr({})
        return FreeExpr({tuple(letters): coeff})

    def __neg__(self):
        return Terms.__neg__(self)

    def __add__(self, other):
        return Terms.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return Terms.__sub__(self, other)

    def __rsub__(self, other):
        return Terms.__rsub__(self, other)

    def __mul__(self, other):
        return Terms.__mul__(self, other)

    def __rmul__(self, other):
        return Terms.__rmul__(self, other)

    def scale(self, s):
        return Terms.scale(self, s)

    def __pow__(self, k):
        return Terms.__pow__(self, k)


def letter_tag(letter):
    """Render a letter for reports: inverse letters mi, Ki as m1^-1, K1^-1."""
    name, idx = letter
    if name in ("mi", "Ki"):
        return "%s%d^-1" % (name[0], idx)
    return "%s%d" % (name, idx)


def qcomm(x, y, e):
    """q-commutator [x, y]_e = x*y - q^e * y*x."""
    return x * y - (y * x).scale(scalars.qpow(e))
