"""Exact arithmetic in Q(q), the field of rational functions in q.

A scalar is q^val * num/den: val is an int, and num and den are coprime
integer polynomials stored as dense coefficient tuples (index = power of q,
no trailing zeros), each with a nonzero constant term.  Canonical form:
gcd(num, den) = 1 including integer content, den has positive leading
coefficient, zero is q^0 * ()/(1,).  A power of q is the integer val alone,
so products of q-powers and the bar involution cost O(1) in the exponent.
"""

import math
from itertools import accumulate

P_ZERO = ()
P_ONE = (1,)


def p_trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def p_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return p_trim(out)


def p_neg(a):
    return tuple(-c for c in a)


def p_mul(a, b):
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def p_pow(a, k):
    if len(a) == 1:
        # a constant, such as the (1,) of a power of q: one int power
        return (a[0] ** k,)
    out = P_ONE
    for _ in range(k):
        out = p_mul(out, a)
    return out


def p_shift(a, k):
    # multiply by q^k, k >= 0
    return ((0,) * k + a) if a else P_ZERO


def p_val(a):
    # q-adic valuation of a nonzero polynomial
    i = 0
    while a[i] == 0:
        i += 1
    return i


def p_content(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g


def _pos(a):
    return a if a[-1] > 0 else p_neg(a)


def _pp(a):
    # primitive part, positive leading coefficient
    c = p_content(a)
    if c != 1:
        a = tuple(x // c for x in a)
    return a if a[-1] > 0 else p_neg(a)


def _prem(a, b):
    # pseudo-remainder: repeatedly scale by lc(b) and subtract shifted b,
    # valid input for a primitive remainder sequence
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(len(a) - db - 1, -1, -1):
        lead = r[db + k]
        if lead:
            for i in range(len(r)):
                r[i] *= lb
            for i in range(db + 1):
                r[k + i] -= lead * b[i]
    return p_trim(r[:db])


def p_gcd(a, b):
    """Gcd in Z[q], positive leading coefficient, integer content included."""
    if not a:
        return _pos(b) if b else P_ZERO
    if not b:
        return _pos(a)
    va = p_val(a)
    vb = p_val(b)
    v = min(va, vb)
    sa = a[va:]
    sb = b[vb:]
    c = math.gcd(p_content(sa), p_content(sb))
    A = _pp(sa)
    B = _pp(sb)
    if len(A) < len(B):
        A, B = B, A
    while B:
        if len(B) == 1:
            A = P_ONE
            break
        R = _prem(A, B)
        A, B = B, (_pp(R) if R else P_ZERO)
    g = A if c == 1 else tuple(x * c for x in A)
    return p_shift(g, v)


def p_div_exact(a, b):
    # exact division in Z[q]; b must divide a
    if not a:
        return P_ZERO
    out = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = r[len(b) - 1 + k]
        qc = c // lb
        if qc * lb != c:
            raise ArithmeticError("inexact polynomial division")
        out[k] = qc
        if qc:
            for i, bi in enumerate(b):
                r[k + i] -= qc * bi
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return p_trim(out)


# Denominator shapes.  The relations only ever divide by q^k and q - q^-1,
# and q^k lives in val, so almost every denominator is c*(q-1)^a*(q+1)^b,
# stored as the shape (c, a, b).  Against such a denominator the gcd needs
# no polynomial remainders: integer content and divisibility by q -+ 1 read
# off n(1) and n(-1).  Both tables are bounded and start over when full.

_SHAPE_TABLE_MAX = 2048
_shape_of = {}  # denominator tuple -> shape, or None when it has none
_shape_poly = {}  # shape -> denominator tuple
_UNSEEN = object()


def remember(table, key, value, cap):
    """table[key] = value in a table of at most cap entries.

    A full table is emptied first: every entry can be computed again, and
    starting over needs no record of which entry is oldest.
    """
    if len(table) >= cap:
        table.clear()
    table[key] = value


def _div_q_minus_1(n):
    # n / (q - 1), given n(1) = 0
    return tuple(accumulate(n[:0:-1]))[::-1]


def _div_q_plus_1(n):
    # n / (q + 1), given n(-1) = 0
    out = []
    acc = 0
    for c in n[:0:-1]:
        acc = c - acc
        out.append(acc)
    return tuple(out[::-1])


def _at_minus_1(n):
    return sum(n[::2]) - sum(n[1::2])


def _find_shape(p):
    c = p_content(p)
    if p[-1] < 0:
        c = -c
    if c != 1:
        p = tuple(x // c for x in p)
    a = 0
    while len(p) > 1 and not sum(p):
        p = _div_q_minus_1(p)
        a += 1
    b = 0
    while len(p) > 1 and not _at_minus_1(p):
        p = _div_q_plus_1(p)
        b += 1
    return (c, a, b) if p == P_ONE else None


def _shape(d):
    """(c, a, b) with d = c*(q-1)^a*(q+1)^b, or None."""
    s = _shape_of.get(d, _UNSEEN)
    if s is _UNSEEN:
        s = _find_shape(d)
        remember(_shape_of, d, s, _SHAPE_TABLE_MAX)
    return s


def _from_shape(s):
    """The polynomial of a shape; registers its shape for _shape."""
    d = _shape_poly.get(s)
    if d is None:
        c, a, b = s
        d = (c,)
        for _ in range(a):
            d = p_mul(d, (-1, 1))
        for _ in range(b):
            d = p_mul(d, (1, 1))
        remember(_shape_poly, s, d, _SHAPE_TABLE_MAX)
        remember(_shape_of, d, s, _SHAPE_TABLE_MAX)
    return d


def _cancel(n, d):
    """(n/g, d/g) for g = p_gcd(n, d), n nonzero, d(0) nonzero."""
    s = _shape(d)
    if s is None:
        g = p_gcd(n, d)
        if g == P_ONE:
            return n, d
        return p_div_exact(n, g), p_div_exact(d, g)
    c, a, b = s
    s0 = s
    g = math.gcd(c, *n)
    if g != 1:
        n = tuple(x // g for x in n)
        c //= g
    k = 0
    while k < a and not sum(n):
        n = _div_q_minus_1(n)
        k += 1
    a -= k
    k = 0
    while k < b and not _at_minus_1(n):
        n = _div_q_plus_1(n)
        k += 1
    b -= k
    s = (c, a, b)
    return n, (d if s == s0 else _from_shape(s))


def _den_mul(d1, d2):
    """d1*d2, by adding shapes when both denominators have one."""
    s1 = _shape(d1)
    s2 = _shape(d2)
    if s1 is None or s2 is None:
        return p_mul(d1, d2)
    return _from_shape((s1[0] * s2[0], s1[1] + s2[1], s1[2] + s2[2]))


def _reduce(val, num, den):
    """(val, num, den) of q^val * num/den in canonical form, given den(0) != 0."""
    if not num:
        return 0, P_ZERO, P_ONE
    j = p_val(num)
    num = num[j:]
    if den != P_ONE:
        num, den = _cancel(num, den)
        if den[-1] < 0:
            num, den = p_neg(num), p_neg(den)
    return val + j, num, den


def p_lcm(a, b):
    if a == P_ONE:
        return _pos(b)
    if b == P_ONE:
        return _pos(a)
    sa = _shape(a)
    sb = _shape(b)
    if sa is not None and sb is not None:
        c = math.lcm(sa[0], sb[0])
        return _from_shape((c,) + tuple(map(max, sa[1:], sb[1:])))
    g = p_gcd(a, b)
    return _pos(p_mul(a, p_div_exact(b, g)))


def poly_str(p, shift=0):
    """Render with descending powers of q; shift lets exponents go negative."""
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        e = k + shift
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qq = "q" if e == 1 else "q^%d" % e
            body = qq if mag == 1 else "%d*%s" % (mag, qq)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


class QScalar:
    __slots__ = ("val", "num", "den")

    def __init__(self, num=P_ZERO, den=P_ONE):
        if isinstance(num, int):
            num = (num,) if num else P_ZERO
        if isinstance(den, int):
            den = (den,) if den else P_ZERO
        num = p_trim(num)
        den = p_trim(den)
        if not den:
            raise ZeroDivisionError("zero divisor")
        j = p_val(den)
        self.val, self.num, self.den = _reduce(-j, num, den[j:])

    @staticmethod
    def _raw(val, num, den):
        # trusted constructor: (val, num, den) already canonical
        s = object.__new__(QScalar)
        s.val = val
        s.num = num
        s.den = den
        return s

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        return self.val == other.val and self.num == other.num and self.den == other.den

    def __hash__(self):
        # an integer-valued scalar equals that int, so it must hash like it
        if not self.val and self.den == P_ONE and len(self.num) <= 1:
            return hash(self.num[0] if self.num else 0)
        return hash((self.val, self.num, self.den))

    def __neg__(self):
        return QScalar._raw(self.val, p_neg(self.num), self.den)

    def __add__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1:
            return other
        if not n2:
            return self
        v = min(self.val, other.val)
        n1 = p_shift(n1, self.val - v)
        n2 = p_shift(n2, other.val - v)
        if d1 == d2:
            return QScalar._raw(*_reduce(v, p_add(n1, n2), d1))
        num = p_add(p_mul(n1, d2), p_mul(n2, d1))
        return QScalar._raw(*_reduce(v, num, _den_mul(d1, d2)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if not n1 or not n2:
            return ZERO
        v = self.val + other.val
        if n1 == P_ONE and d1 == P_ONE:
            return QScalar._raw(v, n2, d2) if self.val else other
        if n2 == P_ONE and d2 == P_ONE:
            return QScalar._raw(v, n1, d1) if other.val else self
        if d1 == P_ONE and d2 == P_ONE:
            return QScalar._raw(v, p_mul(n1, n2), P_ONE)
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        return QScalar._raw(v, p_mul(n1, n2), _den_mul(d1, d2))

    __rmul__ = __mul__

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("zero divisor")
        n, d = self.den, self.num
        if d[-1] < 0:
            n, d = p_neg(n), p_neg(d)
        return QScalar._raw(-self.val, n, d)

    def __truediv__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k):
        if k == 0:
            return ONE
        if k < 0:
            return self.inv() ** (-k)
        return QScalar._raw(self.val * k, p_pow(self.num, k), p_pow(self.den, k))

    def bar(self):
        """The involution q -> q^-1."""
        n, d = self.num, self.den
        if not n:
            return ZERO
        # p(q^-1) = q^-deg(p) * (p reversed), and reversal keeps both
        # constant terms nonzero
        n, d = n[::-1], d[::-1]
        if d[-1] < 0:
            n, d = p_neg(n), p_neg(d)
        return QScalar._raw(len(d) - len(n) - self.val, n, d)

    def __str__(self):
        ns = poly_str(self.num, max(self.val, 0))
        if self.den == P_ONE and self.val >= 0:
            return ns
        return "(%s)/(%s)" % (ns, poly_str(self.den, max(-self.val, 0)))

    def __repr__(self):
        return "QScalar(%s)" % self


def _wrap(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, int):
        return from_int(x)
    return None


ZERO = QScalar._raw(0, P_ZERO, P_ONE)
ONE = QScalar._raw(0, P_ONE, P_ONE)
MINUS_ONE = QScalar._raw(0, (-1,), P_ONE)

# weyl and polymod compare ONE by identity, so qpow(0) and from_int(0/1/-1)
# return the module constants.
_SMALL_INTS = {0: ZERO, 1: ONE, -1: MINUS_ONE}


def from_int(c):
    s = _SMALL_INTS.get(c)
    return QScalar._raw(0, (c,), P_ONE) if s is None else s


def from_frac(a, b):
    return QScalar((a,), (b,))


def qpow(k):
    """q^k as a scalar, for any integer k."""
    return QScalar._raw(k, P_ONE, P_ONE) if k else ONE


def qint(n):
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n <= 0:
        return -qint(-n) if n else ZERO
    return QScalar._raw(1 - n, (1, 0) * (n - 1) + (1,), P_ONE)


def qfact(n):
    """[n]! = [n][n-1]...[1]."""
    if n < 0:
        raise ValueError("negative factorial")
    s = ONE
    for k in range(1, n + 1):
        s = s * qint(k)
    return s


def qdoublefact(a):
    """[2a]!! = [2a][2a-2]...[2]."""
    if a < 0:
        raise ValueError("negative factorial")
    s = ONE
    for k in range(1, a + 1):
        s = s * qint(2 * k)
    return s


def laurent_over_common_den(scalars):
    """Express scalars over one balanced common denominator.

    Returns ([(shift, numpoly)], (dshift, denpoly)); each scalar equals
    q^shift * numpoly / (q^dshift * denpoly), and denpoly == (1,) means no
    denominator is needed.  The shift -h centers the denominator so that
    q^2 - 1 is presented as q - q^-1.
    """
    D = P_ONE
    for s in scalars:
        if s.den != P_ONE:
            D = p_lcm(D, s.den)
    h = (len(D) - 1) // 2
    nums = []
    for s in scalars:
        f = D if s.den == P_ONE else p_div_exact(D, s.den)
        nums.append((s.val - h, p_mul(s.num, f) if f != P_ONE else s.num))
    return nums, (-h, D)


def terms_str(pairs, sep="*"):
    """Render [(monomial label, coefficient)] over one balanced denominator.

    Labels are attached with sep; coefficients +-1 vanish, single q-powers
    stay inline ("q^-1*m1^-1"), anything longer gets parentheses.
    """
    if not pairs:
        return "0"
    nums, (dshift, dpoly) = laurent_over_common_den([c for _, c in pairs])
    rendered = []
    for (label, _), (shift, npoly) in zip(pairs, nums):
        nz = [k for k, c in enumerate(npoly) if c]
        if len(nz) == 1:
            k = nz[0]
            c = npoly[k]
            e = shift + k
            neg = c < 0
            mag = abs(c)
            factors = []
            if mag != 1:
                factors.append(str(mag))
            if e != 0:
                factors.append("q" if e == 1 else "q^%d" % e)
            head = "*".join(factors)
            if head and label:
                body = head + sep + label
            else:
                body = head or label or "1"
        else:
            neg = False
            inner = poly_str(npoly, shift)
            if label:
                body = "(" + inner + ")" + sep + label
            elif len(pairs) > 1:
                body = "(" + inner + ")"
            else:
                body = inner
        rendered.append((neg, body))
    out = []
    for neg, body in rendered:
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append((" - " if neg else " + ") + body)
    joined = "".join(out)
    if dpoly == P_ONE:
        return joined
    return "(%s)/(%s)" % (joined, poly_str(dpoly, dshift))
