"""Exact arithmetic in Q(q), the field of rational functions in q.

A scalar is q^val * num/den: val is an int, and num and den are coprime
integer polynomials, each with a nonzero constant term.  num is stored as a
dense coefficient tuple (index = power of q, no trailing zeros), den as its
factors (c, a, b, r), see D_ONE below; the property den multiplies them out.
Canonical form: gcd(num, den) = 1 including integer content, den has
positive leading coefficient, zero is q^0 * ()/(1,).  A power of q is the
integer val alone, so products of q-powers and the bar involution cost O(1)
in the exponent.
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
    if a == P_ONE:
        return b
    if b == P_ONE:
        return a
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


# Largest product of the degrees of p_gcd's two operands, q-powers removed.
# The remainder sequence takes about deg a * deg b steps on integers that
# grow with both degrees, so two large cofactors are refused before it runs.
# On a shared 2-core x86 host, (q+2)^100 against (q+3)^100 took 0.01 s
# within the limit; past it, (1000, 100) in (q+2)^1000/(7q+3)^100 took 22 s
# and 1/(q+2)^300 + 1/(q+3)^300 over 10 s.  Within it, (q+2)^1000 against
# (1000q+3)^10 (2.6 s) and (70, 140) in 1/(2q+3)^70 + 1/(3q+5)^70 (1.1 s)
# are refused by MAX_GCD_BITS below.
MAX_GCD_DEGREES = 100 * 100

# Largest size db * bits(A) + da * bits(B) of p_gcd's primitive operands A
# and B, of degrees da and db, bits(p) the bit length of p's largest
# coefficient.  It bounds, about, the bits of the remainder sequence's
# coefficients, and a pseudo-remainder of A by B scales A by lc(B) once per
# degree it drops, so a wide leading coefficient costs time at any degree.
# On a shared 2-core x86 host, gcds within the limit: (q+2)^100 against
# (q+3)^100 (size 35,200) 0.01 s, against 2^397 q + 1 (39,955) 0.03 s, two
# dense degree-100 polynomials of 176-bit coefficients (35,200) 9.7 s and of
# 200-bit ones (40,000) 12 s; past it, (q+2)^100 against (7^300 q + 1)^4
# (337,520) 1.6 s, against (N q + 1)^4, N a 300-digit integer, (399,120)
# 2.2 s, the time growing as the square of N's digits, and two dense
# degree-100 polynomials of 600-bit coefficients (120,000) 98 s.
MAX_GCD_BITS = 40000


def _bits(a):
    return max(map(abs, a)).bit_length()


def p_gcd(a, b):
    """Gcd in Z[q], positive leading coefficient, integer content included.

    Raises ValueError when the product of the operands' degrees, q-powers
    removed, is above MAX_GCD_DEGREES, or when their primitive parts' sizes
    combine past MAX_GCD_BITS.
    """
    if not a:
        return _pos(b) if b else P_ZERO
    if not b:
        return _pos(a)
    va = p_val(a)
    vb = p_val(b)
    v = min(va, vb)
    sa = a[va:]
    sb = b[vb:]
    degrees = (len(sa) - 1) * (len(sb) - 1)
    if degrees > MAX_GCD_DEGREES:
        raise ValueError(
            "gcd of polynomials of degrees %d and %d, above the limit of %d on their product"
            % (len(sa) - 1, len(sb) - 1, MAX_GCD_DEGREES)
        )
    c = math.gcd(p_content(sa), p_content(sb))
    A = _pp(sa)
    B = _pp(sb)
    da, db = len(A) - 1, len(B) - 1
    ba, bb = _bits(A), _bits(B)
    size = db * ba + da * bb
    if size > MAX_GCD_BITS:
        raise ValueError(
            "gcd of polynomials of degrees %d and %d with %d- and %d-bit coefficients,"
            " size %d above the limit of %d" % (da, db, ba, bb, size, MAX_GCD_BITS)
        )
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


# Factored denominators.  A denominator is stored as the factors (c, a, b, r)
# of c*(q-1)^a*(q+1)^b*r: c > 0, r primitive with positive leading
# coefficient and r(0), r(1), r(-1) nonzero, which makes the split unique.
# Products add exponents, and cancelling reads integer content and
# divisibility by q -+ 1 off n(1) and n(-1); only a cofactor r != 1 needs
# polynomial remainders.  The relations only ever divide by q^k and
# q - q^-1, and q^k lives in val, so all their denominators have r = 1.

D_ONE = (1, 0, 0, P_ONE)


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


def _split(p):
    """The factors (c, a, b, r) of p, p(0) != 0, c signed like p's leading term."""
    c = p_content(p)
    if p[-1] < 0:
        c = -c
    if c != 1:
        p = tuple(x // c for x in p)
    a = 0
    while not sum(p):
        p = _div_q_minus_1(p)
        a += 1
    b = 0
    while not _at_minus_1(p):
        p = _div_q_plus_1(p)
        b += 1
    return c, a, b, p


def _expand(p, c, a, b, r):
    """p*c*(q-1)^a*(q+1)^b*r as one polynomial.

    (q-1)^a (q+1)^b is (q^2-1)^m (q + s)^e with m = min(a, b), e = |a - b|
    and s = -1 or 1, each power written down from its binomial coefficients.
    """
    if c == 1 and not a and not b:
        return p_mul(p, r)
    m = min(a, b)
    out = [0] * (2 * m + 1)
    for j in range(m + 1):
        out[2 * j] = c * math.comb(m, j) * (-1) ** (m - j)
    out = tuple(out)
    e = abs(a - b)
    if e:
        s = -1 if a > b else 1
        out = p_mul(out, tuple(math.comb(e, j) * s ** (e - j) for j in range(e + 1)))
    return p_mul(p_mul(p, out), r)


def _cancel(n, d):
    """(n/g, d/g) for g = gcd(n, d): n a nonzero polynomial, d factored."""
    c, a, b, r = d
    if c != 1:
        g = math.gcd(c, *n)
        if g != 1:
            n = tuple(x // g for x in n)
            c //= g
    while a and not sum(n):
        n = _div_q_minus_1(n)
        a -= 1
    while b and not _at_minus_1(n):
        n = _div_q_plus_1(n)
        b -= 1
    if r != P_ONE:
        g = p_gcd(n, r)
        if g != P_ONE:
            n, r = p_div_exact(n, g), p_div_exact(r, g)
    out = c, a, b, r
    # an unchanged denominator stays shared
    return n, (d if out == d else out)


def _den_mul(d1, d2):
    if d1 == D_ONE:
        return d2
    if d2 == D_ONE:
        return d1
    c1, a1, b1, r1 = d1
    c2, a2, b2, r2 = d2
    return c1 * c2, a1 + a2, b1 + b2, p_mul(r1, r2)


def _den_lcm(d1, d2):
    if d1 == D_ONE or d1 == d2:
        return d2
    if d2 == D_ONE:
        return d1
    c1, a1, b1, r1 = d1
    c2, a2, b2, r2 = d2
    if r1 == P_ONE or r2 == P_ONE:
        r = p_mul(r1, r2)
    else:
        r = p_mul(r1, p_div_exact(r2, p_gcd(r1, r2)))
    return math.lcm(c1, c2), max(a1, a2), max(b1, b2), r


def _over(n, m, d):
    """n * m/d, for factored denominators d dividing m."""
    c, a, b, r = d
    cm, am, bm, rm = m
    f = rm if r == P_ONE else p_div_exact(rm, r)
    return _expand(n, cm // c, am - a, bm - b, f)


def _reduce(val, num, den):
    """(val, num, den) of q^val * num/den in canonical form, den factored."""
    if not num:
        return 0, P_ZERO, D_ONE
    j = p_val(num)
    num = num[j:]
    if den != D_ONE:
        num, den = _cancel(num, den)
    return val + j, num, den


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
    __slots__ = ("val", "num", "dfac")

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
        c, a, b, r = _split(den[j:])
        if c < 0:
            num, c = p_neg(num), -c
        self.val, self.num, self.dfac = _reduce(-j, num, (c, a, b, r))

    @staticmethod
    def _raw(val, num, dfac):
        # trusted constructor: (val, num, dfac) already canonical
        s = object.__new__(QScalar)
        s.val = val
        s.num = num
        s.dfac = dfac
        return s

    @property
    def den(self):
        """The denominator polynomial, multiplied out from its factors."""
        return _expand(P_ONE, *self.dfac)

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        return self.val == other.val and self.num == other.num and self.dfac == other.dfac

    def __hash__(self):
        # an integer-valued scalar equals that int, so it must hash like it
        if not self.val and self.dfac == D_ONE and len(self.num) <= 1:
            return hash(self.num[0] if self.num else 0)
        return hash((self.val, self.num, self.dfac))

    def __neg__(self):
        return QScalar._raw(self.val, p_neg(self.num), self.dfac)

    def __add__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        n1, d1 = self.num, self.dfac
        n2, d2 = other.num, other.dfac
        if not n1:
            return other
        if not n2:
            return self
        v = min(self.val, other.val)
        n1 = p_shift(n1, self.val - v)
        n2 = p_shift(n2, other.val - v)
        if d1 == d2:
            return QScalar._raw(*_reduce(v, p_add(n1, n2), d1))
        d = _den_lcm(d1, d2)
        num = p_add(_over(n1, d, d1), _over(n2, d, d2))
        return QScalar._raw(*_reduce(v, num, d))

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
        n1, d1 = self.num, self.dfac
        n2, d2 = other.num, other.dfac
        if not n1 or not n2:
            return ZERO
        v = self.val + other.val
        if n1 == P_ONE and d1 == D_ONE:
            return QScalar._raw(v, n2, d2) if self.val else other
        if n2 == P_ONE and d2 == D_ONE:
            return QScalar._raw(v, n1, d1) if other.val else self
        if d2 != D_ONE:
            n1, d2 = _cancel(n1, d2)
        if d1 != D_ONE:
            n2, d1 = _cancel(n2, d1)
        return QScalar._raw(v, p_mul(n1, n2), _den_mul(d1, d2))

    __rmul__ = __mul__

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("zero divisor")
        c, a, b, r = _split(self.num)
        n = self.den
        if c < 0:
            n, c = p_neg(n), -c
        return QScalar._raw(-self.val, n, (c, a, b, r))

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
        c, a, b, r = self.dfac
        d = c**k, a * k, b * k, p_pow(r, k)
        return QScalar._raw(self.val * k, p_pow(self.num, k), d)

    def bar(self):
        """The involution q -> q^-1."""
        n = self.num
        if not n:
            return ZERO
        # p(q^-1) = q^-deg(p) * (p reversed), and reversal keeps the
        # constant terms nonzero; (q - 1)(q^-1) = -q^-1 (q - 1) and
        # (q + 1)(q^-1) = q^-1 (q + 1), so only r is reversed
        c, a, b, r = self.dfac
        n = n[::-1]
        if a % 2:
            n = p_neg(n)
        if len(r) > 1:
            r = r[::-1]
            if r[-1] < 0:
                n, r = p_neg(n), p_neg(r)
        return QScalar._raw(a + b + len(r) - len(n) - self.val, n, (c, a, b, r))

    def __str__(self):
        ns = poly_str(self.num, max(self.val, 0))
        if self.dfac == D_ONE and self.val >= 0:
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


ZERO = QScalar._raw(0, P_ZERO, D_ONE)
ONE = QScalar._raw(0, P_ONE, D_ONE)
MINUS_ONE = QScalar._raw(0, (-1,), D_ONE)

# weyl and polymod compare ONE by identity, so qpow(0) and from_int(0/1/-1)
# return the module constants.
_SMALL_INTS = {0: ZERO, 1: ONE, -1: MINUS_ONE}


def from_int(c):
    s = _SMALL_INTS.get(c)
    return QScalar._raw(0, (c,), D_ONE) if s is None else s


def from_frac(a, b):
    return QScalar((a,), (b,))


def qpow(k):
    """q^k as a scalar, for any integer k."""
    return QScalar._raw(k, P_ONE, D_ONE) if k else ONE


def qint_laurent(n):
    """[n] for n > 0 as (lo, cs): q^lo * cs(q) = q^(1-n) (1 + q^2 + ... + q^(2n-2))."""
    return 1 - n, (1, 0) * (n - 1) + (1,)


def qint(n):
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n <= 0:
        return -qint(-n) if n else ZERO
    return QScalar._raw(*qint_laurent(n), D_ONE)


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


def laurent_times(lo, cs, c):
    """q^lo * cs(q) * c, cs(0) != 0: one product, none for cs = +-1.

    For q^0 it returns c itself, so a unit stays scalars.ONE.
    """
    if cs == P_ONE:
        return QScalar._raw(c.val + lo, c.num, c.dfac) if lo else c
    if cs == (-1,):
        return QScalar._raw(c.val + lo, p_neg(c.num), c.dfac)
    return QScalar._raw(lo, cs, D_ONE) * c


def terms_str(pairs, sep="*"):
    """Render [(monomial label, nonzero coefficient)] over one balanced denominator.

    The denominator is the lcm of the coefficients' distinct denominators,
    shifted by q^-h so that q^2 - 1 is presented as q - q^-1.  Labels are
    attached with sep; coefficients +-1 vanish, single q-powers stay inline
    ("q^-1*m1^-1"), anything longer gets parentheses.
    """
    if not pairs:
        return "0"
    D = D_ONE
    # first-seen order: no set order reaches the lcm
    for d in dict.fromkeys(s.dfac for _, s in pairs):
        D = _den_lcm(D, d)
    _, a, b, r = D
    h = (a + b + len(r) - 1) // 2
    out = []
    for label, s in pairs:
        npoly = s.num if s.dfac == D else _over(s.num, D, s.dfac)
        shift = s.val - h
        # num(0) != 0 and D's factors are nonzero at 0, so npoly(0) != 0:
        # a single q-power is a one-coefficient numerator
        if len(npoly) == 1:
            c = npoly[0]
            neg = c < 0
            mag = abs(c)
            factors = []
            if mag != 1:
                factors.append(str(mag))
            if shift:
                factors.append("q" if shift == 1 else "q^%d" % shift)
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
        if out:
            out.append((" - " if neg else " + ") + body)
        else:
            out.append("-" + body if neg else body)
    joined = "".join(out)
    if D == D_ONE:
        return joined
    return "(%s)/(%s)" % (joined, poly_str(_expand(P_ONE, *D), -h))
