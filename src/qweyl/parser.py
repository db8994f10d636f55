"""Text syntax for algebra elements and polynomials.

One grammar serves the three contexts (weyl letters d/x/m, coideal
letters B/K, polynomial letters X):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor (('*' | '/')? factor)*
    factor := atom ('^' signedInt)?
    atom   := generator | 'q' | integer | '(' expr ')' | comm
    comm   := '[' expr ',' expr ']_' ('+' | '-')?

Juxtaposition multiplies; '/' divides by a scalar-valued expression;
negative exponents are only meaningful on the invertible letters m and
K.  Rationals are spelled with '/', q-powers as q^k.  A commutator's
subscript is only its sign: an integer or q written right after '_' or
the sign ('[a, b]_2', '[a, b]_-q') is an error, and a scalar factor there
needs a space or '*' before it.

Every context reads a term by one rule: a term is one scalar coefficient
times its non-scalar factors in order, and each maximal run of letters,
juxtaposed or joined by '*', is one word.  Scalars commute with
everything, so each scalar factor and each '/' joins the coefficient
wherever it stands.  The context turns coeff * word into an element in
one place (_Parser.word): one reduce_word call for weyl, one free word for
iqg, one monomial for poly.  A scalar result stays a QScalar until it meets
an element, and is lifted as the empty word.
"""

from . import iqg, scalars
from .expressions import FreeExpr, qcomm
from .polymod import PolyElement
from .weyl import reduce_word, validate_letter

# context -> its generator letters
_CONTEXTS = {"weyl": "dxm", "iqg": "BK", "poly": "X"}

# Largest |k| accepted in '^k'.  A power of a sum or of a letter is expanded
# eagerly ((q+1)^k has k + 1 coefficients, x1^k is a word of k letters), so
# unbounded input could exhaust memory.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    """Syntax or validation failure, carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# not str.isdigit, which takes '²' (int() rejects it) and '٣' (read as 3)
_DIGITS = frozenset("0123456789")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()[],_":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % c, i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text, context, variant):
        self.tokens = _tokenize(text)
        self.k = 0
        self.context = context
        self.variant = variant
        self.gen_names = _CONTEXTS[context]

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                "expected %r, found %r" % (kind, tok[1] or "end of input"), tok[2]
            )
        self.k += 1
        return tok

    def lift(self, x):
        """x, a scalar, a word or an element, as an element of the context."""
        if isinstance(x, scalars.QScalar):
            return self.word([], x)
        if isinstance(x, list):
            return self.word(x, scalars.ONE)
        return x

    def word(self, letters, coeff):
        """coeff times the word of letters, as an element of the context."""
        v = self.variant
        if self.context == "weyl":
            return reduce_word(v, letters, coeff)
        if self.context == "iqg":
            return FreeExpr.word(letters, coeff)
        exps = [0] * (v.rank + 1)  # X letters commute
        for _, idx in letters:
            exps[idx - 1] += 1
        return PolyElement.monomial(v, exps, coeff)

    def letter(self, name, idx, power, pos):
        """The word of a generator raised to an integer power, checked at pos."""
        v = self.variant
        if self.context == "poly":
            if power < 0:
                raise ParseError("negative exponent on X%d" % idx, pos)
            if not 1 <= idx <= v.rank + 1:
                raise ParseError(
                    "index out of range: X%d (indices run 1..%d)" % (idx, v.rank + 1),
                    pos,
                )
        else:
            if power < 0 and name in ("m", "K"):
                name += "i"
            elif power < 0:
                raise ParseError("negative power of %s%d" % (name, idx), pos)
            check = iqg.validate_iletter if self.context == "iqg" else validate_letter
            try:
                check(v, name, idx)
            except ValueError as err:
                raise ParseError(str(err), pos) from None
        return [(name, idx)] * abs(power)

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError("unexpected %r" % tok[1], tok[2])
        return self.lift(out)

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        out = self.term()
        if negate:
            out = -out
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out - rhs if op == "-" else out + rhs
        return out

    def term(self):
        tok = self.peek()
        if tok[0] in ("*", "/"):
            raise ParseError("unexpected %r" % tok[1], tok[2])
        coeff = scalars.ONE
        factors = []  # the non-scalar factors in order, a run of letters as one word
        op = "*"
        while True:
            pos = self.peek()[2]
            factor = self.factor()
            if op == "/":
                factor = self.inverse(factor, "division by a non-scalar expression", pos)
            if isinstance(factor, scalars.QScalar):
                coeff = coeff * factor
            elif isinstance(factor, list) and factors and isinstance(factors[-1], list):
                factors[-1] += factor
            else:
                factors.append(factor)
            kind = self.peek()[0]
            if kind in ("*", "/"):
                op = self.take()[0]
            elif kind in ("NAME", "INT", "(", "["):
                op = "*"
            else:
                break
        out = None
        for f in factors:
            if isinstance(f, list):
                f, coeff = self.word(f, coeff), scalars.ONE
            out = f if out is None else out * f
        if out is None:
            return coeff
        return out if coeff is scalars.ONE else out.scale(coeff)

    def factor(self):
        tok = self.peek()
        if tok[0] == "NAME":
            self.take()
            name, pos = tok[1], tok[2]
            if name == "q":
                power = self.exponent(default=1)
                return scalars.qpow(power)
            head, digits = name[0], name[1:]
            if head not in self.gen_names or not digits:
                raise ParseError("unknown generator '%s'" % name, pos)
            power = self.exponent(default=1)
            return self.letter(head, int(digits), power, pos)
        if tok[0] == "INT":
            self.take()
            c = scalars.from_int(int(tok[1]))
            return self.apply_power(c, self.exponent(default=1), tok[2])
        if tok[0] == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return self.apply_power(out, self.exponent(default=1), tok[2])
        if tok[0] == "[":
            self.take()
            lhs = self.expr()
            self.take(",")
            rhs = self.expr()
            self.take("]")
            end = self.take("_")[2] + 1
            e = 1
            if self.peek()[0] in ("+", "-"):
                sign = self.take()
                e = 1 if sign[0] == "+" else -1
                end = sign[2] + 1
            # glued to the subscript, "]_2" or "]_-q" would read as a scalar factor
            nxt = self.peek()
            if nxt[2] == end and (nxt[0] == "INT" or nxt[1] == "q"):
                raise ParseError(
                    "a commutator subscript is '+' or '-', not %r" % nxt[1], end
                )
            out = qcomm(self.lift(lhs), self.lift(rhs), e)
            return self.apply_power(out, self.exponent(default=1), tok[2])
        raise ParseError(
            "expected an expression, found %r" % (tok[1] or "end of input"), tok[2]
        )

    def apply_power(self, out, power, pos):
        if power == 1:
            return out
        if power < 0:
            inv = self.inverse(out, "negative power of a non-scalar expression", pos)
            return inv ** (-power)
        return out ** power

    def inverse(self, x, non_scalar, pos):
        """1/c for the scalar c that x equals; non_scalar is the error otherwise."""
        if not isinstance(x, scalars.QScalar):
            x = self.lift(x).scalar_value()
            if x is None:
                raise ParseError(non_scalar, pos)
        if not x:
            raise ParseError("division by zero", pos)
        return x.inv()

    def exponent(self, default):
        if self.peek()[0] != "^":
            return default
        self.take()
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
        tok = self.take("INT")
        digits = tok[1].lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ParseError("exponent exceeds the limit of %d" % MAX_EXPONENT, tok[2])
        return sign * int(tok[1])


def parse(text, context, variant):
    """Parse text into a WeylElement, FreeExpr, or PolyElement."""
    if context not in _CONTEXTS:
        raise ValueError("unknown context %r" % (context,))
    return _Parser(text, context, variant).parse()
