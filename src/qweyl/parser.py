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
K.  Rationals are spelled with '/', q-powers as q^k.  Scalars stay
QScalars until they meet an element, and a scalar result is lifted into
the context's term type through Terms.constant.

In the weyl context a run of letters within a term, juxtaposed or joined
by '*', is read as one word and reduced by one reduce_word call, with the
scalar factor before it, if any, as its coefficient.  A non-letter factor,
a '/' or the end of the term ends the run.
"""

from . import iqg, scalars
from .expressions import FreeExpr, qcomm
from .polymod import PolyElement
from .weyl import WeylElement, reduce_word, validate_letter

# context -> (generator letters, the zero of its term type for a variant)
_CONTEXTS = {
    "weyl": ("dxm", WeylElement),
    "iqg": ("BK", lambda v: FreeExpr()),
    "poly": ("X", lambda v: PolyElement(v, {})),
}

# Largest |k| accepted in '^k'.  A power of a sum or of a letter is expanded
# eagerly ((q+1)^k has k + 1 coefficients, x1^k is a product of k factors), so
# unbounded input could exhaust memory.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    """Syntax or validation failure, carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and text[j].isdigit():
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
        # the zero of the context's term type lifts scalars through constant
        self.gen_names, zero = _CONTEXTS[context]
        self.zero = zero(variant)

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
        """x as an element of the context's term type."""
        return self.zero.constant(x) if isinstance(x, scalars.QScalar) else x

    def letter(self, name, idx, power, pos):
        """A single generator raised to an integer power; a word (list) for weyl."""
        v = self.variant
        if self.context == "poly":
            if power < 0:
                raise ParseError("negative exponent on X%d" % idx, pos)
            if not 1 <= idx <= v.rank + 1:
                raise ParseError(
                    "index out of range: X%d (indices run 1..%d)" % (idx, v.rank + 1),
                    pos,
                )
            exps = [0] * (v.rank + 1)
            exps[idx - 1] = power
            return PolyElement.monomial(v, exps)
        base = name
        if power < 0 and name in ("m", "K"):
            base = name + "i"
        elif power < 0:
            raise ParseError("negative power of %s%d" % (name, idx), pos)
        check = iqg.validate_iletter if self.context == "iqg" else validate_letter
        try:
            check(v, base, idx)
        except ValueError as err:
            raise ParseError(str(err), pos) from None
        if self.context == "iqg":
            return FreeExpr.letter(base, idx) ** abs(power)
        return [(base, idx)] * abs(power)

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
        out = None
        run = None  # weyl letters read since the last other factor
        op = "*"
        while True:
            tok = self.peek()
            started = out is not None or run is not None
            if tok[0] in ("*", "/"):
                if not started:
                    raise ParseError("unexpected %r" % tok[1], tok[2])
                op = self.take()[0]
                tok = self.peek()
            elif started:
                op = "*"
            if tok[0] not in ("NAME", "INT", "(", "["):
                if not started or op != "*":
                    raise ParseError(
                        "expected an expression, found %r"
                        % (tok[1] or "end of input"),
                        tok[2],
                    )
                return self.flush(out, run)
            factor = self.factor()
            if isinstance(factor, list):
                if op == "*":
                    if run is None:
                        run = factor
                    else:
                        run.extend(factor)
                    continue
                factor = reduce_word(self.variant, factor)
            out = self.flush(out, run)
            run = None
            if out is None:
                out = factor
            elif op == "*":
                out = out * factor
            else:
                out = out * self.inverse(
                    factor, "division by a non-scalar expression", tok[2]
                )

    def flush(self, out, run):
        """out times the word run, a scalar out being its coefficient."""
        if run is None:
            return out
        if out is None:
            return reduce_word(self.variant, run)
        if isinstance(out, scalars.QScalar):
            return reduce_word(self.variant, run, out)
        return out * reduce_word(self.variant, run)

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
            self.take("_")
            e = 1
            if self.peek()[0] in ("+", "-"):
                e = 1 if self.take()[0] == "+" else -1
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
        c = self.lift(x).scalar_value()
        if c is None:
            raise ParseError(non_scalar, pos)
        if not c:
            raise ParseError("division by zero", pos)
        return c.inv()

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
