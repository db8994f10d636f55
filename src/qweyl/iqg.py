"""The coideal algebra on letters B_i, K_i^{+-1} and its image in the Weyl algebra.

Expressions in the generators B_i (i in 1..n) and K_i (i with rho(i) != i)
stay free: every identity about them is checked inside the modified q-Weyl
algebra through the homomorphism phi.  tau_subst builds the braid
substitutions tau'_{i,e} / tau''_{i,e}; omega_subst and psi_subst are the
two anti-automorphisms.  Composites such as tau'tau'' or a braid word are
handled by fusing one substitution at a time into a letter -> WeylElement
table, which keeps the work linear in the composite length.
"""

import functools

from . import operators
from .expressions import MAX_POWER_TERMS, FreeExpr, _free_mul_terms, letter_tag, qcomm
from .report import aggregate_check, equality_check, pointwise, skipped_check
from .satake import BRAID_KINDS, KIND_MARKS, braid_relation_checks, cartan
from .scalars import qpow
from .weyl import _QD, EndoSpec, reduce_word, relation_checks
from . import scalars


def validate_iletter(v, name, idx):
    if name not in ("B", "K", "Ki"):
        raise ValueError("unknown generator '%s%d'" % (name, idx))
    if not 1 <= idx <= v.n:
        raise ValueError(
            "index out of range: %s%d (nodes run 1..%d)" % (name[0], idx, v.n)
        )
    if name != "B" and not v.k_legal(idx):
        raise ValueError("K%d illegal: rho fixes node %d" % (idx, idx))


def iqg_letters(v):
    """Deterministic list of all legal letters: B's first, then K, K^-1."""
    out = [("B", j) for j in v.node_indices]
    for j in v.node_indices:
        if v.k_legal(j):
            out.append(("K", j))
            out.append(("Ki", j))
    return out


def varsigma(v, i):
    """The parameter attached to node i: 1 at r, q^-1 at r+1, else 0."""
    if not 1 <= i <= v.n:
        raise ValueError("node out of range: %d" % i)
    if i == v.rank:
        return scalars.ONE
    if i == v.rank + 1:
        return qpow(-1)
    return scalars.ZERO


def _phi_letter(v, name, idx):
    r = v.rank
    if name == "B":
        if idx <= r:
            return reduce_word(v, (("x", idx + 1), ("d", idx)))
        if v.kind == "imath" and idx == r + 1:
            return reduce_word(v, (("x", r + 1), ("d", r + 1)))
        t = v.rho(idx)
        return reduce_word(v, (("x", t), ("d", t + 1)))
    # K letters map to q^qe m_a m_b^-1
    if idx <= r:
        a, b = idx, idx + 1
        qe = -1 if (v.kind == "jmath" and idx == r) else 0
    else:
        t = v.rho(idx)
        a, b = t + 1, t
        qe = 1 if (v.kind == "jmath" and idx == r + 1) else 0
    if name == "Ki":
        # m letters of distinct indices commute: the inverse swaps a and b
        a, b, qe = b, a, -qe
    return reduce_word(v, (("m", a), ("mi", b)), qpow(qe))


def phi_table(v):
    return {l: _phi_letter(v, *l) for l in iqg_letters(v)}


def phi_spec(v):
    """The homomorphism into the Weyl algebra, as a letter-image table."""
    return EndoSpec(v, phi_table(v), label="phi")


def phi(v, expr):
    """Evaluate a free expression in B/K letters inside the Weyl algebra."""
    for word in expr.terms:
        for name, idx in word:
            validate_iletter(v, name, idx)
    return phi_spec(v).apply_free(expr)


class ISubst(EndoSpec):
    """A substitution on B/K letters with free-expression images.

    It shares EndoSpec's word walk and term collection, with the free
    algebra's unit and product rule on term dicts.  A free product keeps
    every word, so a word's image has as many words as its letter images'
    term counts multiply to: past MAX_POWER_TERMS the word is refused
    before any image is multiplied.
    """

    __slots__ = ()

    def _unit(self, coeff):
        return FreeExpr.from_scalar(coeff).terms

    _mul = staticmethod(_free_mul_terms)

    def _word_image(self, word, coeff):
        n = 1
        for letter in word:
            n *= len(self.image(letter).terms)
            if n > MAX_POWER_TERMS:
                raise ValueError(
                    "substitution expands a word of %d letters to more than %d words"
                    % (len(word), MAX_POWER_TERMS)
                )
        return super()._word_image(word, coeff)

    def apply(self, expr):
        """Free composition: substitute every letter, reverse words if anti."""
        return FreeExpr(self._collect(expr.terms.items()))

    # free images in, free images out: EndoSpec.apply_free would wrap the
    # free terms in a WeylElement
    apply_free = apply


def fuse(h, s):
    """The table of h o s, where h maps letters to Weyl elements.

    Exact on free expressions, so composites of substitutions can be walked
    one factor at a time instead of expanding nested images.
    """
    images = {letter: h.apply_free(s.image(letter)) for letter in h.images}
    return EndoSpec(
        h.variant,
        images,
        antimultiplicative=h.antimultiplicative != s.antimultiplicative,
        bar_twist=h.bar_twist != s.bar_twist,
        label="%s.%s" % (h.label, s.label),
    )


def _kletter(idx, s):
    return ("K", idx) if s == 1 else ("Ki", idx)


def _k_rho_inverse(v, expr):
    """Inverse of a one-word product of K letters, written with plain K's.

    Uses K_a^-1 = K_rho(a), so the result stays inside the K alphabet.
    """
    ((word, coeff),) = expr.terms.items()
    inv = []
    for name, idx in reversed(word):
        inv.append(("K", v.rho(idx) if name == "K" else idx))
    return FreeExpr({tuple(inv): coeff.inv()})


def _k_images(v, lower):
    """The K and K^-1 letter images, given lower(j), the image of K_j for j <= r.

    Upper nodes and inverses follow from K_a^-1 = K_rho(a).
    """
    images = {}
    for j in v.node_indices:
        if v.k_legal(j):
            img = lower(j) if j <= v.rank else _k_rho_inverse(v, lower(v.rho(j)))
            images[("K", j)] = img
            images[("Ki", j)] = _k_rho_inverse(v, img)
    return images


def _tau_k_lower(v, i, j):
    """Image of K_j (j <= r) under any tau at braid index i."""
    if v.pinned(i):
        return FreeExpr.letter("K", j)
    if j == i:
        return FreeExpr.letter("K", v.rho(i))
    if abs(i - j) == 1:
        return FreeExpr.word((("K", i), ("K", j)))
    return FreeExpr.letter("K", j)


def _tau_b_image(v, i, e, prime, j):
    r = v.rank
    rho = v.rho

    def bl(a):
        return FreeExpr.letter("B", a)

    if v.pinned(i) and v.kind == "jmath":
        # tau'' = tau' here, as for T and tcal: qcomm(x, y, -e) =
        # -q^(-e) qcomm(y, x, e), and K_{r+1}^(-+e) = K_r^(+-e) by K_r K_{r+1} = 1
        if j == r - 1:
            c = qcomm(qcomm(bl(r - 1), bl(r), e), bl(r + 1), e)
            return c.scale(qpow(-e)) - FreeExpr.word((_kletter(r, e), ("B", r - 1)))
        if j == r:
            return FreeExpr.word((_kletter(r, e), ("B", r)))
        if j == r + 1:
            return FreeExpr.word((("B", r + 1), _kletter(r + 1, e)))
        if j == r + 2:
            c = qcomm(qcomm(bl(r + 2), bl(r + 1), e), bl(r), e)
            return c.scale(qpow(-e)) - FreeExpr.word((("B", r + 2), _kletter(r + 1, e)))
        return bl(j)

    if v.pinned(i):
        if j == r:
            return qcomm(bl(r + 1), bl(r), -e)
        if j == r + 2:
            return qcomm(bl(r + 2), bl(r + 1), e)
        return bl(j)

    # generic column; the doubly-adjacent row only exists for imath (r, r+1)
    if j == i:
        if prime:
            return -FreeExpr.word((("B", rho(i)), _kletter(rho(i), e)))
        return -FreeExpr.word((_kletter(i, -e), ("B", rho(i))))
    if j == rho(i):
        if prime:
            return -FreeExpr.word((_kletter(i, e), ("B", i)))
        return -FreeExpr.word((("B", i), _kletter(rho(i), -e)))
    near_i = cartan(i, j) == -1
    near_rho = cartan(rho(i), j) == -1
    if near_i and near_rho:
        if prime:
            return qcomm(bl(r), qcomm(bl(r + 1), bl(r + 2), e), -e) + FreeExpr.word(
                (("B", r + 1), _kletter(rho(r), e))
            )
        return qcomm(qcomm(bl(r), bl(r + 1), -e), bl(r + 2), e) + FreeExpr.word(
            (("B", r + 1), _kletter(rho(r), -e))
        )
    if near_i:
        if prime:
            return qcomm(bl(i), bl(j), -e)
        return qcomm(bl(j), bl(i), e)
    if near_rho:
        if prime:
            return qcomm(bl(j), bl(rho(i)), e)
        return qcomm(bl(rho(i)), bl(j), -e)
    return bl(j)


def tau_subst(v, i, e, kind):
    """tau'_{i,e} (kind "prime") or tau''_{i,e}: one table if v.pinned(i)."""
    v.check_braid_args(i, e, kind)
    prime = kind == "prime"
    images = {("B", j): _tau_b_image(v, i, e, prime, j) for j in v.node_indices}
    images.update(_k_images(v, lambda j: _tau_k_lower(v, i, j)))
    return ISubst(v, images, label="tau%s_{%d,%+d}" % (KIND_MARKS[kind], i, e))


def omega_subst(v):
    """Anti-automorphism with bar twist: B and K letters pushed through rho."""
    images = {}
    for j in v.node_indices:
        images[("B", j)] = FreeExpr.letter("B", v.rho(j))
        if v.k_legal(j):
            images[("K", j)] = FreeExpr.letter("K", v.rho(j))
            images[("Ki", j)] = FreeExpr.letter("Ki", v.rho(j))
    return ISubst(v, images, antimultiplicative=True, bar_twist=True, label="Omega")


def psi_subst(v):
    """Anti-automorphism without twist: B fixed, K sent through rho.

    The q-power on the K image lives on the lower indices; upper-index
    images follow by inverting, using K_a^-1 = K_rho(a).
    """
    twist = qpow(-1) if v.kind == "jmath" else scalars.ONE

    def lower(j):
        c = twist if j == v.rank else scalars.ONE
        return FreeExpr.letter("K", v.rho(j)).scale(c)

    images = {("B", j): FreeExpr.letter("B", j) for j in v.node_indices}
    images.update(_k_images(v, lower))
    return ISubst(v, images, antimultiplicative=True, label="Psi")


def iu_relation_instances(v):
    """Defining relations of the coideal algebra, as free-expression pairs."""
    n = v.n
    rho = v.rho
    one = FreeExpr.one()
    zero = FreeExpr.zero()

    def B(j):
        return FreeExpr.letter("B", j)

    def K(j):
        return FreeExpr.letter("K", j)

    rels = []
    for i in v.node_indices:
        if not v.k_legal(i):
            continue
        rels.append(
            ("kk/i=%d" % i, "K%d K%d = 1" % (i, rho(i)), K(i) * K(rho(i)), one)
        )
    for i in v.node_indices:
        if not v.k_legal(i):
            continue
        for j in v.node_indices:
            t = cartan(j, rho(i)) - cartan(j, i)
            rels.append(
                (
                    "kb/i=%d,j=%d" % (i, j),
                    "K%d B%d = q^%d B%d K%d" % (i, j, t, j, i),
                    K(i) * B(j),
                    (B(j) * K(i)).scale(qpow(t)),
                )
            )
    for i in v.node_indices:
        for j in v.node_indices:
            if j <= i or cartan(i, j) != 0:
                continue
            if rho(i) == j:
                rhs = (K(i) - K(rho(i))).scale(_QD)
                desc = "B%d B%d - B%d B%d = (K%d - K%d)/(q - q^-1)" % (
                    j, i, i, j, i, rho(i),
                )
            else:
                rhs = zero
                desc = "B%d B%d = B%d B%d" % (j, i, i, j)
            rels.append(
                ("comm/i=%d,j=%d" % (i, j), desc, B(j) * B(i) - B(i) * B(j), rhs)
            )
    two = qpow(1) + qpow(-1)
    for i in v.node_indices:
        for j in v.node_indices:
            if cartan(i, j) != -1:
                continue
            lhs = B(i) * B(i) * B(j) - (B(i) * B(j) * B(i)).scale(two) + B(j) * B(i) * B(i)
            rhs = zero
            extra = ""
            if rho(i) == i:
                rhs = rhs + B(j)
                extra = " + B%d" % j
            if rho(i) == j:
                corr = K(i).scale(varsigma(v, i) * qpow(-1)) + K(rho(i)).scale(
                    varsigma(v, rho(i)) * qpow(2)
                )
                rhs = rhs - (B(i) * corr).scale(two)
                extra = " - (q + q^-1) B%d (q^-1 vs_%d K%d + q^2 vs_%d K%d)" % (
                    i, i, i, rho(i), rho(i),
                )
            rels.append(
                (
                    "serre/i=%d,j=%d" % (i, j),
                    "B%d^2 B%d - (q + q^-1) B%d B%d B%d + B%d B%d^2 =%s" % (
                        i, j, i, j, i, j, i, extra or " 0",
                    ),
                    lhs,
                    rhs,
                )
            )
    return rels


def check_phi_relations(v):
    """Every defining relation holds inside the Weyl algebra under phi."""
    return relation_checks("phi-relations/", iu_relation_instances(v), phi_spec(v).apply_free)


_TAU_BRAID_TEXT = {
    "doubleprime-after-prime": "tau composite at i=%(i)d is the identity through phi",
    "prime-after-doubleprime": "tau composite at i=%(i)d is the identity through phi",
    "3-term": "tau%(m)s_%(h)d tau%(m)s_%(i)d tau%(m)s_%(h)d = tau%(m)s_%(i)d"
    " tau%(m)s_%(h)d tau%(m)s_%(i)d through phi",
    "4-term": "the 4-term braid relation at the top pair holds through phi",
    "commute": "tau%(m)s_%(i)d and tau%(m)s_%(j)d commute through phi",
}


def check_intertwine(v, e):
    """The braid and anti-automorphism actions agree across phi."""
    checks = []
    points = [(letter_tag(l), l) for l in iqg_letters(v)]
    ph = phi_spec(v)

    def after_phi(x):
        """The letter map l -> x(phi(l)) of an operator x on the Weyl algebra."""
        return lambda l: x.apply(ph.image(l))

    @functools.cache
    def sub(t):
        return tau_subst(v, *t)

    @functools.cache
    def ph_sub(t):
        """phi o tau_t, fused once per check; no deeper prefix is kept."""
        return fuse(ph, sub(t))

    for kind in BRAID_KINDS:
        for i in v.braid_indices:
            t = operators.braid_op(v, i, e, kind)
            s = sub((i, e, kind))
            checks.append(
                aggregate_check(
                    "intertwine/T-tau/%s/i=%d" % (kind, i),
                    "%s o phi = phi o %s on letters" % (t.label, s.label),
                    pointwise(points, after_phi(t), ph_sub((i, e, kind)).image),
                )
            )

    om_i = omega_subst(v)
    ph_om = fuse(ph, om_i)
    checks.append(
        aggregate_check(
            "intertwine/omega-Omega",
            "omega o phi = phi o Omega on letters",
            pointwise(points, after_phi(operators.omega_op(v)), ph_om.image),
        )
    )

    if v.kind == "jmath" and v.rank >= 2:
        r = v.rank
        mname = "m" if e == 1 else "mi"
        lhs = ph_sub((r, e, "prime")).image(("B", r - 1))
        rhs = reduce_word(
            v, ((mname, r), (mname, r + 1), ("x", r), ("d", r - 1)), qpow(e)
        )
        checks.append(
            equality_check(
                "intertwine/pinned-example",
                "phi(%s(B%d)) = q^%+d m%d^%+d m%d^%+d x%d d%d"
                % (sub((r, e, "prime")).label, r - 1, e, r, e, r + 1, e, r, r - 1),
                lhs,
                rhs,
            )
        )
    else:
        checks.append(
            skipped_check(
                "intertwine/pinned-example",
                "needs the even diagram at rank >= 2",
            )
        )

    def compose(word):
        h = ph_sub(word[0]) if word else ph
        for t in word[1:]:
            h = fuse(h, sub(t))
        return h.image

    checks.extend(
        braid_relation_checks(
            v,
            e,
            compose,
            points,
            ("intertwine/tau-inverse/", "intertwine/tau-braid/"),
            _TAU_BRAID_TEXT,
        )
    )

    for kind in BRAID_KINDS:
        mark = KIND_MARKS[kind]
        for i in v.braid_indices:
            t = (i, e, kind)
            checks.append(
                aggregate_check(
                    "intertwine/tau-Omega/%s/i=%d" % (kind, i),
                    "tau%s_%d o Omega = Omega o tau%s_%d through phi"
                    % (mark, i, mark, i),
                    pointwise(
                        points, fuse(ph_sub(t), om_i).image, fuse(ph_om, sub(t)).image
                    ),
                )
            )

    psi = pointwise(
        points, after_phi(operators.psi_op(v)), fuse(ph, psi_subst(v)).image
    )
    verdict = "holds" if all(a == b for _, a, b in psi) else "does not hold"
    checks.append(
        skipped_check(
            "intertwine/psi-Psi",
            "informational: psi o phi = phi o Psi %s on all %d letters"
            % (verdict, len(points)),
        )
    )
    return checks
