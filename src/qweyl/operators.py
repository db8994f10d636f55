"""Braid operators and anti-automorphisms of the modified q-Weyl algebra.

braid_op(v, i, e, kind) returns the automorphism T'_{i,e} or T''_{i,e} as a
substitution table on generators; T'_{i,e} and T''_{i,-e} are mutually
inverse.  omega_op is the bar-twisted anti-automorphism swapping x and d;
psi_op is the sign-and-scale anti-automorphism fixing x and d up to sign.

The suites reduce everything to canonical-form equality: well-definedness
maps each defining relation through a table, the braid suite evaluates
composites on generators, and omega-commutation compares the two orders.
"""

import functools

from . import scalars
from .expressions import letter_tag
from .satake import BRAID_KINDS, KIND_MARKS, braid_relation_checks, cartan
from .scalars import qpow
from .report import aggregate_check, pointwise
from .weyl import (
    EndoSpec,
    WeylElement,
    check_well_defined_one,
    generator_letters,
    reduce_word,
    relation_instances,
)


def _mword(v, qexp, sign, mfactors, letter):
    """Canonical form of sign * q^qexp * (m-power prefix) * letter."""
    word = []
    for idx, s in mfactors:
        name = "m" if s > 0 else "mi"
        word.extend(((name, idx),) * abs(s))
    word.append(letter)
    c = qpow(qexp)
    if sign < 0:
        c = -c
    return reduce_word(v, tuple(word), c)


def braid_op(v, i, e, kind):
    """The automorphism T'_{i,e} (kind "prime") or T''_{i,e} ("doubleprime")."""
    v.check_braid_args(i, e, kind)
    r = v.rank
    images = {}
    pinned = v.pinned(i)
    perm = {} if pinned else {i: i + 1, i + 1: i}
    for j in v.weyl_indices:
        t = perm.get(j, j)
        images[("m", j)] = WeylElement.generator(v, "m", t)
        images[("mi", j)] = WeylElement.generator(v, "mi", t)
        images[("d", j)] = WeylElement.generator(v, "d", j)
        images[("x", j)] = WeylElement.generator(v, "x", j)
    if pinned and v.kind == "jmath":
        images[("d", r + 1)] = _mword(v, e, 1, [(r, -2 * e)], ("d", r + 1))
        images[("d", r)] = _mword(v, -2 * e, 1, [(r, -e), (r + 1, -e)], ("d", r))
        images[("x", r + 1)] = _mword(v, -e, 1, [(r, 2 * e)], ("x", r + 1))
        images[("x", r)] = _mword(v, e, 1, [(r, e), (r + 1, e)], ("x", r))
    elif pinned:
        images[("d", r + 1)] = _mword(v, 0, 1, [(r + 1, -e)], ("d", r + 1))
        images[("x", r + 1)] = _mword(v, -e, 1, [(r + 1, e)], ("x", r + 1))
    else:
        # the kinds differ only in which index's images carry the sign and q-power
        signed = i + 1 if kind == "prime" else i
        for j, target in ((i + 1, i), (i, i + 1)):
            sign, qe = (-1, e) if j == signed else (1, 0)
            images[("d", j)] = _mword(v, -qe, sign, [(j, -e)], ("d", target))
            images[("x", j)] = _mword(v, qe, sign, [(j, e)], ("x", target))
    return EndoSpec(v, images, label="T%s_{%d,%+d}" % (KIND_MARKS[kind], i, e))


def omega_op(v):
    """Anti-automorphism: x <-> d, m <-> m^-1, coefficients bar-twisted."""
    images = {}
    for i in v.weyl_indices:
        images[("x", i)] = WeylElement.generator(v, "d", i)
        images[("d", i)] = WeylElement.generator(v, "x", i)
        images[("m", i)] = WeylElement.generator(v, "mi", i)
        images[("mi", i)] = WeylElement.generator(v, "m", i)
    return EndoSpec(v, images, antimultiplicative=True, bar_twist=True, label="omega")


def psi_op(v):
    """Anti-automorphism: x_i, d_i scaled by signs, m_i -> q^-kappa(i) m_i^-1."""
    images = {}
    for i in v.weyl_indices:
        k = v.kappa(i)
        rho = v.rho(i)
        exp = -1
        if i == v.rank + 1:
            exp += cartan(i, rho) - (2 if rho == i else 0)
        if exp != -k:
            raise ArithmeticError("closed form disagrees with the delta expression")
        sx = scalars.from_int(1 if i % 2 == 1 else -1)
        images[("x", i)] = WeylElement.generator(v, "x", i).scale(sx)
        images[("d", i)] = WeylElement.generator(v, "d", i).scale(-sx)
        images[("m", i)] = WeylElement.generator(v, "mi", i).scale(qpow(-k))
        images[("mi", i)] = WeylElement.generator(v, "m", i).scale(qpow(k))
    return EndoSpec(v, images, antimultiplicative=True, label="psi")


def check_well_defined(v, e):
    """Every braid table at sign e, plus omega and psi, preserves relations.

    The relations are built once and mapped through every table, and the
    tables share one record memo: a relation whose letters two tables map
    to equal images is evaluated once (see check_well_defined_one).
    """
    rels = relation_instances(v)
    specs = [
        (braid_op(v, i, e, kind), "%s/i=%d/" % (kind, i))
        for kind in BRAID_KINDS
        for i in v.braid_indices
    ]
    specs += [(omega_op(v), "omega/"), (psi_op(v), "psi/")]
    seen = {}
    checks = []
    for spec, tag in specs:
        checks.extend(check_well_defined_one(spec, "endo-well-defined/" + tag, rels, seen))
    return checks


_BRAID_TEXT = {
    "doubleprime-after-prime": "T''_{%(i)d,%(ne)+d} o T'_{%(i)d,%(e)+d} = id on generators",
    "prime-after-doubleprime": "T'_{%(i)d,%(e)+d} o T''_{%(i)d,%(ne)+d} = id on generators",
    "3-term": "T%(m)s_%(h)d T%(m)s_%(i)d T%(m)s_%(h)d = T%(m)s_%(i)d T%(m)s_%(h)d"
    " T%(m)s_%(i)d on generators",
    "4-term": "T%(m)s_%(h)d T%(m)s_%(i)d T%(m)s_%(h)d T%(m)s_%(i)d = T%(m)s_%(i)d"
    " T%(m)s_%(h)d T%(m)s_%(i)d T%(m)s_%(h)d",
    "commute": "T%(m)s_%(i)d T%(m)s_%(j)d = T%(m)s_%(j)d T%(m)s_%(i)d on generators",
}


def check_braid_suite(v, e):
    """Inverse identities and the type-B braid relations on generators."""
    points = [(letter_tag(l), l) for l in generator_letters(v)]

    @functools.cache
    def op(t):
        return braid_op(v, *t)

    def compose(word):
        def at(l):
            if not word:
                return WeylElement.generator(v, *l)
            x = op(word[-1]).image(l)
            for t in reversed(word[:-1]):
                x = op(t).apply(x)
            return x

        return at

    return braid_relation_checks(
        v, e, compose, points, ("braid/inverse/", "braid/"), _BRAID_TEXT
    )


def check_omega_commutes(v, e):
    """omega o T = T o omega on every generator, both kinds, all braid indices."""
    checks = []
    om = omega_op(v)
    points = [(letter_tag(l), l) for l in generator_letters(v)]
    for kind in BRAID_KINDS:
        for i in v.braid_indices:
            t = braid_op(v, i, e, kind)
            checks.append(
                aggregate_check(
                    "omega-commute/%s/i=%d" % (kind, i),
                    "omega o %s = %s o omega on generators" % (t.label, t.label),
                    pointwise(
                        points,
                        lambda l: om.apply(t.image(l)),
                        lambda l: t.apply(om.image(l)),
                    ),
                )
            )
    return checks
