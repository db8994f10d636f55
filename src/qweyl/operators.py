"""Braid operators and anti-automorphisms of the modified q-Weyl algebra.

braid_op(v, i, e, kind) returns the automorphism T'_{i,e} or T''_{i,e} as a
substitution table on generators; T'_{i,e} and T''_{i,-e} are mutually
inverse.  omega_op is the bar-twisted anti-automorphism swapping x and d;
psi_op is the sign-and-scale anti-automorphism fixing x and d up to sign.

The suites reduce everything to canonical-form equality: well-definedness
maps each defining relation through a table, the braid suite evaluates
composites on generators, and omega-commutation compares the two orders.
"""

from . import scalars
from .satake import cartan
from .scalars import qpow
from .report import aggregate_check, skipped_check
from .weyl import (
    EndoSpec,
    WeylElement,
    check_well_defined_one,
    generator_letters,
    reduce_word,
)

BRAID_KINDS = ("prime", "doubleprime")


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
    if kind not in BRAID_KINDS:
        raise ValueError("unknown kind %r" % (kind,))
    if e not in (1, -1):
        raise ValueError("e must be +1 or -1, got %r" % (e,))
    bmax = (v.n + 1) // 2
    if not 1 <= i <= bmax:
        raise ValueError("braid index out of range: i=%d (range 1..%d)" % (i, bmax))
    r = v.rank
    images = {}
    pinned = (v.kind == "jmath" and i == r) or (v.kind == "imath" and i == r + 1)
    perm = {} if pinned else {i: i + 1, i + 1: i}
    for j in v.weyl_indices:
        t = perm.get(j, j)
        images[("m", j)] = WeylElement.generator(v, "m", t)
        images[("mi", j)] = WeylElement.generator(v, "mi", t)
        images[("d", j)] = WeylElement.generator(v, "d", j)
        images[("x", j)] = WeylElement.generator(v, "x", j)
    if v.kind == "jmath" and i == r:
        images[("d", r + 1)] = _mword(v, e, 1, [(r, -2 * e)], ("d", r + 1))
        images[("d", r)] = _mword(v, -2 * e, 1, [(r, -e), (r + 1, -e)], ("d", r))
        images[("x", r + 1)] = _mword(v, -e, 1, [(r, 2 * e)], ("x", r + 1))
        images[("x", r)] = _mword(v, e, 1, [(r, e), (r + 1, e)], ("x", r))
    elif v.kind == "imath" and i == r + 1:
        images[("d", r + 1)] = _mword(v, 0, 1, [(r + 1, -e)], ("d", r + 1))
        images[("x", r + 1)] = _mword(v, -e, 1, [(r + 1, e)], ("x", r + 1))
    elif kind == "prime":
        images[("d", i + 1)] = _mword(v, -e, -1, [(i + 1, -e)], ("d", i))
        images[("d", i)] = _mword(v, 0, 1, [(i, -e)], ("d", i + 1))
        images[("x", i + 1)] = _mword(v, e, -1, [(i + 1, e)], ("x", i))
        images[("x", i)] = _mword(v, 0, 1, [(i, e)], ("x", i + 1))
    else:
        images[("d", i + 1)] = _mword(v, 0, 1, [(i + 1, -e)], ("d", i))
        images[("d", i)] = _mword(v, -e, -1, [(i, -e)], ("d", i + 1))
        images[("x", i + 1)] = _mword(v, 0, 1, [(i + 1, e)], ("x", i))
        images[("x", i)] = _mword(v, e, -1, [(i, e)], ("x", i + 1))
    name = "T'" if kind == "prime" else "T''"
    return EndoSpec(v, images, label="%s_{%d,%+d}" % (name, i, e))


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


def _letter_tag(letter):
    name, idx = letter
    return ("m%d^-1" % idx) if name == "mi" else "%s%d" % (name, idx)


def check_well_defined(v, e):
    """Every braid table at sign e, plus omega and psi, preserves relations."""
    checks = []
    for kind in BRAID_KINDS:
        for i in v.braid_indices:
            spec = braid_op(v, i, e, kind)
            checks.extend(
                check_well_defined_one(
                    spec, "endo-well-defined/%s/i=%d/" % (kind, i)
                )
            )
    checks.extend(check_well_defined_one(omega_op(v), "endo-well-defined/omega/"))
    checks.extend(check_well_defined_one(psi_op(v), "endo-well-defined/psi/"))
    return checks


def check_braid_suite(v, e):
    """Inverse identities and the type-B braid relations on generators."""
    checks = []
    letters = generator_letters(v)
    bmax = (v.n + 1) // 2

    def gens():
        return ((l, WeylElement.generator(v, *l)) for l in letters)

    for i in v.braid_indices:
        tp = braid_op(v, i, e, "prime")
        tdp = braid_op(v, i, -e, "doubleprime")
        checks.append(
            aggregate_check(
                "braid/inverse/doubleprime-after-prime/i=%d" % i,
                "T''_{%d,%+d} o T'_{%d,%+d} = id on generators" % (i, -e, i, e),
                ((_letter_tag(l), tdp.apply(tp.image(l)), g) for l, g in gens()),
            )
        )
        checks.append(
            aggregate_check(
                "braid/inverse/prime-after-doubleprime/i=%d" % i,
                "T'_{%d,%+d} o T''_{%d,%+d} = id on generators" % (i, e, i, -e),
                ((_letter_tag(l), tp.apply(tdp.image(l)), g) for l, g in gens()),
            )
        )

    for kind in BRAID_KINDS:
        mark = "'" if kind == "prime" else "''"
        ops = {i: braid_op(v, i, e, kind) for i in v.braid_indices}

        three = range(2, bmax)
        if not three:
            checks.append(
                skipped_check(
                    "braid/3-term/%s/none" % kind,
                    "no adjacent pair below the top index at this rank",
                )
            )
        for i in three:
            a, b = ops[i - 1], ops[i]
            checks.append(
                aggregate_check(
                    "braid/3-term/%s/i=%d" % (kind, i),
                    "T%s_%d T%s_%d T%s_%d = T%s_%d T%s_%d T%s_%d on generators"
                    % (mark, i - 1, mark, i, mark, i - 1, mark, i, mark, i - 1, mark, i),
                    (
                        (
                            _letter_tag(l),
                            a.apply(b.apply(a.image(l))),
                            b.apply(a.apply(b.image(l))),
                        )
                        for l, _ in gens()
                    ),
                )
            )

        if bmax >= 2:
            i = bmax
            a, b = ops[i - 1], ops[i]
            checks.append(
                aggregate_check(
                    "braid/4-term/%s/i=%d" % (kind, i),
                    "T%s_%d T%s_%d T%s_%d T%s_%d = T%s_%d T%s_%d T%s_%d T%s_%d"
                    % (
                        mark, i - 1, mark, i, mark, i - 1, mark, i,
                        mark, i, mark, i - 1, mark, i, mark, i - 1,
                    ),
                    (
                        (
                            _letter_tag(l),
                            a.apply(b.apply(a.apply(b.image(l)))),
                            b.apply(a.apply(b.apply(a.image(l)))),
                        )
                        for l, _ in gens()
                    ),
                )
            )
        else:
            checks.append(
                skipped_check(
                    "braid/4-term/%s/none" % kind,
                    "fewer than two braid generators at this rank",
                )
            )

        pairs = [
            (i, j)
            for i in v.braid_indices
            for j in v.braid_indices
            if j - i >= 2
        ]
        if not pairs:
            checks.append(
                skipped_check(
                    "braid/commute/%s/none" % kind,
                    "no index pairs at distance >= 2 at this rank",
                )
            )
        for i, j in pairs:
            a, b = ops[i], ops[j]
            checks.append(
                aggregate_check(
                    "braid/commute/%s/i=%d,j=%d" % (kind, i, j),
                    "T%s_%d T%s_%d = T%s_%d T%s_%d on generators"
                    % (mark, i, mark, j, mark, j, mark, i),
                    (
                        (_letter_tag(l), a.apply(b.image(l)), b.apply(a.image(l)))
                        for l, _ in gens()
                    ),
                )
            )
    return checks


def check_omega_commutes(v, e):
    """omega o T = T o omega on every generator, both kinds, all braid indices."""
    checks = []
    om = omega_op(v)
    letters = generator_letters(v)
    for kind in BRAID_KINDS:
        mark = "'" if kind == "prime" else "''"
        for i in v.braid_indices:
            t = braid_op(v, i, e, kind)
            checks.append(
                aggregate_check(
                    "omega-commute/%s/i=%d" % (kind, i),
                    "omega o T%s_{%d,%+d} = T%s_{%d,%+d} o omega on generators"
                    % (mark, i, e, mark, i, e),
                    (
                        (_letter_tag(l), om.apply(t.image(l)), t.apply(om.image(l)))
                        for l in letters
                    ),
                )
            )
    return checks
