"""The three benchmark workloads: the jobs a run sends to its cold workers.

Stdlib only; nothing here imports qweyl, so the driver stays light and a
worker's set-up time is its own.

- module-grid: the module suites (module-homomorphism, tcal, iu-module) on
  an exponent grid, through ``cli.main``.  The polymod layer (act, tcal,
  the action cache) and q-power-denominator scalar products dominate.
- algebra-suites: the six algebra suites through ``cli.main``, both
  variants and both braid signs.  The weyl normal form, EndoSpec
  substitution, iqg.fuse and report assembly dominate; polymod is unused.
- normalize-words: seeded expression strings through ``parser.parse`` (left
  strategy) and ``weyl.reduce_word(..., strategy="right")``.  Most scalar
  products carry (q - q^-1)^-k denominators, so p_gcd does real work.

module-grid and algebra-suites are fixed matrices: the seed does not change
them.  normalize-words draws the coefficients and order of its strings from
the seed.
"""

import random

DEFAULT_SEED = 0

NAMES = ("module-grid", "algebra-suites", "normalize-words")

MODULE_SUITES = ("module-homomorphism", "tcal", "iu-module")
ALGEBRA_SUITES = (
    "weyl-relations",
    "endo-well-defined",
    "braid",
    "omega-commute",
    "phi-relations",
    "intertwine",
)
SUITES = ALGEBRA_SUITES + MODULE_SUITES

# Sizes are chosen so that one cold pass takes one to three seconds on a
# 2-core x86 host: a run then holds enough passes for a steady median.
MODULE_GRID_RANK = 3
MODULE_GRID_DEGREE = 2
MODULE_GRID_CELLS = (("jmath", 1), ("imath", -1))
ALGEBRA_RANK = 4
WORD_VARIANTS = (("jmath", 2), ("jmath", 3), ("imath", 2), ("imath", 3))
WORD_LENGTHS = range(8, 17)
WORD_COUNT = 2160  # a multiple of 4 variants x 9 lengths x 3 coefficient kinds


def verify_op(suite, kind, rank, e, degree=None):
    """One ``qweyl verify ... --format json`` call and the key of its report."""
    argv = ["verify", suite, "--variant", kind, "--rank", str(rank), "--e=%d" % e]
    key = "%s/%s/r%d/e%+d" % (suite, kind, rank, e)
    if degree is not None:
        argv.append("--degree=%d" % degree)
        key += "/d%d" % degree
    argv += ["--format", "json"]
    return {"key": key, "argv": argv}


def module_grid_ops():
    return [
        verify_op(suite, kind, MODULE_GRID_RANK, e, MODULE_GRID_DEGREE)
        for suite in MODULE_SUITES
        for kind, e in MODULE_GRID_CELLS
    ]


def algebra_suites_ops():
    return [
        verify_op(suite, kind, ALGEBRA_RANK, e)
        for kind in ("jmath", "imath")
        for e in (1, -1)
        for suite in ALGEBRA_SUITES
    ]


def _letter_text(name, idx):
    return "m%d^-1" % idx if name == "mi" else "%s%d" % (name, idx)


def normalize_words_items(seed, count=WORD_COUNT):
    """Seeded expressions: coefficient times a word of 8-16 letters.

    The words come from one pool shared by every seed: variant, length and
    coefficient kind cycle through fixed strata, and the letters (mostly d/x
    at two active indices, some m^{+-1} anywhere) are drawn once.  The seed
    draws the coefficient values and the order of the expressions.  With the
    letters drawn per seed instead, the cost of a pass moved by several
    percent from seed to seed, more than the host noise.
    """
    pool = random.Random("normalize-words/pool")
    rng = random.Random("normalize-words/%d" % seed)
    strata = len(WORD_VARIANTS) * len(WORD_LENGTHS)
    items = []
    for n in range(count):
        kind, rank = WORD_VARIANTS[n % len(WORD_VARIANTS)]
        length = WORD_LENGTHS[n % len(WORD_LENGTHS)]
        pair = pool.sample(range(1, rank + 2), 2)
        word = []
        for _ in range(length):
            if pool.random() < 0.85:
                word.append((pool.choice("dx"), pool.choice(pair)))
            else:
                word.append((pool.choice(("m", "mi")), pool.randint(1, rank + 1)))
        coeff_kind = (n // strata) % 3
        if coeff_kind == 0:
            coeff, head = ["one"], ""
        elif coeff_kind == 1:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            coeff, head = ["qpow", k], "q^%d " % k
        else:
            a, b = rng.randint(1, 9), rng.randint(2, 9)
            coeff, head = ["frac", a, b], "%d/%d " % (a, b)
        text = head + " ".join(_letter_text(*l) for l in word)
        items.append(
            {"kind": kind, "rank": rank, "text": text, "word": word, "coeff": coeff}
        )
    rng.shuffle(items)
    return items


def job(name, seed):
    """What one worker runs for this workload; ``seed`` only moves normalize-words."""
    if name == "module-grid":
        return {"workload": name, "ops": module_grid_ops()}
    if name == "algebra-suites":
        return {"workload": name, "ops": algebra_suites_ops()}
    if name == "normalize-words":
        return {"workload": name, "items": normalize_words_items(seed)}
    raise ValueError("unknown workload %r" % (name,))


POLYMOD_CALLS = ("polymod.act_calls", "polymod.tcal_calls", "polymod.act_letter_calls")


def layer_violations(name, m):
    """Ways a traced pass shows that a workload is not doing what it was chosen for."""
    out = []
    if name != "module-grid":
        out += ["%s is %d, expected 0" % (k, m[k]) for k in POLYMOD_CALLS if m[k]]
    share = m["scalars.mul_qpow_den_share"]
    if name == "module-grid" and share < 0.9:
        out.append("scalars.mul_qpow_den_share is %.3f, expected >= 0.9" % share)
    if name == "normalize-words" and share >= 0.5:
        out.append("scalars.mul_qpow_den_share is %.3f, expected < 0.5" % share)
    return out
