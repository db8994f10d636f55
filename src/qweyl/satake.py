"""Diagram data for the two families of algebras.

A Variant fixes the kind ("jmath": n = 2r even, "imath": n = 2r+1 odd) and
the rank r >= 1.  Everything here is small combinatorics: the node
involution rho, the weight kappa of each oscillator index, which K-letters
exist, and the index set for the braid operators.  The braid relations
live here too: braid_relation_checks decides, once for the algebra,
coideal and polynomial braid actions, which inverse, 3-term, 4-term and
commuting moves exist at a given rank.
"""

from .report import aggregate_check, pointwise, skipped_check

VARIANT_KINDS = ("jmath", "imath")
BRAID_KINDS = ("prime", "doubleprime")
KIND_MARKS = {"prime": "'", "doubleprime": "''"}


class Variant:
    __slots__ = ("kind", "rank", "n", "bmax")

    def __init__(self, kind, rank):
        if kind not in VARIANT_KINDS:
            raise ValueError("unknown variant kind %r" % (kind,))
        if not isinstance(rank, int) or rank < 1:
            raise ValueError("rank must be a positive integer")
        self.kind = kind
        self.rank = rank
        self.n = 2 * rank if kind == "jmath" else 2 * rank + 1
        # top braid index: r for jmath, r+1 for imath
        self.bmax = (self.n + 1) // 2

    def rho(self, i):
        """The diagram involution i -> n + 1 - i on nodes 1..n."""
        return self.n + 1 - i

    def kappa(self, i):
        """Weight of oscillator index i: 2 only at i = r+1 in kind jmath."""
        if self.kind == "jmath" and i == self.rank + 1:
            return 2
        return 1

    @property
    def weyl_indices(self):
        # oscillator indices 1..r+1
        return range(1, self.rank + 2)

    @property
    def node_indices(self):
        # diagram nodes 1..n
        return range(1, self.n + 1)

    @property
    def braid_indices(self):
        return range(1, self.bmax + 1)

    def pinned(self, i):
        """Whether braid index i is the top one, whose operators fix the indices."""
        return i == self.bmax

    def check_braid_args(self, i, e, kind):
        """Raise ValueError unless (i, e, kind) names a braid operator here."""
        if kind not in BRAID_KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        if e not in (1, -1):
            raise ValueError("e must be +1 or -1, got %r" % (e,))
        if not 1 <= i <= self.bmax:
            raise ValueError(
                "braid index out of range: i=%d (range 1..%d)" % (i, self.bmax)
            )

    def check_variant(self, other):
        """Raise ValueError unless the variant other is this one.

        Identity first: __eq__ is a Python call, and operands almost always
        share one Variant object.
        """
        if other is not self and other != self:
            raise ValueError("variant mismatch")

    def k_legal(self, i):
        """Whether the letter K_i exists: rho must move node i."""
        return 1 <= i <= self.n and self.rho(i) != i

    def __eq__(self, other):
        return (
            isinstance(other, Variant)
            and self.kind == other.kind
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.kind, self.rank))

    def __repr__(self):
        return "Variant(%r, %d)" % (self.kind, self.rank)


def cartan(i, j):
    """Type-A pairing: 2 on the diagonal, -1 for neighbors, else 0."""
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


def braid_relation_checks(v, e, compose, points, prefixes, text):
    """The braid relations at sign e for one braid action, as check records.

    A word is a tuple of (i, e, kind) operator subscripts, outermost first;
    compose(word) returns the composite as a map, with () the identity, and
    a relation compares its two sides' maps, left first, on the (tag, x)
    points.  prefixes = (inverse, braid) are the id prefixes of the two
    families; text maps each family ("doubleprime-after-prime",
    "prime-after-doubleprime", "3-term", "4-term", "commute") to a
    %-template over i, j, h = i - 1, e, ne = -e and the kind's mark m.
    """
    inv_prefix, braid_prefix = prefixes
    checks = []

    def relation(cid, family, fields, lhs, rhs):
        instances = pointwise(points, compose(lhs), compose(rhs))
        checks.append(aggregate_check(cid, text[family] % fields, instances))

    for i in v.braid_indices:
        fields = {"i": i, "e": e, "ne": -e}
        prime, doubleprime = (i, e, "prime"), (i, -e, "doubleprime")
        for family, word in (
            ("doubleprime-after-prime", (doubleprime, prime)),
            ("prime-after-doubleprime", (prime, doubleprime)),
        ):
            relation("%s%s/i=%d" % (inv_prefix, family, i), family, fields, word, ())

    top = v.bmax
    pairs = [(i, j) for i in v.braid_indices for j in range(i + 2, top + 1)]
    for kind in BRAID_KINDS:
        mark = KIND_MARKS[kind]

        def word(*indices):
            return tuple((k, e, kind) for k in indices)

        def move(family, i, lhs, rhs, j=None):
            cid = "%s%s/%s/i=%d" % (braid_prefix, family, kind, i)
            if j is not None:
                cid += ",j=%d" % j
            fields = {"i": i, "j": j, "h": i - 1, "m": mark}
            relation(cid, family, fields, word(*lhs), word(*rhs))

        def skip(family, reason):
            checks.append(
                skipped_check("%s%s/%s/none" % (braid_prefix, family, kind), reason)
            )

        if top < 3:
            skip("3-term", "no adjacent pair below the top index at this rank")
        for i in range(2, top):
            move("3-term", i, (i - 1, i, i - 1), (i, i - 1, i))
        if top < 2:
            skip("4-term", "fewer than two braid generators at this rank")
        else:
            move("4-term", top, (top - 1, top) * 2, (top, top - 1) * 2)
        if not pairs:
            skip("commute", "no index pairs at distance >= 2 at this rank")
        for i, j in pairs:
            move("commute", i, (i, j), (j, i), j)
    return checks
