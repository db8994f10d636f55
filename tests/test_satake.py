"""Braid index data on Variant and the shared braid-relation generator."""

import pytest

from qweyl.report import PASS, SKIP
from qweyl.satake import BRAID_KINDS, Variant, braid_relation_checks

TEXT = dict.fromkeys(
    ("doubleprime-after-prime", "prime-after-doubleprime", "3-term", "4-term", "commute"),
    "",
)


def relation_words(v, e=1):
    """Run the generator with identity maps; return checks and compared pairs.

    Each relation composes its left word and then its right word, so the
    composed words, taken two at a time, are its (lhs word, rhs word) pairs.
    """
    words = []

    def compose(word):
        words.append(word)
        return lambda x: x

    checks = braid_relation_checks(v, e, compose, [("p", 0)], ("inv/", "braid/"), TEXT)
    return checks, list(zip(words[::2], words[1::2]))


@pytest.mark.parametrize("kind", ("jmath", "imath"))
def test_bmax_and_pinned_match_the_kind_rank_predicate(kind):
    for rank in range(1, 7):
        v = Variant(kind, rank)
        assert v.bmax == (rank if kind == "jmath" else rank + 1)
        assert list(v.braid_indices) == list(range(1, v.bmax + 1))
        for i in v.braid_indices:
            by_hand = (kind == "jmath" and i == rank) or (kind == "imath" and i == rank + 1)
            assert v.pinned(i) == by_hand


def test_relation_words_imath_rank_3():
    v = Variant("imath", 3)
    checks, pairs = relation_words(v, e=-1)
    ids = [c.id for c in checks]
    moves = sorted(i for i in ids if i.startswith("braid/"))
    assert moves == sorted(
        "braid/" + template % kind
        for kind in BRAID_KINDS
        for template in (
            "3-term/%s/i=2", "3-term/%s/i=3", "4-term/%s/i=4",
            "commute/%s/i=1,j=3", "commute/%s/i=1,j=4", "commute/%s/i=2,j=4",
        )
    )
    assert sorted(i for i in ids if i.startswith("inv/")) == sorted(
        "inv/%s/i=%d" % (order, i)
        for order in ("doubleprime-after-prime", "prime-after-doubleprime")
        for i in range(1, 5)
    )
    assert all(c.status == PASS for c in checks)

    def w(kind, *indices):
        return tuple((i, -1, kind) for i in indices)

    for kind in BRAID_KINDS:
        for lhs, rhs in (
            (w(kind, 1, 2, 1), w(kind, 2, 1, 2)),
            (w(kind, 2, 3, 2), w(kind, 3, 2, 3)),
            (w(kind, 3, 4, 3, 4), w(kind, 4, 3, 4, 3)),
            (w(kind, 1, 3), w(kind, 3, 1)),
            (w(kind, 1, 4), w(kind, 4, 1)),
            (w(kind, 2, 4), w(kind, 4, 2)),
        ):
            assert (lhs, rhs) in pairs
    for i in range(1, 5):
        assert (((i, 1, "doubleprime"), (i, -1, "prime")), ()) in pairs
        assert (((i, -1, "prime"), (i, 1, "doubleprime")), ()) in pairs
    assert len(pairs) == len(checks) == 8 + 2 * 6


def test_relation_words_jmath_rank_1_are_skips_and_inverses():
    checks, pairs = relation_words(Variant("jmath", 1))
    skips = sorted(c.id for c in checks if c.status == SKIP)
    assert skips == sorted(
        "braid/%s/%s/none" % (family, kind)
        for kind in BRAID_KINDS
        for family in ("3-term", "4-term", "commute")
    )
    assert pairs == [
        (((1, -1, "doubleprime"), (1, 1, "prime")), ()),
        (((1, 1, "prime"), (1, -1, "doubleprime")), ()),
    ]
    assert len(checks) == len(skips) + 2


def test_check_variant_accepts_equal_variants_only():
    v = Variant("jmath", 2)
    v.check_variant(v)
    v.check_variant(Variant("jmath", 2))
    for other in (Variant("imath", 2), Variant("jmath", 3), None):
        with pytest.raises(ValueError, match="variant mismatch"):
            v.check_variant(other)
