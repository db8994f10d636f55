"""The six algebra suites at ranks 5-10, beyond the ranks the other tests reach.

Marked slow and deselected by default (pyproject.toml); run with
``python -m pytest -m slow``.  About 1 s per cell at rank 10.
"""

import pytest

from qweyl import cli
from qweyl.report import FAIL, SKIP
from qweyl.satake import Variant

ALGEBRA_SUITES = [name for name in cli.SUITES if name not in cli.MODULE_SUITES]

# psi o phi = phi o Psi is reported, never checked; the pinned example needs
# the even diagram
SKIPS = {
    "jmath": {"intertwine/psi-Psi"},
    "imath": {"intertwine/pinned-example", "intertwine/psi-Psi"},
}


@pytest.mark.slow
@pytest.mark.parametrize("e", (1, -1))
@pytest.mark.parametrize("rank", range(5, 11))
@pytest.mark.parametrize("kind", ("jmath", "imath"))
def test_algebra_suites_hold_at_ranks_5_to_10(kind, rank, e):
    v = Variant(kind, rank)
    checks = []
    for name in ALGEBRA_SUITES:
        checks += cli.suite_checks(name, v, e, 2)
    assert [c.id for c in checks if c.status == FAIL] == []
    assert {c.id for c in checks if c.status == SKIP} == SKIPS[kind]
