"""Check records: when instance tags and compared values get rendered.

And the JSON report: report_json writes the bytes of json.dumps.
"""

import json

import pytest

from qweyl import cli, polymod
from qweyl.report import (
    FAIL,
    PASS,
    SKIP,
    Check,
    aggregate_check,
    equality_check,
    make_report,
    pointwise,
    report_json,
)
from qweyl.satake import Variant
from qweyl.scalars import qpow


class Unprintable:
    def __str__(self):
        raise AssertionError("rendered a tag of a passing instance")


class Counted:
    """A value that counts how often it is rendered."""

    renders = 0

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return isinstance(other, Counted) and self.key == other.key

    def __str__(self):
        Counted.renders += 1
        return "v%d" % self.key


def test_failing_grid_instance_renders_both_tag_forms():
    point = aggregate_check("c", "d", [((None, (0, 1, 2)), 1, 2)])
    assert (point.status, point.lhs, point.rhs) == (FAIL, "[X^(0, 1, 2)] 1", "[X^(0, 1, 2)] 2")
    letter = aggregate_check("c", "d", [(("d1", (0, 1, 2)), 1, 2)])
    assert letter.lhs == "[d1 on X^((0, 1, 2),)] 1"
    assert letter.rhs == "[d1 on X^((0, 1, 2),)] 2"


def test_only_the_first_failing_tag_is_rendered():
    instances = [
        ((Unprintable(), (0,)), 1, 1),
        ("B1", 3, 3),
        (("x2", (1, 0)), 1, 2),
        ((Unprintable(), (1, 1)), 1, 2),
    ]
    c = aggregate_check("c", "d", iter(instances))
    assert (c.status, c.lhs, c.rhs) == (FAIL, "[x2 on X^((1, 0),)] 1", "[x2 on X^((1, 0),)] 2")
    # string tags, such as letter tags, pass through unchanged
    c = aggregate_check("c", "d", [("K1^-1", 0, 1)])
    assert c.lhs == "[K1^-1] 0"


def test_pointwise_maps_no_point_after_the_first_mismatch():
    calls = []

    def counted(side, f):
        def apply(x):
            calls.append((side, x))
            return f(x)

        return apply

    points = [("p%d" % k, k) for k in range(6)]
    lhs = counted("lhs", lambda x: x)
    rhs = counted("rhs", lambda x: -x if x == 2 else x)
    c = aggregate_check("c", "d", pointwise(points, lhs, rhs))
    assert (c.status, c.lhs, c.rhs) == (FAIL, "[p2] 2", "[p2] -2")
    assert calls == [(side, k) for k in range(3) for side in ("lhs", "rhs")]
    # a passing check maps every point once on each side
    calls.clear()
    c = aggregate_check("c", "d", pointwise(points, lhs, lhs))
    assert (c.status, c.lhs) == (PASS, "agree on 6 instances")
    assert len(calls) == 2 * len(points)


def test_a_passing_check_never_renders_a_tag():
    instances = [((Unprintable(), (k, 0)), k, k) for k in range(5)]
    instances.append((Unprintable(), 1, 1))
    c = aggregate_check("c", "d", instances)
    assert (c.status, c.lhs) == (PASS, "agree on 6 instances")


def test_module_homomorphism_failure_renders_the_point(monkeypatch):
    real = polymod.act_word
    monkeypatch.setattr(polymod, "act_word", lambda v, w, p: real(v, w, p).scale(qpow(1)))
    checks = polymod.check_module_homomorphism(Variant("jmath", 1), 1)
    c = {c.id: c for c in checks}["module-homomorphism/word/01"]
    assert (c.status, c.lhs, c.rhs) == (FAIL, "[X^(0, 0)] q", "[X^(0, 0)] 1")


def test_passing_equality_renders_once_and_failing_renders_both():
    Counted.renders = 0
    c = equality_check("c", "d", Counted(1), Counted(1))
    assert (c.status, c.lhs, c.rhs, Counted.renders) == (PASS, "v1", "v1", 1)
    Counted.renders = 0
    c = equality_check("c", "d", Counted(1), Counted(2))
    assert (c.status, c.lhs, c.rhs, Counted.renders) == (FAIL, "v1", "v2", 2)
    # equal values of two types may render apart: both sides are rendered
    c = equality_check("c", "d", 1, 1.0)
    assert (c.status, c.lhs, c.rhs) == (PASS, "1", "1.0")


def reference_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


AWKWARD = (
    'say "hi"',
    "back\\slash \\n",
    "two\nlines\r\n",
    "ctl \x00\x01\x08\x0c\t\x1f\x7f",
    "κ_i = q^2, café",
    "line\u2028separator\u2029paragraph",
    "astral \U0001d53d",
    "",
)


@pytest.mark.parametrize("e", (None, 1, -1))
def test_report_json_escapes_every_string_as_json_dumps_does(e):
    checks = [
        Check("c/%d" % k, s, s[::-1], s + "!", (PASS, FAIL, SKIP)[k % 3])
        for k, s in enumerate(AWKWARD)
    ]
    checks.append(Check(AWKWARD[0], "d", "l", "r", PASS))
    rep = make_report(AWKWARD[4], Variant("imath", 3), checks, e=e)
    assert report_json(rep) == reference_json(rep)


def test_report_json_of_an_empty_report():
    rep = make_report("weyl-relations", Variant("jmath", 1), [], e=None)
    text = report_json(rep)
    assert text == reference_json(rep)
    assert '"checks": [],' in text


@pytest.mark.parametrize("kind", ("jmath", "imath"))
@pytest.mark.parametrize("e", (1, -1))
def test_report_json_of_every_suite_matches_json_dumps(kind, e):
    v = Variant(kind, 2)
    every = []
    for name in cli.SUITES:
        checks = cli.suite_checks(name, v, e, 2)
        every += checks
        rep = make_report(name, v, checks, e=e)
        assert report_json(rep) == reference_json(rep), name
    rep = make_report("all", v, every, e=e)
    assert report_json(rep) == reference_json(rep)
