"""Check records and deterministic verification reports."""

import json
import operator
from json.encoder import encode_basestring_ascii

from . import __version__

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


class Check:
    __slots__ = ("id", "description", "lhs", "rhs", "status")

    def __init__(self, id, description, lhs, rhs, status):
        self.id = id
        self.description = description
        self.lhs = lhs
        self.rhs = rhs
        self.status = status

    def as_dict(self):
        return {
            "id": self.id,
            "description": self.description,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
        }

    def __repr__(self):
        return "Check(%s: %s)" % (self.id, self.status)


def equality_check(id, description, lhs, rhs):
    """Compare two values with ==; renders both sides into the record.

    Equal values of one type share a canonical form and render alike, so a
    passing check renders it once.
    """
    ok = lhs == rhs
    if ok and type(lhs) is type(rhs):
        text = str(lhs)
        return Check(id, description, text, text, PASS)
    return Check(id, description, str(lhs), str(rhs), PASS if ok else FAIL)


def _tag_text(tag):
    """An instance tag as a failing record shows it.

    A grid tag is the pair (letter text or None, exponent vector a) and
    reads "X^(0, 1)" or "<letter> on X^((0, 1),)": the letter form has
    always shown the point as a one-element tuple, and the reports keep it.
    Any other tag, such as a letter's text, is shown as is.
    """
    if type(tag) is not tuple:
        return tag
    letter, a = tag
    if letter is None:
        return "X^%s" % (a,)
    return "%s on X^(%s,)" % (letter, a)


def pointwise(points, lhs, rhs):
    """The (tag, lhs(x), rhs(x)) instances over (tag, x) points, each when asked."""
    return ((tag, lhs(x), rhs(x)) for tag, x in points)


def aggregate_check(id, description, instances):
    """One check over many (tag, lhs, rhs) comparisons.

    Passes when every pair agrees; on the first mismatch the offending
    instance is rendered into the record and the rest are not evaluated.
    Only that instance's tag is ever rendered (see _tag_text).
    """
    n = 0
    for tag, lhs, rhs in instances:
        n += 1
        if lhs != rhs:
            tag = _tag_text(tag)
            return Check(
                id,
                description,
                "[%s] %s" % (tag, lhs),
                "[%s] %s" % (tag, rhs),
                FAIL,
            )
    msg = "agree on %d instances" % n
    return Check(id, description, msg, msg, PASS)


def skipped_check(id, description):
    return Check(id, description, "", "", SKIP)


def make_report(suite, variant, checks, e=None):
    ids = [c.id for c in checks]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate check ids")
    checks = sorted(checks, key=lambda c: c.id)
    summary = {
        "passed": sum(1 for c in checks if c.status == PASS),
        "failed": sum(1 for c in checks if c.status == FAIL),
        "skipped": sum(1 for c in checks if c.status == SKIP),
    }
    return {
        "suite": suite,
        "variant": variant.kind,
        "rank": variant.rank,
        "e": e,
        "toolVersion": __version__,
        "summary": summary,
        "checks": [c.as_dict() for c in checks],
    }


# One check record as json.dumps(..., sort_keys=True, indent=2) lays it out
# inside the report's "checks" list, and its five keys in that sorted order.
_CHECK_JSON = (
    "    {\n"
    '      "description": %s,\n'
    '      "id": %s,\n'
    '      "lhs": %s,\n'
    '      "rhs": %s,\n'
    '      "status": %s\n'
    "    }"
)
_CHECK_FIELDS = operator.itemgetter("description", "id", "lhs", "rhs", "status")


def report_json(report):
    """The bytes of json.dumps(report, sort_keys=True, indent=2) + "\\n".

    With indent set, json.dumps runs its pure-Python encoder, which resumes
    a chain of generators for every value.  Here each check record fills one
    fixed template, its strings encoded by encode_basestring_ascii, the C
    function json.dumps itself uses for them; the head, every key but
    "checks" (which sorts first), goes through json.dumps.
    """
    head = dict(report)
    checks = ",\n".join(
        _CHECK_JSON % tuple(map(encode_basestring_ascii, _CHECK_FIELDS(c)))
        for c in head.pop("checks")
    )
    checks = "[\n%s\n  ]" % checks if checks else "[]"
    rest = json.dumps(head, sort_keys=True, indent=2)  # "{\n  ...\n}"
    return '{\n  "checks": %s,\n%s\n' % (checks, rest[2:])


def report_text(report):
    lines = [
        "suite %s  variant=%s rank=%d%s"
        % (
            report["suite"],
            report["variant"],
            report["rank"],
            "" if report["e"] is None else " e=%+d" % report["e"],
        )
    ]
    for c in report["checks"]:
        line = "[%s] %s  %s" % (c["status"], c["id"], c["description"])
        if c["status"] == FAIL:
            line += "\n    lhs = %s\n    rhs = %s" % (c["lhs"], c["rhs"])
        lines.append(line)
    s = report["summary"]
    lines.append(
        "passed=%d failed=%d skipped=%d" % (s["passed"], s["failed"], s["skipped"])
    )
    return "\n".join(lines) + "\n"


def failed_count(report):
    return report["summary"]["failed"]
