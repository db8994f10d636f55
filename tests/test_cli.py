import gc
import json
import time

import pytest

from qweyl import cli, operators, weyl
from qweyl.cli import main
from qweyl.weyl import EndoSpec


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_repeated_calls_leave_no_cyclic_garbage(capsys):
    # one argparse parser per call would leave its cyclic object graph,
    # about 233 objects, to the cycle collector on every call; the first
    # call may build the parser, which leaves argparse's help formatters
    argv = ["normalize", "x1", "--variant", "jmath", "--rank", "1"]
    main(argv)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == "x1\n" * 4


def test_a_json_report_leaves_no_cyclic_garbage(capsys):
    # json.dumps with indent runs the pure-Python encoder, whose closures
    # form a cycle of about 33 objects per call
    argv = ["verify", "weyl-relations", "--variant", "jmath", "--rank", "1"]
    argv += ["--format", "json"]
    main(argv)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    out = capsys.readouterr().out
    assert out[: len(out) // 2] == out[len(out) // 2 :]
    assert json.loads(out[: len(out) // 2])["summary"]["failed"] == 0


def test_normalize_pinned(capsys):
    rc, out, _ = run(capsys, ["normalize", "d1 x1", "--variant", "imath", "--rank", "2"])
    assert rc == 0
    assert out == "(q*m1 - q^-1*m1^-1)/(q - q^-1)\n"


def test_normalize_non_shape_denominators(capsys):
    # q^2 + q + 1 and q^2 + 1 are not products of (q - 1), (q + 1) and q-powers:
    # their sum takes the general least common multiple
    expr = "x1/(q^2+q+1) + d1/(q^2+1)"
    rc, out, _ = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
    assert rc == 0
    assert out == (
        "((1 + q^-2)*x1 + (1 + q^-1 + q^-2)*d1)/(q^2 + q + 2 + q^-1 + q^-2)\n"
    )


def test_normalize_long_same_index_subwords(capsys):
    # long x/d subwords at the weight-2 index 4 and at index 2 with a rational
    # coefficient: every term of a subword shares one (q - q^-1)^-N
    expr = "3/4 x4^3 d4^5 x4^2 m4^-1 d4 x4 - q^2 d2 x2 d2 x2^2 m2"
    rc, out, _ = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "3"])
    assert rc == 0
    assert out == (
        "((-4*q^10 + 16*q^8 - 24*q^6 + 16*q^4 - 4*q^2)*x2 m2^3"
        " + (8*q^6 - 32*q^4 + 48*q^2 - 32 + 8*q^-2)*x2 m2 + (-4*q^2"
        " + 16 - 24*q^-2 + 16*q^-4 - 4*q^-6)*x2 m2^-1 + 3*q^2*m4^5"
        " + (-3*q^10 - 3*q^6 - 3*q^2 - 6*q^-2 - 3*q^-6)*m4^3 + (3*q^14 + 3*q^10"
        " + 9*q^6 + 9*q^2 + 9*q^-2 + 6*q^-6 + 6*q^-10)*m4"
        " + (-3*q^14 - 6*q^10 - 9*q^6 - 12*q^2 - 12*q^-2 - 9*q^-6 - 6*q^-10 - 3*q^-14)*m4^-1"
        " + (6*q^10 + 6*q^6 + 9*q^2 + 9*q^-2 + 9*q^-6 + 3*q^-10"
        " + 3*q^-14)*m4^-3 + (-3*q^6 - 6*q^2 - 3*q^-2 - 3*q^-6 - 3*q^-10)*m4^-5"
        " + 3*q^-2*m4^-7)/(4*q^6 - 24*q^4 + 60*q^2 - 80 + 60*q^-2 - 24*q^-4"
        " + 4*q^-6)"
        "\n"
    )


def test_apply_braid_depends_on_rank(capsys):
    argv = ["apply", "m2", "--op", "T", "--i", "2", "--e", "-1", "--kind", "prime"]
    rc, out, _ = run(capsys, argv + ["--variant", "jmath", "--rank", "2"])
    assert rc == 0 and out == "m2\n"
    rc, out, _ = run(capsys, argv + ["--variant", "jmath", "--rank", "3"])
    assert rc == 0 and out == "m3\n"


def test_apply_morphisms(capsys):
    rc, out, _ = run(
        capsys,
        ["apply", "B1", "--op", "tau", "--i", "1", "--variant", "jmath", "--rank", "2"],
    )
    assert rc == 0 and out == "-B4 K4\n"
    rc, out, _ = run(
        capsys, ["apply", "K2", "--op", "phi", "--variant", "jmath", "--rank", "2"]
    )
    assert rc == 0 and out == "q^-1*m2 m3^-1\n"
    rc, out, _ = run(
        capsys, ["apply", "B1", "--op", "Omega", "--variant", "jmath", "--rank", "2"]
    )
    assert rc == 0 and out == "B4\n"
    rc, out, _ = run(
        capsys, ["apply", "x1", "--op", "omega", "--variant", "jmath", "--rank", "2"]
    )
    assert rc == 0 and out == "d1\n"
    rc, out, _ = run(
        capsys, ["apply", "K1 B2", "--op", "Psi", "--variant", "jmath", "--rank", "2"]
    )
    assert rc == 0 and out == "B2 K4\n"
    rc, out, _ = run(
        capsys, ["apply", "x1 m2", "--op", "psi", "--variant", "jmath", "--rank", "2"]
    )
    assert rc == 0 and out == "q^-1*x1 m2^-1\n"


def test_act(capsys):
    rc, out, _ = run(
        capsys, ["act", "d1", "--on", "X1^2", "--variant", "jmath", "--rank", "1"]
    )
    assert rc == 0 and out == "(q + q^-1) X1\n"
    rc, out, _ = run(
        capsys,
        [
            "act", "B1", "--alphabet", "iqg", "--on", "X1 X2",
            "--variant", "jmath", "--rank", "1",
        ],
    )
    assert rc == 0 and out == "X2^2\n"


def test_verify_json_deterministic(capsys):
    argv = [
        "verify", "all", "--variant", "jmath", "--rank", "2",
        "--e", "1", "--degree", "3", "--format", "json",
    ]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == 0 and rc2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["suite"] == "all"
    assert rep["variant"] == "jmath" and rep["rank"] == 2 and rep["e"] == 1
    assert rep["summary"]["failed"] == 0 and rep["summary"]["passed"] > 0
    ids = [c["id"] for c in rep["checks"]]
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    for c in rep["checks"]:
        assert set(c) == {"id", "description", "lhs", "rhs", "status"}
    counted = {
        "pass": rep["summary"]["passed"],
        "fail": rep["summary"]["failed"],
        "skipped": rep["summary"]["skipped"],
    }
    tallies = {"pass": 0, "fail": 0, "skipped": 0}
    for c in rep["checks"]:
        tallies[c["status"]] += 1
    assert counted == tallies


def test_verify_text_format(capsys):
    rc, out, _ = run(
        capsys,
        ["verify", "weyl-relations", "--variant", "imath", "--rank", "1"],
    )
    assert rc == 0
    assert out.startswith("suite weyl-relations  variant=imath rank=1")
    assert "[pass] weyl-relations/dx/i=1" in out
    assert out.rstrip().splitlines()[-1].startswith("passed=")


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(
        capsys,
        [
            "verify", "braid", "--variant", "imath", "--rank", "1",
            "--format", "json", "--out", str(target),
        ],
    )
    assert rc == 0 and out == ""
    rep = json.loads(target.read_text())
    assert rep["suite"] == "braid" and rep["summary"]["failed"] == 0


def test_exit_code_2_paths(capsys):
    rc, _, err = run(capsys, ["normalize", "K3", "--variant", "jmath", "--rank", "2"])
    assert rc == 2 and "unknown generator" in err
    rc, _, err = run(capsys, ["normalize", "x9", "--variant", "jmath", "--rank", "2"])
    assert rc == 2 and "index out of range" in err
    rc, _, err = run(capsys, ["normalize", "x1", "--variant", "jmath", "--rank", "0"])
    assert rc == 2
    rc, _, err = run(capsys, ["apply", "m1", "--op", "T", "--variant", "jmath", "--rank", "2"])
    assert rc == 2 and "--i is required" in err
    rc, _, err = run(
        capsys,
        ["verify", "weyl-relations", "--variant", "jmath", "--rank", "2", "--degree", "0"],
    )
    assert rc == 2
    rc, _, err = run(capsys, ["verify", "no-such-suite", "--variant", "jmath", "--rank", "2"])
    assert rc == 2
    rc, _, err = run(capsys, ["normalize", "x1", "--variant", "other", "--rank", "2"])
    assert rc == 2
    rc, out, err = run(capsys, ["normalize", "x1 *", "--variant", "jmath", "--rank", "2"])
    assert rc == 2 and out == "" and "expected an expression" in err
    for expr, char, pos in (("x1²", "²", 2), ("x1 ٣", "٣", 3), ("x١", "١", 1)):
        rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "2"])
        assert rc == 2 and out == "", expr
        assert "unexpected character '%s' (at position %d)" % (char, pos) in err, expr


def test_a_scalar_glued_to_a_commutator_subscript_exits_2(capsys):
    for expr in ("[x1, d1]_0", "[x1, d1]_2", "[x1, d1]_q"):
        rc, out, err = run(capsys, ["normalize", expr, "--variant", "imath", "--rank", "1"])
        assert rc == 2 and out == "" and "commutator subscript" in err, expr
        assert "(at position 9)" in err, expr


def test_huge_exponent_is_rejected(capsys):
    t0 = time.perf_counter()
    rc, _, err = run(capsys, ["normalize", "q^99999999", "--variant", "jmath", "--rank", "1"])
    assert rc == 2 and "exponent exceeds the limit of 1000" in err
    rc, _, err = run(capsys, ["normalize", "x1^-99999999", "--variant", "jmath", "--rank", "1"])
    assert rc == 2 and "exponent exceeds" in err
    assert time.perf_counter() - t0 < 5
    rc, out, _ = run(capsys, ["normalize", "q^1000 q^-1000", "--variant", "jmath", "--rank", "1"])
    assert rc == 0 and out == "1\n"


def test_hostile_long_word_is_rejected_before_reduction(capsys):
    # every exponent is within the limit, but 2,000 x and d letters at one
    # index would take far longer than the run allows; reduce_word refuses
    # the word before reducing any index
    t0 = time.perf_counter()
    rc, _, err = run(capsys, ["normalize", "d1^1000 x1^1000", "--variant", "jmath", "--rank", "1"])
    assert rc == 2 and "index 1" in err and "limit of 200" in err
    assert time.perf_counter() - t0 < 0.5
    # m letters do not count, and the limit is per index
    n = weyl.MAX_INDEX_LETTERS
    expr = "x1^%d m1^500 d2^%d" % (n, n)
    rc, out, _ = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
    assert rc == 0 and out == expr + "\n"
    expr = "x1 d2^150 x2^%d" % (n - 149)
    rc, _, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
    assert rc == 2 and "%d x and d letters at index 2" % (n + 1) in err


def test_hostile_product_is_rejected_before_multiplication(capsys):
    # each factor is a word within the limit, but their product has 400 x
    # and d letters at index 1; the index product refuses it at once
    t0 = time.perf_counter()
    rc, _, err = run(capsys, ["normalize", "x1^200 * (d1^200)", "--variant", "jmath", "--rank", "1"])
    assert rc == 2 and "400 x and d letters" in err and "limit of 200" in err
    assert time.perf_counter() - t0 < 0.5


def test_product_limit_matches_the_word_limit(capsys):
    # a product is refused exactly when its concatenated word would be
    n = weyl.MAX_INDEX_LETTERS
    for a, rc_want in ((n - 150, 0), (n - 149, 2)):
        for expr in ("x1^150 * (x1^%d)" % a, "x1^150 x1^%d" % a):
            rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
            assert rc == rc_want, (expr, err)
            assert rc == 2 or out == "x1^%d\n" % (150 + a)
            assert rc == 0 or "limit of %d" % n in err


def test_mutation_fails_verify(capsys, monkeypatch):
    real = operators.braid_op

    def mutated(v, i, e, kind):
        spec = real(v, i, e, kind)
        pinned = (v.kind == "jmath" and i == v.rank) or (
            v.kind == "imath" and i == v.rank + 1
        )
        if kind == "prime" and not pinned:
            images = dict(spec.images)
            images[("d", i + 1)] = -images[("d", i + 1)]
            spec = EndoSpec(v, images, label=spec.label)
        return spec

    monkeypatch.setattr(operators, "braid_op", mutated)
    rc, out, _ = run(
        capsys,
        ["verify", "endo-well-defined", "--variant", "jmath", "--rank", "2"],
    )
    assert rc == 1
    assert "[fail]" in out


def test_huge_rank_is_rejected(capsys):
    t0 = time.perf_counter()
    for argv in (
        ["normalize", "x1"],
        ["apply", "x1", "--op", "omega"],
        ["act", "x1", "--on", "X1"],
        ["verify", "braid"],
    ):
        rc, out, err = run(capsys, argv + ["--variant", "jmath", "--rank", "1000000000"])
        assert rc == 2 and out == "" and "rank exceeds the limit of 64" in err
    rc, _, err = run(capsys, ["normalize", "x1", "--variant", "imath", "--rank", "65"])
    assert rc == 2 and "rank exceeds the limit of 64" in err
    rc, out, _ = run(capsys, ["normalize", "x64", "--variant", "imath", "--rank", "64"])
    assert rc == 0 and out == "x64\n"
    assert time.perf_counter() - t0 < 5


def test_huge_module_grid_is_rejected(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(
        cli, "suite_checks", lambda name, v, e, degree: ran.append(name) or []
    )
    t0 = time.perf_counter()
    for suite in ("module-homomorphism", "tcal", "iu-module", "all"):
        rc, out, err = run(
            capsys,
            ["verify", suite, "--variant", "jmath", "--rank", "6", "--degree", "7"],
        )
        assert rc == 2 and out == ""
        assert "module grid of 8^7 points exceeds the limit of 1000000" in err
    rc, _, err = run(
        capsys,
        ["verify", "tcal", "--variant", "imath", "--rank", "1", "--degree", str(10**9)],
    )
    assert rc == 2 and "exceeds the limit of 1000000" in err
    assert ran == []
    assert time.perf_counter() - t0 < 5
    # 7^7 = 823,543 points is still accepted, and algebra suites never walk
    # the grid, whatever the degree.
    rc, _, _ = run(
        capsys, ["verify", "all", "--variant", "jmath", "--rank", "6", "--degree", "6"]
    )
    assert rc == 0 and ran == list(cli.SUITES)
    rc, _, _ = run(
        capsys,
        ["verify", "braid", "--variant", "jmath", "--rank", "6", "--degree", str(10**9)],
    )
    assert rc == 0 and ran[-1] == "braid"
