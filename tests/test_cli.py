import gc
import hashlib
import json
import time

import pytest

from qweyl import cli, operators, parser, scalars, weyl
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


def test_normalize_pinned_mixed_denominators(capsys):
    # the expressions CI normalizes under python -O and two hash seeds (the
    # non-shape and long-subword ones are pinned above), at jmath rank 3:
    # runs, powers, a sum and a scalar division; coefficients over q - q^-1,
    # (q + 1)^2 and 7, none of them the lcm; coefficients over 1, q - q^-1
    # and the cofactor r = q^2 + 1, rendered over one lcm; and, last,
    # (q - 1)^a (q + 1)^b with a != b and (q - q^-1)^6
    cases = (
        (
            "2/3 q^-1 x1 d1^2 m4^-2 x4 * d2 (x3 + q d3 m3) / 5 d4^2 x4 - [x2 d2, m4 d4]_+ / 2",
            "(4*d1 m1 d2 x3 + (-4 - 4*q^-4)*d1 m1 d2 x3 m4^-2 + 4*q^-4*d1 m1 d2 x3 m4^-4"
            " + 4*q*d1 m1 d2 d3 m3 + (-4*q - 4*q^-3)*d1 m1 d2 d3 m3 m4^-2"
            " + 4*q^-3*d1 m1 d2 d3 m3 m4^-4 - 4*q^2*d1 m1^-1 d2 x3"
            " + (4*q^2 + 4*q^-2)*d1 m1^-1 d2 x3 m4^-2 - 4*q^-2*d1 m1^-1 d2 x3 m4^-4"
            " - 4*q^3*d1 m1^-1 d2 d3 m3 + (4*q^3 + 4*q^-1)*d1 m1^-1 d2 d3 m3 m4^-2"
            " - 4*q^-1*d1 m1^-1 d2 d3 m3 m4^-4"
            " + (15*q - 15 - 30*q^-1 + 30*q^-2 + 15*q^-3 - 15*q^-4)*m2 d4 m4"
            " + (-15*q + 15 + 30*q^-1 - 30*q^-2 - 15*q^-3 + 15*q^-4)*m2^-1 d4 m4)"
            "/(30*q^3 - 90*q + 90*q^-1 - 30*q^-3)",
        ),
        (
            "(q^2+1)/(q^3-q) x1 - 3 d1/(q+1)^2 + 5/7",
            "((7*q + 7 + 7*q^-1 + 7*q^-2)*x1 + (-21 + 21*q^-1)*d1"
            " + (5*q^2 + 5*q - 5 - 5*q^-1))/(7*q^2 + 7*q - 7 - 7*q^-1)",
        ),
        (
            "x1 - q d1 x1 + 2 x2/(q^2+1)",
            "((q^2 - q^-2)*x1 + (-q^3 - q)*m1 + (2 - 2*q^-2)*x2 + (q + q^-1)*m1^-1)"
            "/(q^2 - q^-2)",
        ),
        (
            "x1/(q-1)^3 + d1/(q+1)",
            "((q^-1 + q^-2)*x1 + (q - 3 + 3*q^-1 - q^-2)*d1)/(q^2 - 2*q + 2*q^-1 - q^-2)",
        ),
        (
            "(d1 x1)^6",
            "(q^6*m1^6 - 6*q^4*m1^4 + 15*q^2*m1^2 - 20 + 15*q^-2*m1^-2 - 6*q^-4*m1^-4"
            " + q^-6*m1^-6)/(q^6 - 6*q^4 + 15*q^2 - 20 + 15*q^-2 - 6*q^-4 + q^-6)",
        ),
    )
    for expr, want in cases:
        rc, out, _ = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "3"])
        assert rc == 0
        assert out == want + "\n"


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


def test_hostile_power_is_rejected_before_expansion(capsys):
    # every product inside it is within the letter limit, but its expansion
    # has 4^20 words; the parser refuses the power before forming it
    t0 = time.perf_counter()
    rc, out, err = run(capsys, ["normalize", "(x1 + d1 + x2 + d2)^20", "--variant", "jmath", "--rank", "1"])
    assert rc == 2 and out == ""
    assert "4^20 terms" in err and "limit of %d" % parser.MAX_POWER_TERMS in err
    assert time.perf_counter() - t0 < 0.5


def test_power_limit_boundary(capsys):
    # a power is refused exactly when n^k, n its base's terms, is above the
    # limit; scalars, powers 0 and 1 and one-term bases are never refused
    n = parser.MAX_POWER_TERMS
    k = n.bit_length() - 1
    assert 2**k == n
    for expr, rc_want in (("(x1 + x2)^%d" % k, 0), ("(x1 + x2)^%d" % (k + 1), 2)):
        rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
        assert rc == rc_want, (expr, err)
        assert rc == 2 or len(out.split(" + ")) == k + 1
        assert rc == 0 or "2^%d terms, above the limit of %d" % (k + 1, n) in err
    for expr in ("(q + 1)^200", "(x1 + d1)^0", "(x1 + d1)^1", "(m1 q^2)^200", "(x1 + d1 + x2 + d2)^8"):
        rc, _, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
        assert rc == 0, (expr, err)


POWER8 = "(x1 + d1 + x2 + d2)^8"  # 425 terms
POWER4 = "(x1 + d1 + x2 + d2)^4"  # 57 terms


def test_hostile_product_of_powers_is_rejected(capsys):
    # each power is within the power limit, but a product or q-commutator of
    # two of them forms 425^2 term pairs; the parser refuses it beforehand
    for expr in (POWER8 + " " + POWER8, "[%s, %s]_+" % (POWER8, POWER8)):
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
        assert rc == 2 and out == "", expr
        assert "425 x 425 terms" in err and "limit of %d" % parser.MAX_POWER_TERMS in err
        assert time.perf_counter() - t0 < 0.5


def test_product_limit_boundary(capsys):
    # 425 x 57 = 24,225 term pairs are within the limit, and the product
    # prints the bytes it printed before the limit existed
    assert 425 * 57 <= parser.MAX_POWER_TERMS < 425 * 425
    expr = POWER8 + " " + POWER4
    rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
    assert rc == 0, err
    digest = "197a2c82f30e99ac9fb7f444d80edb74d5221cf16b6a9b65c47f51a4c9c7a596"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hostile_scalar_gcd_is_rejected(capsys):
    # two large cofactors: the gcd of their polynomials would run for
    # seconds to minutes, and p_gcd refuses it before its remainder sequence
    n = scalars.MAX_GCD_DEGREES
    for expr, degrees in (
        ("(q+2)^101/(q+3)^100", (101, 100)),
        ("1/(q+2)^71 + 1/(q+3)^71", (71, 142)),
    ):
        assert degrees[0] * degrees[1] > n
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
        assert rc == 2 and out == "", expr
        assert "degrees %d and %d, above the limit of %d" % (degrees + (n,)) in err
        assert time.perf_counter() - t0 < 0.5


def test_gcd_limit_boundary(capsys):
    # gcds of degrees 100 x 100 and 70 x 140 are within the limit, and print
    # the bytes they printed before the limit existed
    assert 100 * 100 <= scalars.MAX_GCD_DEGREES and 70 * 140 <= scalars.MAX_GCD_DEGREES
    for expr, digest in (
        ("(q+2)^100/(q+3)^100", "a34a496f06231b6cda2c4750865e46ffa171e60fd73dd142f0adde22077b7bec"),
        ("1/(q+2)^70 + 1/(q+3)^70", "8ade90b7b34e9c4ec24f6fba2535255e50bb9ce0572b99c9645781f2b7490dad"),
    ):
        rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, expr


def test_hostile_gcd_coefficients_are_rejected(capsys):
    # degrees within MAX_GCD_DEGREES, but a wide leading coefficient: each
    # pseudo-remainder step multiplies by it, and p_gcd refuses the
    # operands' combined size before its remainder sequence runs
    n = scalars.MAX_GCD_BITS
    N = "7" * 300
    for expr, sizes in (
        ("(q+2)^100/(%s q+1)^4" % N, (100, 4, 155, 3985)),
        ("(q+2)^100/(7^300 q+1)^4", (100, 4, 155, 3369)),
        ("(q+2)^100/(2^398 q+1)", (100, 1, 155, 399)),
    ):
        da, db, ba, bb = sizes
        size = db * ba + da * bb
        assert size > n
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["normalize", expr, "--variant", "jmath", "--rank", "1"])
        assert rc == 2 and out == "", expr
        assert "degrees %d and %d with %d- and %d-bit coefficients" % sizes in err
        assert "size %d above the limit of %d" % (size, n) in err
        assert time.perf_counter() - t0 < 0.5


def test_gcd_coefficient_limit_boundary(capsys):
    # size 1 * 155 + 100 * 398 = 39,955 is within the limit, and prints the
    # bytes it printed before the limit existed
    assert 155 + 100 * 398 <= scalars.MAX_GCD_BITS < 155 + 100 * 399
    rc, out, err = run(capsys, ["normalize", "(q+2)^100/(2^397 q+1)", "--variant", "jmath", "--rank", "1"])
    assert rc == 0, err
    digest = "1febad3d2cfdd87e73e8462407620c35dc3866d23ed598829a77198e7f106ac5"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TAU_B2 = ["--op", "tau", "--i", "1", "--variant", "imath", "--rank", "1"]


def test_hostile_free_substitution_is_rejected(capsys):
    # tau_1(B2) has 5 free words at imath rank 1, so B2^k maps to 5^k words
    # that do not collect; the word is refused before any image is multiplied
    for k in (7, 10, 1000):
        assert 5**k > parser.MAX_POWER_TERMS
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["apply", "B2^%d" % k] + TAU_B2)
        assert rc == 2 and out == ""
        assert "word of %d letters to more than %d words" % (k, parser.MAX_POWER_TERMS) in err
        assert time.perf_counter() - t0 < 0.5


def test_free_substitution_limit_boundary(capsys):
    # 5^6 words are within the limit, and print the bytes they printed
    # before the limit existed
    assert 5**6 <= parser.MAX_POWER_TERMS < 5**7
    rc, out, err = run(capsys, ["apply", "B2^6"] + TAU_B2)
    assert rc == 0, err
    digest = "1320e0f89a41bd5c6adeef46926e76509c37ee856ba639cadac79d1e80aa7eda"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
