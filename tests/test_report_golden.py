"""Byte-identity of verification reports against recorded sha256 digests.

The digests were recorded from `qweyl verify all --degree 2 --format json`
before the braid-relation checks of the T, tau and tcal suites were merged
into one generator.  They pin every check id, description, verdict and
failing-instance rendering: the clean cells cover both variants at ranks
1-3 with e = +-1 (every skip/present combination of the 3-term, 4-term and
commute families), and the mutated cells pin the failure renderings of the
braid, intertwine and tcal suites.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from qweyl import cli, iqg, operators, polymod
from qweyl.iqg import ISubst
from qweyl.scalars import qpow
from qweyl.weyl import EndoSpec

CLEAN = {
    ("jmath", 1, 1): "c40466d4dd5cbf19df618817b5061d78d761a035b596e19f18789efb22c5b74d",
    ("jmath", 1, -1): "411183b92213243ef3287303bc5208c58a36547160393e129f31ec49e2830f72",
    ("jmath", 2, 1): "6944f7661c7d8727507ce90759ebe1fd4a59cff0990bc3e94d2b5d5107c831cb",
    ("jmath", 2, -1): "b171bdd5ce04177b07332b4b9887df8f749337851ec0048b031ac12f5610fe96",
    ("jmath", 3, 1): "c9f06595120ae111c6c0fcec792955fc975d8daf79005210e60d5e6a7ce2c255",
    ("jmath", 3, -1): "19b8f4a83ea1d42a8a58f9df8635d7d98b74c255c241653c0cb3c206fddeb15b",
    ("imath", 1, 1): "16cdbceb02eb431d30b49cd54de7690e07400e91a3e5bfae396992dec72a2156",
    ("imath", 1, -1): "9c28459864eca8e8464ad5b4d7b32114738d611114df370aca51845acf3cac95",
    ("imath", 2, 1): "e1ca19989bf0eb5b1aa1426cf0e544539fdebcc72a651c786e29a1fc4167a591",
    ("imath", 2, -1): "3b4e93b69bdbd51e18b4dfc2e9ec2d14086271f7476bb8c9be7daa43945fbe38",
    ("imath", 3, 1): "6b6c9c7fb1339f180dd34374e8968c87c24b0b8e1a3ed5f9e8538e98e296a1dd",
    ("imath", 3, -1): "607d8d31ebc6e361502591ff5d5b49a5abf2e7bd16bb1a72c9550fc2f9006259",
}

# Digests of the jmath rank-3, e = +1 report under each mutation below.
MUTATED = {
    "braid_op-flip": "31d2c52d1e7e9076356a4c4422daac9334fa46e31b01567e30016d4993ad29ae",
    "braid_op-shift": "f44e40d1cf639e185b6ce0aff6a6be0bc73e7ca19b3adde253dd502afaa1c40b",
    "tau_subst-flip": "96092b59dbee02032301f17c817a49c314c59a2b1807955961d0bfa44f4d307e",
    "tcal-shift": "51b37a4889e530fdb9d9cb2039fe8741899f3efebe2bac2c1f89938f6f722ab8",
}


def _pinned(v, i):
    return (v.kind == "jmath" and i == v.rank) or (v.kind == "imath" and i == v.rank + 1)


def _flip_braid_op(real):
    """T'_{i,e} with the sign of its d_{i+1} image flipped off the pinned index."""

    def mutated(v, i, e, kind):
        spec = real(v, i, e, kind)
        if kind == "prime" and not _pinned(v, i):
            images = dict(spec.images)
            images[("d", i + 1)] = -images[("d", i + 1)]
            spec = EndoSpec(v, images, label=spec.label)
        return spec

    return mutated


def _shift_braid_op(real):
    """Both braid operators at i = 1 with their x_1 image scaled by q."""

    def mutated(v, i, e, kind):
        spec = real(v, i, e, kind)
        if i == 1:
            images = dict(spec.images)
            images[("x", 1)] = images[("x", 1)].scale(qpow(1))
            spec = EndoSpec(v, images, label=spec.label)
        return spec

    return mutated


def _flip_tau_subst(real):
    """tau'_{i,e} with the sign of its B_i image flipped off the pinned index."""

    def mutated(v, i, e, kind):
        s = real(v, i, e, kind)
        if kind == "prime" and not _pinned(v, i):
            images = dict(s.images)
            images[("B", i)] = -images[("B", i)]
            s = ISubst(v, images, label=s.label)
        return s

    return mutated


def _shift_tcal(real):
    """Both polynomial braid operators at i = 1 scaled by q."""

    def mutated(v, i, e, kind):
        rule = real(v, i, e, kind)
        if i != 1:
            return rule
        return lambda terms: {b: c * qpow(1) for b, c in rule(terms).items()}

    return mutated


# name -> (module, patched attribute, wrapper around the real function)
MUTATIONS = {
    "braid_op-flip": (operators, "braid_op", _flip_braid_op),
    "braid_op-shift": (operators, "braid_op", _shift_braid_op),
    "tau_subst-flip": (iqg, "tau_subst", _flip_tau_subst),
    "tcal-shift": (polymod, "tcal_rule", _shift_tcal),
}


def _digest(kind, rank, e):
    argv = [
        "verify", "all", "--variant", kind, "--rank", str(rank), "--e", str(e),
        "--degree", "2", "--format", "json",
    ]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("kind,rank,e", sorted(CLEAN))
def test_clean_report_is_byte_identical(kind, rank, e):
    assert _digest(kind, rank, e) == (0, CLEAN[(kind, rank, e)])


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_failing_report_is_byte_identical(name, monkeypatch):
    module, attr, mutate = MUTATIONS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert _digest("jmath", 3, 1) == (1, MUTATED[name])
