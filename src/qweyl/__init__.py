"""Exact modified q-Weyl algebra computations and verification suites."""

__version__ = "0.1.0"

from .scalars import QScalar, from_int, from_frac, qpow, qint, qfact, qdoublefact
from .satake import Variant, cartan
from .expressions import FreeExpr, qcomm
from .weyl import (
    EndoSpec,
    WeylElement,
    check_weyl_relations,
    generator_letters,
    reduce_expr,
    reduce_word,
)
from .operators import (
    braid_op,
    check_braid_suite,
    check_omega_commutes,
    check_well_defined,
    omega_op,
    psi_op,
)
from .iqg import (
    check_intertwine,
    check_phi_relations,
    iqg_letters,
    omega_subst,
    phi,
    phi_spec,
    psi_subst,
    tau_subst,
)
from .polymod import (
    PolyElement,
    act,
    act_word,
    check_iu_module,
    check_module_homomorphism,
    check_tcal_suite,
    tcal,
)
from .parser import ParseError, parse
from .report import make_report, report_json, report_text
