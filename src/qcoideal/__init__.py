"""Exact symbolic computation for quantized enveloping algebras and
quantum symmetric pair coideal subalgebras.

The package decides structural identities of the coideal generators
(inhomogeneous quantum Serre relations, skew-derivation and braid-operator
interplay) and, for concrete parameter families, whether the intrinsic bar
involution of the coideal subalgebra exists.
"""

from .scalars import (
    Scalar,
    GaussianRational,
    is_bar_fixed,
    qbinom_eps,
    qint,
    qfact,
    qshifted_factorial,
)
from .cartan import (
    CartanDatum,
    AdmissiblePair,
    AdmissibleError,
    FiniteTypeError,
    cartan_datum,
    datum_from_json,
    datum_to_json,
    enumerate_admissible,
    longest_word,
    rho_check_pairing,
    validate_admissible,
    admissible_violations,
    pair_to_json,
)
from .uqg import (
    Element,
    Tensor,
    ZeroTestGuardError,
    adjoint_E,
    antipode,
    bar_element,
    coproduct,
    coproduct_graded,
    counit,
    equals,
    is_zero,
    omega,
    serre_polynomial,
    sigma,
    skew_ir,
    skew_r,
    tensor_equals,
    tensor_is_zero,
    zero_test_guard,
)
from .braid import BraidOperator, apply_braid, apply_word, inverse_word, braid_T
from .qsp import (
    MembershipError,
    NoClosedFormulaError,
    QSPParameters,
    QSPContext,
    b_generator,
    c_closed,
    c_closed_torus,
    c_oracle,
    context_for,
    in_set_C,
    in_set_S,
    s_value,
    serre_projection,
    w_element,
)
from .barcheck import (
    BarReport,
    EngineInconsistencyError,
    OutOfScopeError,
    ad_x,
    bar_exists,
    canonical_params,
    check_ocZ,
    corollary_conditions,
    equiv_D,
    equiv_S,
    in_set_D,
    nu_sign,
)

__version__ = "0.1.0"
