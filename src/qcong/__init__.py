"""Exact verification of q-analog binomial congruences over Z[q].

The package computes q-numbers, Gaussian binomial coefficients and
q-harmonic sums in exact integer-polynomial arithmetic and mechanically
checks the classical and q-analog congruences built on them, centrally
the q-analog of Ljunggren's congruence modulo ([p]_q)^3.
"""

from .congruence import (
    CongruenceContext,
    DenominatorNotUnitError,
    q_double_harmonic,
    q_harmonic_sum,
)
from .poly import (
    NonMonicDivisorError,
    NotDivisibleError,
    Poly,
    gcd_primitive,
)
from .qanalogs import (
    NotPrimeError,
    is_prime,
    modulus,
    q_binomial,
    q_number,
)
from .statements import (
    STATEMENT_IDS,
    CheckResult,
    PrecondViolationError,
    check_clark,
    check_classical,
    check_cong2,
    check_convolution_identity,
    check_double_harmonic,
    check_expansion_identity,
    check_jacobsthal,
    check_power_reduction,
    check_q_ljunggren,
    check_q_wolstenholme,
    check_qchu,
    check_shipan,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CongruenceContext",
    "DenominatorNotUnitError",
    "NonMonicDivisorError",
    "NotDivisibleError",
    "NotPrimeError",
    "Poly",
    "STATEMENT_IDS",
    "check_clark",
    "check_classical",
    "check_cong2",
    "check_convolution_identity",
    "check_double_harmonic",
    "check_expansion_identity",
    "check_jacobsthal",
    "check_power_reduction",
    "check_q_ljunggren",
    "check_q_wolstenholme",
    "check_qchu",
    "check_shipan",
    "gcd_primitive",
    "is_prime",
    "modulus",
    "q_binomial",
    "q_double_harmonic",
    "q_harmonic_sum",
    "q_number",
]
