"""Exact character-sum engine over finite fields.

Multiplicative characters, Jacobi sums, scaled binomial coefficients, the
Gauss 2F1 point/character sums and their two-variable Appell-type
counterpart, plus a registry of algebraic identities with an exhaustive
and seeded-sampling verifier. All values are exact elements of
Z[zeta_{q-1}]; nothing is ever evaluated in floating point.
"""

from .cyclotomic import (
    CycInt,
    cyclotomic_poly,
    cyc_one,
    cyc_zero,
    euler_phi,
    root_of_unity,
)
from .fields import (
    DEFAULT_TABLE_CAP,
    FieldElement,
    FieldParams,
    FieldTable,
    build_field,
    is_prime,
    prime_power_decompose,
)
from .characters import (
    Character,
    all_characters,
    binom,
    binomial_table,
    delta_char,
    delta_elem,
    jacobi_sum,
    trivial_character,
)
from .hypergeometric import (
    AppellF1Params,
    Hyp2F1Params,
    appell_f1_char_sum,
    appell_f1_point_sum,
    f21_char_sum,
    f21_point_sum,
)
from .identities import IdentityCase, get_identity, registry
from .verifier import VerifyReport, verify, verify_all

__version__ = "0.1.0"

__all__ = [
    "AppellF1Params",
    "Character",
    "CycInt",
    "DEFAULT_TABLE_CAP",
    "FieldElement",
    "FieldParams",
    "FieldTable",
    "Hyp2F1Params",
    "IdentityCase",
    "VerifyReport",
    "all_characters",
    "appell_f1_char_sum",
    "appell_f1_point_sum",
    "binom",
    "binomial_table",
    "build_field",
    "cyc_one",
    "cyc_zero",
    "cyclotomic_poly",
    "delta_char",
    "delta_elem",
    "euler_phi",
    "f21_char_sum",
    "f21_point_sum",
    "get_identity",
    "is_prime",
    "jacobi_sum",
    "prime_power_decompose",
    "registry",
    "root_of_unity",
    "trivial_character",
    "verify",
    "verify_all",
]
