"""quinticlab: a numerical laboratory for quintic root resolvents.

Given an ordered tuple of five complex roots, the package evaluates a
sine-weighted degree-5 form whose even-relabeling orbit has exactly twelve
values in six sign pairs, fits the three-parameter sextic those squared
values satisfy (with genuine over-determination residuals), verifies that the
fitted coefficients are two-valued under relabeling parity, and builds the
principal-form quintic z^5 + p z^3 + q z + r through the five values of a
product of family differences.

Every relabeling sweep goes through one batched numpy kernel
(:mod:`quinticlab.kernels`); the package is pure Python.
"""

__version__ = "0.1.0"

from .clustering import cluster_values
from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    NumericFailureError,
    QuinticLabError,
    VerificationFailureError,
)
from .ffamily import (
    FFamily,
    OrbitReport,
    RelationReport,
    a5_orbit,
    f_family,
    relation_rank,
)
from .instances import InstanceSpec, load_instance_file, random_instance
from .polynomials import (
    MonicPoly,
    find_roots,
    is_degenerate,
    poly_from_roots,
    power_sums,
    sqrt_discriminant,
)
from .principal import (
    PhiFamily,
    PowerSumCheck,
    PrincipalQuintic,
    phi_quintic,
    phi_values,
    power_sum_check,
)
from .resolvent import (
    ResolventCoeffs,
    TwoValuednessReport,
    degree12_poly,
    fit_abc,
    resolvent_form_residual,
    sextic_from_family,
    two_valuedness_check,
)
from .verify import run_verify

__all__ = [
    "__version__",
    # errors
    "QuinticLabError",
    "InvalidInputError",
    "DegenerateInstanceError",
    "NumericFailureError",
    "VerificationFailureError",
    # polynomials
    "MonicPoly",
    "poly_from_roots",
    "find_roots",
    "power_sums",
    "sqrt_discriminant",
    "is_degenerate",
    # family and orbit
    "FFamily",
    "OrbitReport",
    "RelationReport",
    "f_family",
    "a5_orbit",
    "relation_rank",
    "cluster_values",
    # resolvent
    "ResolventCoeffs",
    "TwoValuednessReport",
    "sextic_from_family",
    "fit_abc",
    "resolvent_form_residual",
    "degree12_poly",
    "two_valuedness_check",
    # principal form
    "PhiFamily",
    "PrincipalQuintic",
    "PowerSumCheck",
    "phi_values",
    "phi_quintic",
    "power_sum_check",
    # instances and verification
    "InstanceSpec",
    "load_instance_file",
    "random_instance",
    "run_verify",
]
