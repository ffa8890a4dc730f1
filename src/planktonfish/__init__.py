"""Numerical stability toolkit for the two-delay plankton-fish model."""

from .certificate import (CertificateOptions, LKCertificate, assemble_C,
                          build_certificate, check_generic_certificate,
                          choose_rates, eval_K)
from .errors import (CertificateError, DomainError, IntegrationError,
                     ParameterError)
from .model import (EquilibriumSet, LinearizedSystem, ModelParams,
                    classify_equilibria, derive_params, eval_nonlinear,
                    linearize, plankton_only_point, rhs)
from .simulate import (History, Trajectory, check_positivity_boundedness,
                       default_step, integrate)
from .spectrum import (RootReport, StabilityVerdict, eval_Q, eval_factors,
                       lemma_classify, root_scan)
from .symmat import is_positive_definite
from .verify import (ExtendedHistory, TheoremReport, check_differential_inequality,
                     check_envelope, check_initial_conditions, eval_V0,
                     eval_V_along, extend_history, gronwall_bound,
                     predicted_envelope)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
