"""Desk-scale simulation lab for fast-forwarded dephasing Lindbladians,
counting-based and Kravchuk-transform phase estimation, Gibbs-state
preparation, and commuting-generator noise channels."""

__version__ = "0.1.0"

from .errors import CapacityError, InvariantError, ValidationError
from .numkernel import CostReport, default_steps
from .channel import Channel, FFPlan, evolve, plan
from .gibbs import GibbsResult, gibbs_prepare
from .model import (Hamiltonian, LindbladSpec, SpectralState, SpectrumMap,
                    decompose_state, lindblad_spec,
                    normalize_spectrum, parse_dense_matrix,
                    parse_pauli_sum, spectral_gap)
from .qpe import (AmplitudeDecision, AmplitudeProblem, EstimationResult,
                  PreparationResult, amplitude_problem, decide_amplitude, estimate,
                  prepare)
from .choi import choi_ff_evolve, is_choi_commuting
from .concentration import bernstein_bound, binomial_tail, hoeffding_bound
from .stateprep import (GaussianParams, binomial_amplitudes,
                        binomial_gaussian_distance, discrete_gaussian_amplitudes,
                        f_mu_sigma, kw_angle_schedule)
