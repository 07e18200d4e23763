"""Central numerical tolerances and size caps.

Every module reads its defaults from the single ``TOL`` instance below, so a
study that needs looser or tighter numerics can adjust one place.  The test
suite pins the default values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Tolerances:
    # Validation tolerances
    hermitian_atol: float = 1e-10   # max |A - A^dag| accepted (then symmetrized)
    unit_norm_atol: float = 1e-9    # state-vector normalization
    trace_atol: float = 1e-9        # density-matrix trace
    psd_atol: float = 1e-8          # density eigenvalues >= -psd_atol
    jump_norm_atol: float = 1e-9    # jump operator norm <= 1 + this

    # Spectral bookkeeping
    cluster_rtol: float = 1e-9      # eigenvalue clustering, relative to ||H||

    # Series truncation (lattice Gaussian / theta sums); single knob, chosen
    # below the double-precision resolution of the dominant term
    series_cutoff: float = 1e-16

    # Choi-commutation check, relative to the generator-term scale
    choi_commute_tol: float = 1e-9

    # Size caps
    vectorized_cap: int = 4096      # dim^2 cap for the vectorized propagator
    dense_reference_cap: int = 2 ** 14   # register_dim * system_dim for the circuit oracle


TOL = Tolerances()
