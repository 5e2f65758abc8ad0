"""Cooling a continuously measured harmonic oscillator with filtered feedback.

The package is organized into seven modules:

* :mod:`filtercool.numerics` -- dense matrix kernel and deterministic RNG,
* :mod:`filtercool.filters` -- state-space filter realizations (M, b),
* :mod:`filtercool.moment_systems` -- exact ensemble moment ODE systems,
* :mod:`filtercool.analytics` -- closed-form asymptotic energies,
* :mod:`filtercool.trajectory` -- stochastic Monte Carlo: a classical and a
  state-vector engine; a mixed start is sampled as pure states,
* :mod:`filtercool.phase_diagram` -- protocol winner maps over (gamma, Omega),
* :mod:`filtercool.cli` -- command-line interface.
"""

from .analytics import (
    EnergyResult,
    best_protocol_largeOmega,
    energy_1layer,
    energy_2layer,
    energy_2layer_largeOmega,
    energy_3layer,
    energy_3layer_largeOmega,
    energy_bandpass,
)
from .filters import (
    FilterModel,
    KernelSpec,
    bandpass,
    impulse_response,
    kernel_filter,
    lowpass_cascade,
    stationary_statistics,
    transfer_function,
)
from .moment_systems import (
    MomentSystem,
    ProtocolKind,
    ProtocolParams,
    SteadyState,
    build_bandpass_moments,
    build_moment_system,
    build_single_layer,
    build_three_layer,
    build_two_layer,
    evolve,
    steady_state,
)
from .numerics import (
    NoiseStream,
    NumericalError,
    SingularMatrixError,
    UnstableSystemError,
    eigenvalues,
    propagate_affine,
    solve_linear,
)
from .phase_diagram import GridSpec, PhaseGridResult, export_phase_csv, sweep
from .trajectory import (
    QuantumState,
    ShiftedTrapFeedback,
    SystemModel,
    TrajectoryConfig,
    TrajectoryRecord,
    build_truncated_oscillator,
    frozen_signal_model,
    measurement_only_model,
    oscillator_cooling_model,
    run_ensemble,
)

__version__ = "0.1.0"
