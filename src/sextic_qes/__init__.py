"""Exact (quasi-exactly-solvable) spectra of the sextic doubly anharmonic oscillator."""

from .errors import (
    ConstraintViolationError,
    InvalidCouplingError,
    NoSolutionError,
    NonEigenvalueError,
    QesError,
    SolverError,
    VerificationError,
    WeightMismatchError,
)
from .params import (
    CouplingParams,
    QesIndex,
    ReducedParams,
    constraint_gamma,
    reduce,
    solve_constraint,
    solve_cubic_trig,
)
from .qes_core import (
    QesSpectrum,
    QesState,
    RecurrenceMatrix,
    build_recurrence_matrix,
    coefficients_from_energy,
    solve_quartic_real,
    spectrum,
    spectrum_closed_form,
)
from .wavefunction import (
    Eigenfunction,
    NodeReport,
    count_nodes,
    eval_psi,
    norm_and_inner,
    normalized,
    ode_residual,
)
from .oracle import (
    GridSpec,
    OracleReport,
    default_grid,
    lowest_eigenvalues,
    verify_qes,
)

__version__ = "0.1.0"
