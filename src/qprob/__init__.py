"""Probability representation of qubit states, observables, channels, and evolution.

A qubit density matrix is held as three probabilities (p1, p2, p3), each the
chance of the +1/2 outcome of a spin projection along x, y, z. The package
maps Hermitian observables into pairs of such triples, computes spin
tomograms, expresses unitary rotations and unital channels as affine maps of
the triple, integrates the kinetic equation in probability coordinates, and
draws the triangle-and-square pictures that visualize a triple.

Importing the package imports no numpy: the array constants (IDENTITY, the
Pauli matrices, BALL_CENTER) are built on first access, and numpy is loaded
by the first call that builds an array. Nor does it import the standard
library's class generator or the inspect module it pulls in: the nine value
classes (ProbTriple, ObservableProbRep, Direction, AffineMap3, ChannelSpec,
KineticSystem, Trajectory, TrianglePicture, FormulaCheck) are frozen classes
with __slots__ and their own __init__, on the small base in _record. So the
generator's helpers (fields, replace, asdict) do not apply to them; the
constructor builds a changed value. import qprob.cli takes about 9 ms with
the bytecode cache on, and 28 to 39 ms without one, when every module is
compiled from source, as under PYTHONDONTWRITEBYTECODE=1 with no
__pycache__ (x86-64 Linux, Python 3.11).
"""

from . import matrix_oracle, qubit_core
from ._numpy import lazy_constants
from .diagnostics import FormulaCheck, euler_unitary, expm_hermitian_generator, failed_checks, heisenberg_exact
from .errors import DomainError, FormulaMismatchWarning, NonInvertibleEncodingWarning
from .evolution import (
    KineticSystem,
    Trajectory,
    build_kinetic,
    evolve,
    evolve_observable,
    kinetic_formula_checks,
    sample_trajectory,
)
from .figures import render_svg
from .matrix_oracle import (
    eigenvalues_hermitian,
    hermiticity_defect,
    pauli_components,
    require_hermitian,
    require_unitary,
    unitarity_defect,
)
from .observable_map import (
    ObservableProbRep,
    admissible_shift_bound,
    conservative_shift_bound,
    decode_observable,
    default_shifts,
    encode_observable,
    observable_tomogram,
    rho_of_x,
)
from .qubit_core import (
    DEFAULT_TOL,
    GAMMA,
    ProbTriple,
    check_ball,
    density_from_probs,
    is_physical,
    probs_from_density,
    require_physical,
)
from .suprematism_geometry import (
    TrianglePicture,
    area_sum,
    observable_areas,
    triangle_picture,
)
from .tomography_channels import (
    AffineMap3,
    ChannelSpec,
    Direction,
    channel_map,
    rotation_formula_checks,
    rotation_from_unitary,
    state_tomogram,
)

__getattr__ = lazy_constants(
    globals(),
    BALL_CENTER=lambda: qubit_core.BALL_CENTER,
    IDENTITY=lambda: matrix_oracle.IDENTITY,
    SIGMA_X=lambda: matrix_oracle.SIGMA_X,
    SIGMA_Y=lambda: matrix_oracle.SIGMA_Y,
    SIGMA_Z=lambda: matrix_oracle.SIGMA_Z,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap3",
    "BALL_CENTER",
    "ChannelSpec",
    "DEFAULT_TOL",
    "Direction",
    "DomainError",
    "FormulaCheck",
    "FormulaMismatchWarning",
    "GAMMA",
    "IDENTITY",
    "KineticSystem",
    "NonInvertibleEncodingWarning",
    "ObservableProbRep",
    "ProbTriple",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "Trajectory",
    "TrianglePicture",
    "admissible_shift_bound",
    "area_sum",
    "build_kinetic",
    "channel_map",
    "check_ball",
    "conservative_shift_bound",
    "decode_observable",
    "default_shifts",
    "density_from_probs",
    "eigenvalues_hermitian",
    "encode_observable",
    "euler_unitary",
    "evolve",
    "evolve_observable",
    "expm_hermitian_generator",
    "failed_checks",
    "heisenberg_exact",
    "hermiticity_defect",
    "is_physical",
    "kinetic_formula_checks",
    "observable_areas",
    "observable_tomogram",
    "pauli_components",
    "probs_from_density",
    "render_svg",
    "require_hermitian",
    "require_physical",
    "require_unitary",
    "rho_of_x",
    "rotation_formula_checks",
    "rotation_from_unitary",
    "sample_trajectory",
    "state_tomogram",
    "triangle_picture",
    "unitarity_defect",
    "__version__",
]
