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
constructor builds a changed value. Nor does it import diagnostics, the
oracle module that no command uses: a tolerance given to a map builder, or
the first read of qprob.diagnostics or of one of its seven names here
(FormulaCheck, euler_unitary, expm_hermitian_generator, failed_checks,
heisenberg_exact and the two reports, kinetic_formula_checks and
rotation_formula_checks), imports it. One table, _LAZY, names the home
module of each name bound on first read; __getattr__ imports it and binds
the name.
import qprob.cli takes about 7 ms with the bytecode cache on, and about
26 ms without one, when every module is compiled from source, as under
PYTHONDONTWRITEBYTECODE=1 with no __pycache__ (x86-64 Linux, Python 3.11).
"""

from .errors import DomainError, FormulaMismatchWarning, NonInvertibleEncodingWarning
from .evolution import (
    KineticSystem,
    Trajectory,
    build_kinetic,
    evolve,
    evolve_observable,
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
    rotation_from_unitary,
    state_tomogram,
)

# each name bound on first read, and its home module: the array constants, built there on first access, and
# the oracle module and its names, which no command uses
_LAZY = {
    "BALL_CENTER": "qubit_core",
    **dict.fromkeys(("IDENTITY", "SIGMA_X", "SIGMA_Y", "SIGMA_Z"), "matrix_oracle"),
    **dict.fromkeys(("diagnostics", "FormulaCheck", "euler_unitary", "expm_hermitian_generator", "failed_checks",
                     "heisenberg_exact", "kinetic_formula_checks", "rotation_formula_checks"), "diagnostics"),
}


def __getattr__(name):
    """PEP 562: a name of _LAZY, read from its home module, imported first, and bound here; or diagnostics itself."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import ...`: its hasattr test on this package would call this function again
    from importlib import import_module

    home = import_module(f".{_LAZY[name]}", __name__)
    if name == "diagnostics":
        return home
    value = globals()[name] = getattr(home, name)
    return value


def __dir__():
    """The bound names, every public name and the diagnostics submodule, loaded or not."""
    return sorted({*globals(), *__all__, *_LAZY})


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
