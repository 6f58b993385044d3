"""Reference route for the benchmark checks, computed from numpy density matrices.

Nothing here imports qprob. States are 2x2 density matrices, probabilities
are projector expectations Tr(rho Pi_n) with Pi_n = (I + n.sigma)/2, unitary
evolution is exp(iHt) built from numpy.linalg.eigh, channels are explicit
mixtures sum_k w_k U_k rho U_k^dagger, and the triangle geometry is computed
from coordinates. The benchmark compares qprob's outputs against these values
and against the invariants the probability representation must keep.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ElementTree

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
AXES = np.eye(3)


def projector(n) -> np.ndarray:
    """Pi_n = (I + n.sigma)/2, the projector onto spin +1/2 along the unit vector n."""
    return 0.5 * (I2 + sum(float(c) * s for c, s in zip(n, PAULI)))


def tomogram(rho, n) -> float:
    """Tr(rho Pi_n): probability of spin +1/2 along n."""
    return float(np.trace(rho @ projector(n)).real)


_AXIS_PROJECTORS = np.stack([projector(axis) for axis in AXES])


def triples_of(rhos) -> np.ndarray:
    """Probabilities of spin +1/2 along x, y and z for density matrices of shape (..., 2, 2)."""
    return np.einsum("...ij,kji->...k", np.asarray(rhos, dtype=complex), _AXIS_PROJECTORS).real


def density(p) -> np.ndarray:
    """rho = (I + sum_k (2 p_k - 1) sigma_k)/2, the state whose triple is p."""
    p = np.asarray(p, dtype=float)
    return 0.5 * (I2 + sum((2.0 * pk - 1.0) * s for pk, s in zip(p, PAULI)))


def ball_residual(p) -> float:
    """det(rho): nonnegative for physical triples, zero on the pure-state sphere."""
    return float(np.linalg.det(density(p)).real)


def unit_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


def conjugate(u, rho) -> np.ndarray:
    return u @ rho @ u.conj().T


def mixture(terms, rho) -> np.ndarray:
    """sum_k w_k U_k rho U_k^dagger for (w_k, U_k) pairs."""
    return sum(w * conjugate(u, rho) for w, u in terms)


def expm_i(h, t) -> np.ndarray:
    """exp(iHt) for Hermitian H via eigh; t may be an array of times (result (..., 2, 2))."""
    lam, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    phases = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), lam))
    return np.einsum("ij,...j,kj->...ik", v, phases, v.conj())


def heisenberg(a0, h, t) -> np.ndarray:
    """A(t) = exp(iHt) A(0) exp(-iHt); t may be an array of times."""
    u = expm_i(h, t)
    return u @ np.asarray(a0, dtype=complex) @ np.conj(np.swapaxes(u, -1, -2))


def embed(h, x: float) -> np.ndarray:
    """rho(x) = (H + xI)/(Tr H + 2x)."""
    h = np.asarray(h, dtype=complex)
    return (h + x * I2) / (float(np.trace(h).real) + 2.0 * x)


def spectral_norm(h) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(np.asarray(h, dtype=complex)))))


def rotation_parts_orthogonal(L, tol: float) -> bool:
    L = np.asarray(L, dtype=float)
    return bool(np.max(np.abs(L.T @ L - np.eye(3))) <= tol)


# Reference triangle of side sqrt(2), counterclockwise, for the chord picture.
_SIDE = math.sqrt(2.0)
_CORNERS = np.array([[0.0, 0.0], [_SIDE, 0.0], [0.5 * _SIDE, 0.5 * math.sqrt(6.0)]])


def chord_picture(p) -> tuple[np.ndarray, np.ndarray, float]:
    """Vertices at fraction p_k along side k, chord lengths, and summed square area."""
    p = np.asarray(p, dtype=float)
    ends = np.roll(_CORNERS, -1, axis=0)
    vertices = _CORNERS + p[:, None] * (ends - _CORNERS)
    chords = np.roll(vertices, -1, axis=0) - vertices
    lengths = np.hypot(chords[:, 0], chords[:, 1])
    return vertices, lengths, float(np.sum(lengths * lengths))


def svg_ok(text: str) -> bool:
    """The text parses as XML and its root element is an SVG document."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError:
        return False
    return root.tag == "{http://www.w3.org/2000/svg}svg"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and the infinities; raises ValueError on bad input."""
    return json.loads(text, parse_constant=_reject_constant)


def csv_rows(text: str, header: str) -> np.ndarray:
    """Parse a numeric CSV with the given header line; raises ValueError on bad input."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header is {lines[:1]!r}, expected {header!r}")
    width = header.count(",") + 1
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != width for r in rows):
        raise ValueError("CSV rows are missing or ragged")
    values = np.array(rows)
    if not np.all(np.isfinite(values)):
        raise ValueError("CSV holds non-finite values")
    return values
