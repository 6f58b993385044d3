"""Spin tomograms, measurement directions, and unitary-mixture channels.

A unitary rotation of the measurement frame acts on probability triples as an
affine map p' = L p + C: L is the SO(3) adjoint rotation
R_ij = Tr(sigma_i u sigma_j u^dagger) / 2 of the Bloch vector, and C keeps the
ball center fixed. Convex mixtures of unitaries give contractive affine maps,
which is the whole channel picture in these coordinates. The closed form is
the one production route; its oracle, the probe-state fit in diagnostics, runs
only when a caller passes formula_tol, and then only to warn of a mismatch.
One kernel, _adjoint_rotation, computes R from a unitary's entries, and the
maps and channels hold Python numbers, so they load no numpy on Python input.
AffineMap3's constructor and then refuse a map with an entry that is not
finite; rotation_from_unitary and channel_map hold their kernel's floats
without that scan, as the unitarity guard bounds u's entries, and so every
R_ij and C_i, and ChannelSpec bounds the weights. channel_map takes a
ChannelSpec and nothing else, so each term it sums has passed both guards.
AffineMap3.apply, AffineMap3.then and channel_map are straight-line float
arithmetic on the unpacked entries: each result is the same float operations,
in the same order, as the row sums L p + C, the product of other's rows with
self's [L | C], and the weighted sum from zero in term order, so each bit is
what those sums give.
"""

from __future__ import annotations

import math

from . import matrix_oracle, qubit_core
from ._numpy import np
from ._record import Record, _set
from .diagnostics import FormulaCheck, checked_map, component_checks, rotation_oracle
from .errors import DomainError
from .qubit_core import ProbTriple, _as_float, _floats, _sum_of_products

TWO_PI = 2.0 * math.pi
ROTATION_FORMULA_TOL = 1e-9
WEIGHT_TOL = 1e-12
DIRECTION_NORM_TOL = 1e-10


class Direction(Record):
    """Measurement direction given by Euler angles, in radians.

    theta must lie in [0, pi], phi and psi in [0, 2*pi); out-of-range values
    are rejected rather than wrapped. The unit vector ignores psi, which only
    rotates the frame about the direction itself.
    """

    __slots__ = ("theta", "phi", "psi")

    def __init__(self, theta: float, phi: float, psi: float = 0.0):
        theta, phi, psi = _as_float(theta), _as_float(phi), _as_float(psi)
        if not 0.0 <= theta <= math.pi:
            raise DomainError(f"theta = {theta!r} outside [0, pi]")
        if not 0.0 <= phi < TWO_PI:
            raise DomainError(f"phi = {phi!r} outside [0, 2*pi)")
        if not 0.0 <= psi < TWO_PI:
            raise DomainError(f"psi = {psi!r} outside [0, 2*pi)")
        _set(self, "theta", theta)
        _set(self, "phi", phi)
        _set(self, "psi", psi)

    def _unit(self) -> tuple[float, float, float]:
        s = math.sin(self.theta)
        return s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.theta)

    def unit_vector(self) -> np.ndarray:
        return np.array(self._unit())


def _unit_vector(direction) -> tuple[float, float, float]:
    """A Direction's unit vector, or a raw length-3 vector checked for unit length, as three floats."""
    if isinstance(direction, Direction):
        return direction._unit()
    n = _floats(direction, (3,), "direction must be a Direction or a length-3 vector")
    norm = math.hypot(*n)
    if not abs(norm - 1.0) <= DIRECTION_NORM_TOL:
        raise DomainError(f"direction vector must have unit length, got |n| = {norm!r}")
    return n


def state_tomogram(p: ProbTriple, direction, tol: float = qubit_core.DEFAULT_TOL) -> tuple[float, float]:
    """Probabilities of spin projection +1/2 and -1/2 along the direction.

    Equals the diagonal of u rho u^dagger for the matching frame unitary;
    the pair sums to one by construction.
    """
    qubit_core.require_physical(p, tol)
    return _tomogram(p, direction)


def _tomogram(p: ProbTriple, direction) -> tuple[float, float]:
    """w+ = 1/2 + (p - c) . n as 1/2 + p . n - sum_k n_k / 2, one exact sum correctly rounded, and w- = 1 - w+.

    p's fields are Python floats, as ProbTriple reads them, so Veltkamp's split in the sum is exact.
    """
    n = _unit_vector(direction)
    terms, pairs = [0.5], [(p.p1, n[0]), (p.p2, n[1]), (p.p3, n[2])]
    for n_k in n:  # -n_k / 2 rounds only near the subnormals, where the product n_k * (-1/2) stays exact
        if -0.5 * n_k * -2.0 == n_k:
            terms.append(-0.5 * n_k)
        else:
            pairs.append((n_k, -0.5))
    w_plus = _sum_of_products(terms, pairs)
    return w_plus, 1.0 - w_plus


class AffineMap3(Record):
    """Affine action p -> L p + C on probability triples, held as finite floats.

    linear is L's three rows and offset is C, read through qubit_core._floats and scanned for finiteness by the
    constructor (rotation_from_unitary and channel_map skip both, and say why); L and C are fresh arrays on each
    access.
    """

    __slots__ = ("linear", "offset")

    def __init__(self, linear, offset):
        _affine_map(_floats(linear, (3, 3), "an affine map's L needs shape (3, 3)"),
                    _floats(offset, (3,), "an affine map's C needs shape (3,)"), self)

    @property
    def L(self) -> np.ndarray:
        return np.array(self.linear)

    @property
    def C(self) -> np.ndarray:
        return np.array(self.offset)

    def apply(self, p: ProbTriple) -> ProbTriple:
        (l11, l12, l13), (l21, l22, l23), (l31, l32, l33) = self.linear
        c1, c2, c3 = self.offset
        x, y, z = p.p1, p.p2, p.p3
        return ProbTriple(l11 * x + l12 * y + l13 * z + c1, l21 * x + l22 * y + l23 * z + c2,
                          l31 * x + l32 * y + l33 * z + c3)

    def then(self, other: "AffineMap3") -> "AffineMap3":
        """Map equivalent to applying self first, then other: other's rows times self's [L | C], plus other's C."""
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = self.linear
        c1, c2, c3 = self.offset
        (o11, o12, o13), (o21, o22, o23), (o31, o32, o33) = other.linear
        k1, k2, k3 = other.offset
        return _affine_map(
            ((o11 * a11 + o12 * a21 + o13 * a31, o11 * a12 + o12 * a22 + o13 * a32, o11 * a13 + o12 * a23 + o13 * a33),
             (o21 * a11 + o22 * a21 + o23 * a31, o21 * a12 + o22 * a22 + o23 * a32, o21 * a13 + o22 * a23 + o23 * a33),
             (o31 * a11 + o32 * a21 + o33 * a31, o31 * a12 + o32 * a22 + o33 * a32, o31 * a13 + o32 * a23 + o33 * a33)),
            ((o11 * c1 + o12 * c2 + o13 * c3) + k1, (o21 * c1 + o22 * c2 + o23 * c3) + k2,
             (o31 * c1 + o32 * c2 + o33 * c3) + k3))


def _affine_map(linear: tuple, offset: tuple, m: AffineMap3 | None = None) -> AffineMap3:
    """m, or a new AffineMap3, set to L's float rows and C, with DomainError if an entry is not finite.

    A map from a caller, AffineMap3(L, C), and a product of maps, which can overflow, pass this scan;
    rotation_from_unitary and channel_map, whose entries the guards bound, go to _hold directly.
    """
    if not all(map(math.isfinite, (*linear[0], *linear[1], *linear[2], *offset))):
        raise DomainError(f"affine map must be finite, got L = {linear!r}, C = {offset!r}")
    return _hold(linear, offset, m)


def _hold(linear: tuple, offset: tuple, m: AffineMap3 | None = None) -> AffineMap3:
    """m, or a new AffineMap3, set to L's float rows and C as given: the caller knows each entry is finite."""
    m = AffineMap3.__new__(AffineMap3) if m is None else m
    _set(m, "linear", linear)
    _set(m, "offset", offset)
    return m


def _adjoint_rotation(rows) -> tuple[tuple, tuple[float, float, float]]:
    """R_ij = Tr(sigma_i u sigma_j u^dagger) / 2 and C = (I - R) c, from the entries ((a, b), (c, d)) of any 2x2 u.

    With P = d a*, Q = c b*, S = a b* - c d* and T = c a* - d b*: R = [[Re(P+Q), Im(Q-P), Re T], [Im(P+Q),
    Re(P-Q), Im T], [Re S, Im S, (|a|^2 - |b|^2 - |c|^2 + |d|^2) / 2]], each entry one math.fsum of real products.
    """
    (a, b), (c, d) = rows
    ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    fsum = math.fsum
    R = ((fsum((dr * ar, di * ai, cr * br, ci * bi)), fsum((ci * br, -(cr * bi), -(di * ar), dr * ai)),
          fsum((cr * ar, ci * ai, -(dr * br), -(di * bi)))),
         (fsum((di * ar, -(dr * ai), ci * br, -(cr * bi))), fsum((dr * ar, di * ai, -(cr * br), -(ci * bi))),
          fsum((ci * ar, -(cr * ai), -(di * br), dr * bi))),
         (fsum((ar * br, ai * bi, -(cr * dr), -(ci * di))), fsum((ai * br, -(ar * bi), -(ci * dr), cr * di)),
          0.5 * fsum((ar * ar, ai * ai, -(br * br), -(bi * bi), -(cr * cr), -(ci * ci), dr * dr, di * di))))
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = R
    return R, (0.5 - 0.5 * ((r11 + r12) + r13), 0.5 - 0.5 * ((r21 + r22) + r23), 0.5 - 0.5 * ((r31 + r32) + r33))


def _rotation(rows, formula_tol: float | None) -> tuple[tuple, tuple[float, float, float]]:
    """Closed-form (L, C) of one validated unitary, warned about if it fails its probe-fit oracle."""
    closed = _adjoint_rotation(rows)
    if formula_tol is not None:
        checked_map(closed, rotation_oracle(np.array(rows)), formula_tol, "rotation")
    return closed


def rotation_formula_checks(u, tol: float = ROTATION_FORMULA_TOL) -> list[FormulaCheck]:
    """Compare every closed-form (L, C) component against the probe construction."""
    rows = matrix_oracle._unitary_rows(u)
    return component_checks(_adjoint_rotation(rows), rotation_oracle(np.array(rows)), tol)


def rotation_from_unitary(u, formula_tol: float | None = None) -> AffineMap3:
    """Affine action of conjugation by a single unitary on probability triples.

    The map is the closed-form adjoint rotation of u's entries; given formula_tol,
    it is also checked against the fit through four probe states of the matrix
    route: a component off by more names itself in a FormulaMismatchWarning.

    The map holds the kernel's floats without _affine_map's finiteness scan,
    as no entry can be infinite or NaN: the unitarity guard accepted a defect
    of at most UNITARY_TOL <= 1, which bounds every entry of u by sqrt(2), the
    argument _unitarity_defect makes to skip its size scan. So each R_ij, one
    fsum of four or eight products of at most 2, and each C_i are finite.
    """
    return _hold(*_rotation(matrix_oracle._unitary_rows(u), formula_tol))


class ChannelSpec(Record):
    """Convex mixture of unitary conjugations as (weight, entries) pairs, each unitary's rows of complex numbers."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        try:
            count = len(terms)
        except TypeError:
            raise DomainError(f"a channel needs a sequence of (weight, unitary) terms, got {terms!r}") from None
        if count == 0:
            raise DomainError("a channel needs at least one (weight, unitary) term")
        cleaned, total = [], 0.0
        for k, term in enumerate(terms):
            try:
                weight, u = term
            except (TypeError, ValueError):
                raise DomainError(f"channel term {k} must be a (weight, unitary) pair, got {term!r}") from None
            w = _as_float(weight)
            if not w >= -WEIGHT_TOL:
                raise DomainError(f"channel weight {k} is negative or NaN ({w!r})")
            cleaned.append((w, tuple(map(tuple, matrix_oracle._unitary_rows(u, name=f"channel unitary {k}")))))
            total += w
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise DomainError(f"channel weights must sum to 1, got {total!r}")
        _set(self, "terms", tuple(cleaned))


def channel_map(spec: ChannelSpec, formula_tol: float | None = None) -> AffineMap3:
    """Weighted sum of the per-unitary affine maps; a contraction on the ball.

    spec must be a ChannelSpec, or DomainError names what it is. Each unitary,
    already validated by ChannelSpec, becomes its rotation as in
    rotation_from_unitary, formula_tol and all, and the sum adds w * R and
    w * C term by term from zero.

    The map holds the sum without _affine_map's finiteness scan, as no partial
    sum can overflow. ChannelSpec accepted each weight >= -WEIGHT_TOL with
    |sum w - 1| <= WEIGHT_TOL, so sum |w| <= 1 + (2n + 1) WEIGHT_TOL over n
    terms. Each unitary passed the guard, so by rotation_from_unitary's
    argument its entries are at most sqrt(2), each |R_ij| at most 8 and each
    |C_i| at most 12.5, and every partial sum of w * R_ij or w * C_i is finite.
    """
    if not isinstance(spec, ChannelSpec):
        raise DomainError(f"channel_map needs a ChannelSpec, got {spec!r}")
    l11 = l12 = l13 = l21 = l22 = l23 = l31 = l32 = l33 = c1 = c2 = c3 = 0.0
    for w, rows in spec.terms:
        ((r11, r12, r13), (r21, r22, r23), (r31, r32, r33)), (k1, k2, k3) = _rotation(rows, formula_tol)
        l11 += w * r11
        l12 += w * r12
        l13 += w * r13
        l21 += w * r21
        l22 += w * r22
        l23 += w * r23
        l31 += w * r31
        l32 += w * r32
        l33 += w * r33
        c1 += w * k1
        c2 += w * k2
        c3 += w * k3
    return _hold(((l11, l12, l13), (l21, l22, l23), (l31, l32, l33)), (c1, c2, c3))
