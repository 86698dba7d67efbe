"""Weighted eigenbasis for constant-drift reaction-diffusion operators on boxes.

The operator family handled here acts on a box (0,l_1) x ... x (0,l_d) as

    A f = -laplace(f) - b . grad(f) - c f

with constant per-axis drift b and constant reaction c. Multiplying by the
weight mu(x) = exp(b . x) puts the operator in divergence form with
coefficients a_i(x) = mu(x) on every axis and reaction term -c mu(x). The
eigenfunctions separate per axis:

    phi_k(x) = prod_i sqrt(2/l_i) exp(-b_i x_i / 2) sin(k_i pi x_i / l_i)
    lambda_k = sum_i ((k_i pi / l_i)^2 + b_i^2 / 4) - c

and psi_k = mu phi_k forms the bi-orthonormal partner family under the plain
L2 inner product. Everything downstream (lifting, synthesis, certification,
simulation) consumes only eigenvalues, point values and conormal traces, so
this module is the single basis provider.

The modes are arrays: `enumerate_eigenpairs` returns one `ModeTable` holding
the (M, d) multi-indices, the eigenvalues, the multiplicity group ids and the
one normalising constant prod_i sqrt(2/l_i). Slicing a table gives a table.
`eval_phi`, `eval_psi` and `conormal_trace` evaluate a whole table in one
batch and return an (M, npts) array: per axis, the envelope is computed once
and the sine once per wavenumber that occurs, and these factors are
multiplied into the rows in place. `_separable_rows` holds that product; it
is the only place the formula is written, and its per-element order of
operations is the one a mode-by-mode loop would use, so a batch is bit for
bit equal to evaluating the modes one at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss


class DomainError(ValueError):
    """A point lies outside the box or off the requested face."""


class SearchRadiusError(RuntimeError):
    """Eigenvalue enumeration bound proved too small; never truncate silently."""


class PatternError(ValueError):
    """Unstable-mode multiplicity pattern outside the supported shapes."""


class GridSizeError(ValueError):
    """A quadrature rule and its sample table would not fit the byte cap."""


class PlantError(ValueError):
    """A PlantConfig value that no plant can have: `field` names it, and
    `index` the entry of `lengths` (None for a whole field)."""

    def __init__(self, field: str, problem: str, index: int = None):
        super().__init__(f"{field}{'' if index is None else f'[{index}]'}: {problem}")
        self.field, self.problem, self.index = field, problem, index


QUAD_ORDER = 16
PANELS_PER_HALFWAVE = 8
# Largest rule plus sample table a quadrature is built for, in bytes. The
# estimate runs about 20% low: an interior rule sampled by 80 modes of a 2-D
# plant is estimated at 1.10 GB and peaked 1.34 GB above its start, so a run
# at the cap peaks near 2.4 GB.
GRID_BYTES_MAX = 2_000_000_000


@dataclass(frozen=True)
class FaceId:
    """One axis-aligned face of the box: coordinate `axis` pinned at 0 or l_axis."""

    axis: int
    side: int  # 0 for the x_axis = 0 face, 1 for x_axis = l_axis

    def __post_init__(self):
        if self.side not in (0, 1):
            raise ValueError("face side must be 0 (low) or 1 (high)")


@dataclass(frozen=True)
class PlantConfig:
    """Coefficients and geometry of one plant; `PlantError` names a refused field.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 to 3.
    lengths : tuple of float
        Box side lengths, all positive. Default pi per axis.
    drift : tuple of float
        Constant drift vector b.
    reaction : float
        Constant reaction coefficient c.
    control_face : FaceId
        The face carrying the boundary control; the rest of the boundary is
        homogeneous Dirichlet.
    nu : float or None
        Norm-equivalence shift. None selects the default
        max(0, -c_tilde_m / mu_m + 1), which for this family equals
        max(0, c + 1).
    delta : float
        Target exponential decay rate, positive.
    """

    dim: int
    lengths: tuple = ()
    drift: tuple = ()
    reaction: float = 0.0
    control_face: FaceId = None
    nu: float = None
    delta: float = 0.5

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise PlantError("dim", "must be 1, 2 or 3")
        lengths = tuple(float(v) for v in self.lengths) or (math.pi,) * self.dim
        drift = tuple(float(v) for v in self.drift) or (0.0,) * self.dim
        for field, values in (("lengths", lengths), ("drift", drift)):
            if len(values) != self.dim:
                raise PlantError(field, f"expected {self.dim} entries, one per axis")
        for i, v in enumerate(lengths):
            if not v > 0:
                raise PlantError("lengths", "must be positive", i)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "drift", drift)
        face = self.control_face or FaceId(axis=self.dim - 1, side=0)
        if not (0 <= face.axis < self.dim):
            raise PlantError("control_face", f"axis must be 0 to {self.dim - 1}")
        object.__setattr__(self, "control_face", face)
        if not self.delta > 0:
            raise PlantError("delta", "must be positive")
        if self.nu is None:
            object.__setattr__(self, "nu", nu_default(self))
        # the sign of nu - c, not of the margin (nu - c) mu_min: mu_min
        # underflows to 0 once the drift sum b . l falls below about -745
        if not self.nu - self.reaction > 0:
            raise PlantError("nu", "must exceed the reaction c")

    # mu(x) = exp(b . x) is monotone per axis, so its extrema sit at corners.
    @property
    def mu_min(self) -> float:
        return math.exp(sum(min(0.0, b * l) for b, l in zip(self.drift, self.lengths)))

    @property
    def mu_max(self) -> float:
        return math.exp(sum(max(0.0, b * l) for b, l in zip(self.drift, self.lengths)))

    def mu(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.exp(x @ np.asarray(self.drift))

    def contains(self, x, tol: float = 0.0) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo = x >= -tol
        hi = x <= np.asarray(self.lengths) + tol
        return np.all(lo & hi, axis=1)


def nu_default(plant: PlantConfig) -> float:
    """Smallest convenient shift keeping the reaction margin at least one.

    For the separable family the sharp pairing of corner extrema gives a
    margin (nu - c) mu_min once nu >= c, so the unit-margin choice is
    max(0, c + 1).
    """
    return max(0.0, plant.reaction + 1.0)


class Mode(NamedTuple):
    """One row of a ModeTable, as an integer index into it gives. The stages
    slice tables; perfbench/reference.py iterates one."""

    multi_index: tuple
    lam: float
    group_id: int


@dataclass(frozen=True, eq=False)
class ModeTable:
    """The first M modes of one plant, in ascending eigenvalue order.

    `ks` is the (M, d) integer multi-index array, `lams` the eigenvalues,
    `group_ids` numbers the distinct eigenvalues (equal within 1e-9) from
    the first one on, and `norm` is the constant prod_i sqrt(2/l_i) every
    eigenfunction carries. The arrays are read-only. A slice gives a table
    over the same plant; an integer gives one `Mode`.
    """

    plant: PlantConfig
    ks: np.ndarray
    lams: np.ndarray
    group_ids: np.ndarray
    norm: float

    def __post_init__(self):
        for a in (self.ks, self.lams, self.group_ids):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.lams)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ModeTable(self.plant, self.ks[key], self.lams[key], self.group_ids[key], self.norm)
        return Mode(tuple(self.ks[key].tolist()), float(self.lams[key]), int(self.group_ids[key]))


def enumerate_eigenpairs(plant: PlantConfig, count: int) -> ModeTable:
    """Table of the first `count` modes in ascending eigenvalue order.

    Candidate multi-indices are all k in the ellipsoid
    sum (k_i * l_min / l_i)^2 <= 2*count^(2/d) + 64, which is the ball
    sum k_i^2 <= bound on a square or cube. The bound is validated a
    posteriori: the (count+1)-th candidate must exist and dominate the
    count-th, otherwise the enumeration refuses rather than truncate
    silently. Ties in the eigenvalue sort break lexicographically on the
    multi-index so runs are reproducible.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    d = plant.dim
    bound = 2.0 * count ** (2.0 / d) + 64.0
    l_min = min(plant.lengths)
    scale = np.array([l_min / l for l in plant.lengths])  # all 1.0 on a cube
    radii = tuple(int(l / l_min * math.sqrt(bound)) + 1 for l in plant.lengths)
    # rows of the index box in lexicographic order, cut to the ellipsoid
    ks = np.indices(radii).reshape(d, -1).T + 1
    ks = ks[np.sum((ks * scale) ** 2, axis=1) <= bound]
    if len(ks) <= count:
        raise SearchRadiusError(
            f"enumeration bound {bound:.1f} produced only {len(ks)} "
            f"candidates for count={count}"
        )
    # lam_k = sum_i kappa_i^2 + |b|^2/4 - c, summed axis by axis
    lams = 0.0
    for ax, l in enumerate(plant.lengths):
        kap = ks[:, ax] * math.pi / l
        lams = lams + kap * kap
    lams = lams + sum(b * b for b in plant.drift) / 4.0 - plant.reaction
    # sort on lam, ties on the multi-index (lexsort's last key is primary)
    order = np.lexsort(tuple(ks[:, ax] for ax in reversed(range(d))) + (lams,))
    lams = lams[order]
    ks = ks[order]
    # a-posteriori sufficiency: every unseen index has sum (k_i/l_i)^2 >
    # bound/l_min^2, so its eigenvalue exceeds pi^2/l_min^2 * bound + |b|^2/4
    # - c; that floor must dominate the accepted eigenvalues.
    floor = (
        (math.pi / l_min) ** 2 * bound
        + sum(b * b for b in plant.drift) / 4.0
        - plant.reaction
    )
    if lams[count] < lams[count - 1] - 1e-12 or floor < lams[count - 1]:
        raise SearchRadiusError("enumeration bound not provably sufficient")
    lams, ks = lams[:count], ks[:count]
    # a new group wherever the eigenvalue rises by more than 1e-9
    group_ids = np.concatenate([[0], np.cumsum(lams[1:] > lams[:-1] + 1e-9)])
    norm = math.prod(math.sqrt(2.0 / l) for l in plant.lengths)
    return ModeTable(plant, ks, lams, group_ids, norm)


def _as_points(x, dim) -> np.ndarray:
    """One point or a stack of points as an (npts, dim) array."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dim:
        raise DomainError(f"points must have {dim} coordinates")
    return pts


# sine-table entries gathered at a time while multiplying them into the rows
GATHER_ELEMS = 1 << 17


def _separable_rows(plant, ks, pts, lead, axes, half, scaled) -> np.ndarray:
    """The separable product, one row per mode and one column per point.

    Row n starts at lead[n]. Each axis i in `axes` then multiplies it, in
    this order, by sqrt(2/l_i) (only if `scaled`), by the envelope
    exp(half * b_i x_i) and by sin(kappa x_i) with kappa = ks[n, i] pi / l_i.
    The envelope is built once per axis and the sine once per wavenumber
    that occurs. Rows are multiplied in place, so besides those tables the
    only temporary is one gathered block of at most GATHER_ELEMS sines.
    """
    rows = np.empty((len(ks), len(pts)))
    rows[:] = lead[:, None]
    step = max(1, GATHER_ELEMS // max(1, len(pts)))
    for ax in axes:
        x = pts[:, ax]
        if scaled:
            rows *= math.sqrt(2.0 / plant.lengths[ax])
        rows *= np.exp(half * plant.drift[ax] * x)
        wavenumbers, which = np.unique(ks[:, ax], return_inverse=True)
        sines = np.multiply.outer(wavenumbers * math.pi / plant.lengths[ax], x)
        np.sin(sines, out=sines)
        for start in range(0, len(ks), step):
            rows[start : start + step] *= sines[which[start : start + step]]
    return rows


def eval_phi(modes: ModeTable, x) -> np.ndarray:
    """Forward eigenfunction values phi_n(x): an (M, npts) array for the M
    modes of the table at one point or a stack of npts points."""
    plant = modes.plant
    pts = _as_points(x, plant.dim)
    if not np.all(plant.contains(pts, tol=1e-12)):
        raise DomainError("point outside the box closure")
    lead = np.full(len(modes), modes.norm)
    return _separable_rows(plant, modes.ks, pts, lead, range(plant.dim), -0.5, False)


def eval_psi(modes: ModeTable, x) -> np.ndarray:
    """Dual values psi_n(x) = mu(x) phi_n(x), shaped as in eval_phi."""
    pts = _as_points(x, modes.plant.dim)
    return modes.plant.mu(pts) * eval_phi(modes, pts)


def _on_face(plant: PlantConfig, pts, face: FaceId, tol=1e-10):
    coord = pts[:, face.axis]
    target = 0.0 if face.side == 0 else plant.lengths[face.axis]
    return np.all(np.abs(coord - target) <= tol) and np.all(plant.contains(pts, tol=tol))


def conormal_trace(modes: ModeTable, s) -> np.ndarray:
    """Conormal flux of phi_n on the control face.

    The divergence-form flux is sum_i n_i a_i d_i(phi) with a_i = mu and
    outward normal n. On the low face of the control axis this evaluates to

        -sqrt(2/l_a) kappa_a  *  prod_{i != a} sqrt(2/l_i) e^{+b_i s_i/2} sin(kappa_i s_i)

    (the mu weight cancels the e^{-b x/2} envelope into e^{+b x/2}); on the
    high face the prefactor picks up (-1)^{k_a} e^{b_a l_a / 2} and a sign
    flip from the normal. The result is shaped as in eval_phi.
    """
    plant = modes.plant
    pts = _as_points(s, plant.dim)
    if not _on_face(plant, pts, plant.control_face):
        raise DomainError("point not on the control face")
    ks = modes.ks
    return _separable_rows(plant, ks, pts, trace_leads(plant, ks), in_face_axes(plant), 0.5, True)


def in_face_axes(plant: PlantConfig) -> list:
    """The axes that run along the control face, in ascending order."""
    return [ax for ax in range(plant.dim) if ax != plant.control_face.axis]


def trace_leads(plant: PlantConfig, ks) -> np.ndarray:
    """Prefactor of each mode's conormal trace, ks an (M, d) index array.

    It is the face's conormal derivative of the control-axis factor:
    -sqrt(2/l_a) kappa_a on the low face, and on the high face
    sqrt(2/l_a) kappa_a (-1)^{k_a} e^{b_a l_a / 2}. `conormal_trace`
    multiplies it by the in-face factors.
    """
    a = plant.control_face.axis
    la = plant.lengths[a]
    ks = np.asarray(ks)
    kap_a = ks[:, a] * math.pi / la
    if plant.control_face.side == 0:
        return -math.sqrt(2.0 / la) * kap_a
    sign = np.where(ks[:, a] % 2 == 0, 1.0, -1.0)
    return math.sqrt(2.0 / la) * kap_a * sign * math.exp(0.5 * plant.drift[a] * la)


def riesz_constants(plant: PlantConfig) -> tuple:
    """Frame constants (c1, c2) = (1/mu_max, 1/mu_min) of the mode expansion.
    A drift sum b . l past about +-709 takes mu beyond a float's range: c1 is
    then 0.0 where mu_max overflows, and c2 inf where mu_min underflows to 0."""
    try:
        c1 = 1.0 / plant.mu_max
    except OverflowError:
        c1 = 0.0
    mu_min = plant.mu_min
    return c1, 1.0 / mu_min if mu_min > 0 else math.inf


def count_unstable(eigs: ModeTable, delta: float) -> tuple:
    """Number of modes with lam <= delta plus their multiplicity pattern.

    The supported shapes are an all-simple prefix or a prefix whose second
    distinct eigenvalue is double; anything else raises PatternError. The
    table must be long enough to witness the first eigenvalue beyond delta.
    """
    n0 = int(np.count_nonzero(eigs.lams <= delta))
    if n0 >= len(eigs):
        raise ValueError("eigenvalue list too short to witness the threshold")
    # group ids rise along the table, so each group is one run
    _, counts = np.unique(eigs.group_ids[:n0], return_counts=True)
    pattern = tuple(counts.tolist())
    simple = all(m == 1 for m in pattern)
    double_second = (
        len(pattern) >= 2
        and pattern[1] == 2
        and all(m == 1 for i, m in enumerate(pattern) if i != 1)
    )
    if not (simple or double_second):
        raise PatternError(
            f"multiplicity pattern {pattern} unsupported: only simple unstable "
            "eigenvalues, or a double second one, are handled"
        )
    return n0, pattern


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class Quadrature:
    """Composite tensor Gauss-Legendre rule.

    `points` are full d-coordinates; for face rules the pinned axis is filled
    with the face value.
    """

    points: np.ndarray
    weights: np.ndarray


def gauss_panels(length: float, panels: int):
    """Composite QUAD_ORDER-point Gauss-Legendre rule (x, w) on [0, length]."""
    nodes, wts = leggauss(QUAD_ORDER)
    edges = np.linspace(0.0, length, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (half[:, None] * nodes[None, :] + mid[:, None]).ravel()
    w = (half[:, None] * wts[None, :]).ravel()
    return x, w


def _panel_count(kmax: int) -> int:
    return max(PANELS_PER_HALFWAVE, PANELS_PER_HALFWAVE * kmax)


def _check_grid_bytes(plant: PlantConfig, what: str, npts: int, rows: int) -> None:
    """Refuse a rule whose points, weights and `rows` sample rows exceed GRID_BYTES_MAX.

    The estimate counts 8 bytes per point for each of 2d coordinate arrays
    (the points and the meshgrid or in-face copy built on the way) and for
    each of the `rows` mode rows a caller samples on the rule.
    """
    nbytes = 8 * npts * (2 * plant.dim + rows)
    if nbytes > GRID_BYTES_MAX:
        raise GridSizeError(
            f"{what} rule of {npts} points with {rows} sampled modes needs "
            f"{nbytes / 1e9:.3g} GB, above the {GRID_BYTES_MAX / 1e9:.3g} GB cap"
        )


def axis_rules(plant: PlantConfig, kmax: int) -> list:
    """One composite Gauss rule (x, w) per axis, with PANELS_PER_HALFWAVE
    panels per half-wave of wavenumber kmax."""
    panels = _panel_count(kmax)
    return [gauss_panels(l, panels) for l in plant.lengths]


def face_quadrature(plant: PlantConfig, kmax: int, rows: int = 0) -> Quadrature:
    """Tensor rule over the control face: one composite Gauss rule per
    in-face axis, the face axis pinned to the face value. In one dimension
    there is no in-face axis, so the face is a single point and the measure
    is counting measure (weight one). `rows` is the number of modes the
    caller will sample on the rule; GridSizeError is raised before anything
    is built if the rule and those samples would exceed GRID_BYTES_MAX."""
    face = plant.control_face
    other = in_face_axes(plant)
    panels = _panel_count(kmax)
    _check_grid_bytes(plant, "face", (panels * QUAD_ORDER) ** len(other), rows)
    axes = [gauss_panels(plant.lengths[ax], panels) for ax in other]
    weights = np.ravel(functools.reduce(np.multiply.outer, [w for _, w in axes], 1.0))
    pts = np.full((len(weights), plant.dim), 0.0 if face.side == 0 else plant.lengths[face.axis])
    for ax, grid in zip(other, np.meshgrid(*[x for x, _ in axes], indexing="ij")):
        pts[:, ax] = grid.ravel()
    return Quadrature(points=pts, weights=weights)


def max_wavenumber(modes: ModeTable) -> int:
    return int(modes.ks.max())


def trace_matrix(eigs: ModeTable, quad: Quadrature) -> np.ndarray:
    """Row n holds the conormal trace of mode n on the face rule."""
    return conormal_trace(eigs, quad.points)
