"""Per-mode, per-state and tensor-grid reference forms that the tests check
`parstab`'s batched and closed forms against; no command calls them."""

import numpy as np

from parstab import spectral_basis as sb
from parstab.lifting import AdmissibilityError, shift_denominators


def build_projection_table(gamma, eta, eigs, n0) -> np.ndarray:
    """Lifting coefficients p_n = -1/denominator of every mode, nan where
    the denominator is too close to zero to trust."""
    return -1.0 / shift_denominators(gamma, eigs.lams, n0=n0, eta=eta, strict=False)


def lifted_projection(table, boundary_inner_value: float, n: int) -> float:
    """Mode-n component p_n * <v, trace_n> of the lifted function; n is 1-based."""
    if not 1 <= n <= len(table):
        raise IndexError(f"mode index {n} outside table of size {len(table)}")
    if np.isnan(table[n - 1]):
        raise AdmissibilityError(f"table invalid at mode {n}")
    return float(table[n - 1] * boundary_inner_value)


def boundary_inner(quad, f_samples, g_samples) -> float:
    """Face inner product of two sample vectors on a shared quadrature rule."""
    f, g = np.asarray(f_samples, dtype=float), np.asarray(g_samples, dtype=float)
    if f.shape != quad.weights.shape or g.shape != quad.weights.shape:
        raise ValueError("sample vectors do not match the quadrature grid")
    return float(np.sum(quad.weights * f * g))


def gram_matrix(eigs, n0: int) -> np.ndarray:
    """Head-mode trace Gram <trace_k, trace_l> on the face rule sized to the
    head, one `boundary_inner` per unordered pair, mirrored."""
    quad = sb.face_quadrature(eigs.plant, sb.max_wavenumber(eigs[:n0]), rows=n0)
    traces = sb.trace_matrix(eigs[:n0], quad)
    out = np.empty((n0, n0))
    for k in range(n0):
        for l in range(k, n0):
            out[k, l] = out[l, k] = boundary_inner(quad, traces[k], traces[l])
    return out


def interior_quadrature(plant, kmax: int, rows: int = 0):
    """Tensor product of the `axis_rules` over the box, refused by the
    package's byte cap as a face rule is."""
    npts = (sb._panel_count(kmax) * sb.QUAD_ORDER) ** plant.dim
    sb._check_grid_bytes(plant, "interior", npts, rows)
    axes = sb.axis_rules(plant, kmax)
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    w = axes[0][1]
    for _, wa in axes[1:]:
        w = np.multiply.outer(w, wa)
    return sb.Quadrature(points=np.column_stack([g.ravel() for g in grids]), weights=np.ravel(w))


def biorthonormality_defect(eigs) -> float:
    """max |<phi_i, psi_j> - delta_ij| over the modes, on the interior rule."""
    quad = interior_quadrature(eigs.plant, sb.max_wavenumber(eigs), rows=len(eigs))
    vals = sb.eval_phi(eigs, quad.points)
    gram = (vals * (quad.weights * eigs.plant.mu(quad.points))) @ vals.T
    return float(np.max(np.abs(gram - np.eye(len(eigs)))))


def control_trace(artifacts, U, s):
    """Boundary control u(s) = sum_k <Lam_k A U, traces(s)> at face points s."""
    U = np.asarray(U, dtype=float)
    if U.shape != (artifacts.n0,):
        raise ValueError(f"U must have {artifacts.n0} components")
    coeff = artifacts.lift_sum() @ artifacts.gram_inverse @ U
    return coeff @ sb.conormal_trace(artifacts.eigs[: artifacts.n0], s)


def finite_part(loop, X: np.ndarray) -> np.ndarray:
    """F coordinates (head estimate, head error, scaled tail error) of the
    loop states (z, zhat) stacked as the rows of X."""
    n0, N = loop.n0, loop.N
    zhat = X[:, loop.N_sim :]
    err = X[:, :N] - zhat
    return np.hstack([zhat[:, :n0], err[:, :n0], loop.lams[n0:N] * err[:, n0:N]])


def certificate_energy(loop, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """V = X'PX + sum_(N<n<=N_sim) (lam_n+nu) w_n^2 per row of X."""
    F = finite_part(loop, X)
    w = X[:, : loop.N_sim] - X[:, loop.N_sim : loop.N_sim + loop.n0] @ loop.lift_all.T
    weights = loop.lams[loop.N :] + loop.nu
    return np.sum((F @ P) * F, axis=1) + np.add.reduce(weights * w[:, loop.N :] ** 2, axis=1)
