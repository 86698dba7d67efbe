"""Per-mode, per-state and tensor-grid reference forms that the tests check
`parstab`'s batched and closed forms against; no command calls them."""

import numpy as np

from parstab import certification, simulation, synthesis
from parstab import spectral_basis as sb
from parstab.lifting import AdmissibilityError, shift_denominators


def build_projection_table(gamma, eta, eigs, n0) -> np.ndarray:
    """Lifting coefficients p_n = -1/denominator of every mode, one mode at
    a time, nan where the denominator is too close to zero to trust."""
    table = np.empty(len(eigs))
    for i, lam in enumerate(eigs.lams):
        try:
            table[i] = -1.0 / shift_denominators(gamma, [lam], n0=n0, eta=eta, first=i + 1)[0]
        except AdmissibilityError:
            table[i] = np.nan
    return table


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
    coeff = artifacts.lift_sum() * (artifacts.gram_inverse @ U)
    return coeff @ sb.conormal_trace(artifacts.eigs[: artifacts.n0], s)


def head_drift(artifacts) -> np.ndarray:
    """A0 = -diag(lam_1..lam_N0) of a design, as `synthesize` forms it."""
    return -np.diag(artifacts.eigs.lams[: artifacts.n0])


def sensor_tail_scaled(artifacts) -> np.ndarray:
    """C1t of a design: the tail sensor rows over the tail eigenvalues, as
    `synthesize` forms them."""
    m = artifacts
    return synthesis.sensor_rows(m.eigs[m.n0 : m.N], *m.sensors) / m.eigs.lams[m.n0 : m.N][None, :]


def finite_part(loop, X: np.ndarray) -> np.ndarray:
    """F coordinates (head estimate, head error, scaled tail error) of the
    loop states (z, zhat) stacked as the rows of X."""
    n0, N = loop.n0, loop.N
    zhat = X[:, loop.N_sim :]
    err = X[:, :N] - zhat
    return np.hstack([zhat[:, :n0], err[:, :n0], loop.lams[n0:N] * err[:, n0:N]])


def loop_states(E, x0: np.ndarray, start: int, stop: int, B=None) -> np.ndarray:
    """Rows [start, stop) of x0, E x0, E^2 x0, ... for a `linalg.Factored` E,
    stacked: the states `simulation.run` propagates and forms its columns
    from, by `simulation._rows` in blocks of B rows (by default the loop's
    own, `simulation.block_rows`) with E^B squared as `run` squares it,
    kept. The blocks must start at start, start + B, ..."""
    if B is None:
        B = simulation.block_rows(len(x0))
    power = E
    for _ in range(B.bit_length() - 1):
        power = power.squared()
    # a yielded block is a buffer that later blocks overwrite
    blocks = [(s, rows.copy()) for s, rows in simulation._rows(E, power, B, x0, start, stop)]
    assert [s for s, _ in blocks] == list(range(start, stop, B))
    return np.concatenate([rows for _, rows in blocks])


def diagnostics_reference(loop, X: np.ndarray) -> dict:
    """`ClosedLoop.diagnostics` of the rows of X by whole-array norms: the
    block-sized wn and wn**2 formed, each norm by `np.linalg.norm`."""
    N_sim, N, n0 = loop.N_sim, loop.N, loop.n0
    z, zhat = X[:, :N_sim], X[:, N_sim:]
    U = zhat[:, :n0]
    wn = z - U @ loop.lift_all.T
    y = z @ loop.C_sim.T
    zeta = wn[:, N:] @ loop.C_sim[:, N:].T
    h1 = np.sqrt(wn**2 @ loop.h1_weights)
    u_sq = np.sum((U @ loop.control_form) * U, axis=1)
    return {
        "l2_proxy": np.linalg.norm(z, axis=1),
        "h1_proxy": h1,
        "y1": y[:, 0],
        "y2": y[:, 1],
        "u_l2_gamma1": np.sqrt(np.maximum(u_sq, 0.0)),
        "err_finite": np.linalg.norm(z[:, :N] - zhat, axis=1),
        "err_residual": np.linalg.norm(z[:, N:], axis=1),
        "zeta1": zeta[:, 0],
        "zeta2": zeta[:, 1],
        "composite": h1 + np.sum(np.abs(U), axis=1),
    }


def projection_defects(artifacts) -> list:
    """Q_k - M_k per shift k: the quadrature route -diag(lam_k) G_q Lam_k A,
    G_q the head Gram summed on the context's face samples, less the matrix
    route -B_k A, formed as `ClosedLoop` forms them."""
    m, ctx = artifacts, artifacts.context
    A = m.gram_inverse
    gram_q = np.einsum("iq,jq,q->ij", ctx.traces, ctx.traces, ctx.quad.weights)
    return [
        np.einsum("i,ij,jl->il", -lift, gram_q, lift[:, None] * A) - (-Bk @ A)
        for lift, Bk in zip(m.head_lifts, m.shifted_grams)
    ]


def projection_deviations(artifacts, U: np.ndarray) -> np.ndarray:
    """Per row of U, the largest |U (Q_k - M_k)'| over the shifts k and the
    head modes: how far the two routes apply different forcing to that row."""
    return np.max([np.max(np.abs(U @ D.T), axis=1) for D in projection_defects(artifacts)], axis=0)


def certificate_energy(loop, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """V = X'PX + sum_(N<n<=N_sim) (lam_n+nu) w_n^2 per row of X."""
    F = finite_part(loop, X)
    w = X[:, : loop.N_sim] - X[:, loop.N_sim : loop.N_sim + loop.n0] @ loop.lift_all.T
    weights = loop.lams[loop.N :] + loop.nu
    return np.sum((F @ P) * F, axis=1) + np.add.reduce(weights * w[:, loop.N :] ** 2, axis=1)


def residual_terms(ctx, gamma, l: int, N: int, N_tail: int) -> np.ndarray:
    """Per-mode terms (<trace_l, trace_n>/(gamma+lam_n))^2, n = N+1..N_tail,
    of head mode l (1-based), for one shift at a time."""
    if N_tail < N or N_tail > len(ctx.eigs):
        raise ValueError(f"N_tail={N_tail} outside N={N}..{len(ctx.eigs)}")
    dens = shift_denominators(gamma, ctx.lams[N:N_tail], first=N + 1)
    return (ctx.cross_cols[N:N_tail, l - 1] / dens) ** 2


def _pair_residuals(artifacts, N: int, N_tail: int, gamma_sq: bool):
    """(weight, `residual_terms`) of each (k, l) pair of S1 (`gamma_sq`) or
    S2, k then l."""
    m = artifacts
    A = m.gram_inverse
    for k, gamma in enumerate(m.gammas):
        lift = m.head_lifts[k]
        for l in range(1, m.n0 + 1):
            coef = lift[l - 1] ** 2 * float(A[l - 1] @ A[l - 1])
            if gamma_sq:
                coef *= gamma**2
            yield coef, residual_terms(m.context, gamma, l, N, N_tail)


def tail_sum(artifacts, N: int, N_tail: int, gamma_sq: bool) -> float:
    """S1 (`gamma_sq`) or S2 over modes N+1..N_tail, each pair's terms formed
    for this sum alone."""
    c1, _ = sb.riesz_constants(artifacts.plant)
    pairs = _pair_residuals(artifacts, N, N_tail, gamma_sq)
    return c1 * sum(coef * float(np.add.reduce(terms)) for coef, terms in pairs)


def sphi_sum(artifacts, N: int, N_tail: int) -> float:
    """Sphi over modes N+1..N_tail, the sensor values evaluated for this sum alone."""
    xi1, xi2 = artifacts.sensors
    terms = certification.sphi_terms(artifacts.eigs, xi1, xi2, N, N_tail, artifacts.plant.nu)
    return float(np.add.reduce(terms))


def factored_array(F) -> np.ndarray:
    """The n x n matrix diag(lam) + Q diag(sig) W' that a `linalg.Factored` holds."""
    if F.plain is not None:
        return F.plain
    M = (F.Q * F.sig) @ F.W.T
    M.flat[:: len(M) + 1] += F.lam
    return M


def dense_loop(m) -> np.ndarray:
    """The n x n closed-loop matrix F of design m, laid out from its blocks
    as the dense assembly did: zeros, the 2*N0 head, the coupling beside
    it and -diag(lam_(N0+1..N)) below."""
    h = 2 * m.n0
    n = len(m.stacked_gain)
    F = np.zeros((n, n))
    F[:h, :h] = m.loop_head
    F[:h, h:] = m.loop_coupling
    F[h:, h:] = -np.diag(m.eigs.lams[m.n0 : m.N])
    return F


def lyapunov_dense(F, delta: float, h: int) -> np.ndarray:
    """`certification.solve_lyapunov` by whole-matrix steps: F + delta*I and
    the P22 sum formed n x n, P assembled by `np.block` and symmetrized as a
    whole, the Hurwitz check on the dense spectrum of F."""
    F = np.asarray(F, dtype=float)
    spectral = synthesis.abscissa(F)
    if spectral >= -delta:
        raise certification.CertificationError(
            f"F + {delta}*I is not Hurwitz (abscissa {spectral:.4f}), no certificate exists"
        )
    n = F.shape[0]
    shifted = F + delta * np.eye(n)
    H, B, d = shifted[:h, :h], shifted[:h, h:], np.diagonal(shifted)[h:]
    eye_h = np.eye(h)
    kron = np.kron(H.T, eye_h) + np.kron(eye_h, H.T)
    P11 = np.linalg.solve(kron, -eye_h.ravel()).reshape(h, h)
    heads = H.T[None, :, :] + d[:, None, None] * eye_h
    P12 = np.linalg.solve(heads, -(P11 @ B).T[:, :, None])[:, :, 0].T
    cross = B.T @ P12
    P22 = -(np.eye(n - h) + cross + cross.T) / (d[:, None] + d[None, :])
    P = np.block([[P11, P12], [P12.T, P22]])
    P = 0.5 * (P + P.T)
    residual = P @ F
    residual += residual.T.copy()
    residual += 2.0 * delta * P
    residual.flat[:: n + 1] += 1.0
    res = float(np.max(np.abs(residual)))
    if res >= certification.LYAP_RESIDUAL_TOL:
        raise certification.CertificationError(f"Lyapunov residual {res:.3e} too large")
    return P


def theta1_dense(P, artifacts, S1, S2, eta_cert) -> np.ndarray:
    """The bordered certificate matrix Theta1 of design m by whole-matrix
    steps, as `certification` formed it before it decided Theta1 on a k x k
    matrix: the state block F'P + PF + 2*delta*P with eps*S1 E1'E1, bordered
    by P G and -eta_cert*I, plus eps*S2 E2'E2; E1'E1 and E2'E2 formed full,
    the state block summed apart and copied in, and the result symmetrized
    out of place."""
    m = artifacts
    F, G = dense_loop(m), m.stacked_gain
    n_F, n0, h = F.shape[0], m.n0, 2 * m.n0
    eps = 2.0 * n0**2
    E1 = np.zeros((n0, n_F))
    E1[:, :n0] = np.eye(n0)
    E2 = np.hstack([F[:n0], G[:n0]])
    PF = np.empty_like(P)
    PF[:, :h] = P[:, :h] @ F[:h, :h]
    PF[:, h:] = P[:, :h] @ F[:h, h:] + P[:, h:] * np.diagonal(F)[h:]
    top = PF.T + PF + 2.0 * m.delta * P + eps * S1 * (E1.T @ E1)
    theta = np.zeros((n_F + 2, n_F + 2))
    theta[:n_F, :n_F] = top
    theta[:n_F, n_F:] = P @ G
    theta[n_F:, :n_F] = G.T @ P
    theta[n_F:, n_F:] = -eta_cert * np.eye(2)
    theta += eps * S2 * (E2.T @ E2)
    return 0.5 * (theta + theta.T)
