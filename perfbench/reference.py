"""Exact terminal state of a simulated loop, for `sim_relerr`.

The closed loop is linear and time-invariant, x' = A x with A the public
`ClosedLoop(...).full_matrix`, so x(T) = expm(T A) x0 exactly. The design is
rebuilt through the public API with the context size the CLI's `simulate`
stage uses; the result is cached on disk per source tree and config.
"""

from __future__ import annotations

import hashlib
import json
import os


def exact_terminal(config_path: str, cache_dir: str, source_hash: str) -> dict:
    """{"h1_proxy": value} of the exact solution at the config's T."""
    with open(config_path, "rb") as fh:
        key = hashlib.sha256(source_hash.encode() + fh.read()).hexdigest()[:24]
    cached = os.path.join(cache_dir, f"{key}.json")
    if os.path.exists(cached):
        with open(cached) as fh:
            return json.load(fh)

    import numpy as np
    import scipy.linalg
    from parstab import cli, lifting, simulation, synthesis
    from parstab.spectral_basis import count_unstable, enumerate_eigenpairs

    cfg = cli.parse_config(config_path)
    plant = cli.build_plant(cfg)
    s, sim = cfg.synthesis, cfg.simulation
    N, n_sim = int(s["N"]), int(sim["N_sim"])
    eigs = enumerate_eigenpairs(plant, max(lifting.default_tail(N), N + 1, n_sim, 64))
    n0, _ = count_unstable(eigs, plant.delta)
    design = synthesis.synthesize(
        lifting.LiftingContext(eigs, n0),
        cfg.sensors["xi1"],
        cfg.sensors["xi2"],
        N,
        plant.delta,
        c_ratio=float(s["c_ratio"]),
        gamma_base=float(s["gamma_base"]),
        spread=None if s["spread"] is None else float(s["spread"]),
        sensor_tol=float(s["sensor_tol"]),
        cond_max=float(s["cond_max"]),
    )
    loop = simulation.ClosedLoop(design, N_sim=n_sim)
    index = {e.multi_index: i for i, e in enumerate(eigs[:n_sim])}
    x0 = np.zeros(n_sim + N)
    for mode, coeff in zip(sim["z0"]["modes"], sim["z0"]["coeffs"]):
        x0[index[tuple(mode)]] = coeff
    T = float(sim["T"])
    x = scipy.linalg.expm(T * loop.full_matrix) @ x0
    state = simulation.SimState(t=T, z=x[:n_sim], zhat=x[n_sim:])
    w = loop.w(state)
    out = {"h1_proxy": float(np.sqrt(np.sum(loop.h1_weights * w**2)))}
    os.makedirs(cache_dir, exist_ok=True)
    with open(cached, "w") as fh:
        json.dump(out, fh)
    return out
