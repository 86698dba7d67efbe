"""End-to-end tour: design a boundary controller for an unstable
drift-reaction-diffusion plant, try to certify it, and watch both loops run.

Usage: python3 demos/walkthrough.py
"""

import numpy as np

from parstab import (
    LiftingContext,
    PlantConfig,
    certify,
    count_unstable,
    enumerate_eigenpairs,
    run,
    synthesize,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


# A strongly advected plant on (0, pi)^2 with enough reaction to destabilize
# three modes at the decay target delta = 0.5.
banner("plant and spectrum")
plant = PlantConfig(dim=2, drift=(3.0, 3.0), reaction=10.0, delta=0.5)
eigs = enumerate_eigenpairs(plant, 481)
n0, pattern = count_unstable(eigs, plant.delta)
print(f"unstable modes (vs -delta): {n0}, multiplicity pattern {pattern}")
print("leading eigenvalues:", np.round(eigs.lams[:6], 3))

banner("controller synthesis at N = 60")
ctx = LiftingContext(eigs, n0)
design = synthesize(ctx, (0.53, 1.05), (1.05, 0.53), 60, 0.5)
print("lifting parameters gamma:", design.gammas)
print("eigenvalue split eta:", design.eta)
for key, value in sorted(design.margins.items()):
    print(f"{key:>22s}: {value:+.4f}")
print("observer gain spectral norm:", round(np.linalg.norm(design.observer_gain, 2), 3))

banner("certification attempt (strong drift)")
cert = certify(lambda n: synthesize(ctx, (0.53, 1.05), (1.05, 0.53), n, 0.5), 30, 60)
print(f"status: {cert.status} at N = {cert.N} (theta1_max = {cert.theta1_max:.3e})")
print("the boundary-trace tail sums of this plant are too large at these sizes;")
print("the loop still decays, as the simulation below shows")

banner("certification on a mildly unstable plant")
mild = PlantConfig(dim=2, drift=(0.0, 0.0), reaction=0.5, delta=1.5, nu=1.5)
mild_eigs = enumerate_eigenpairs(mild, 600)
mild_n0, _ = count_unstable(mild_eigs, mild.delta)
mild_ctx = LiftingContext(mild_eigs, mild_n0)


def mild_design(n):
    return synthesize(
        mild_ctx, (np.pi / 2, np.pi / 2), (1.2, 1.9), n, 1.5, gamma_base=2.0
    )


mild_cert = certify(mild_design, 8, 64)
print(
    f"status: {mild_cert.status} at N = {mild_cert.N} "
    f"(theta1_max = {mild_cert.theta1_max:.3f}, psi = {mild_cert.psi_bound:.3f})"
)

banner("certification on a cube (3-D, drift 0.5 along every axis)")
cube = PlantConfig(dim=3, drift=(0.5, 0.5, 0.5), reaction=2.0, delta=1.5)
cube_eigs = enumerate_eigenpairs(cube, 640)
cube_ctx = LiftingContext(cube_eigs, count_unstable(cube_eigs, cube.delta)[0])
centre = (np.pi / 2,) * 3
cube_cert = certify(
    lambda n: synthesize(cube_ctx, centre, (1.2, 1.9, 1.1), n, 1.5, gamma_base=2.0),
    10,
    160,
)
# each round that reached Theta1 also names the row block holding most of
# its top eigenvector
for n, n_tail, status, _, _, shares in cube_cert.rounds:
    where = "" if shares is None else f" (top eigenvector on {max(shares, key=shares.get)})"
    print(f"N = {n:3d}, tail {n_tail}: {status}{where}")

banner("closed loop vs open loop (strong drift, five low modes excited)")
z0 = np.zeros(240)
for mode in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
    z0[np.flatnonzero(np.all(eigs.ks == mode, axis=1))[0]] = 1.0
closed = run(z0, 20.0, 2e-4, design, N_sim=240)
opened = run(z0[:120], 10.0, 1e-3, design, N_sim=120, open_loop=True)
print(f"closed-loop decay rate : {closed.rate:+.3f}  (target <= -0.5)")
print(f"open-loop growth rate  : {opened.rate:+.3f}  (dominant eigenvalue 3.5)")
ratio = closed.records["composite"][-1] / closed.records["composite"][0]
print(f"composite energy drop over 20s: {ratio:.2e}")

print()
print("CLI equivalents: parstab pipeline --config demos/strong_drift_pipeline.json")
print("                 parstab pipeline --config demos/quick_certify.json")
print("                 parstab pipeline --config demos/cube_3d.json")
