import os
import subprocess
import sys

import numpy as np
import pytest

from parstab.lifting import (
    AdmissibilityError,
    LiftingContext,
    default_tail,
    shift_denominators,
    tail_cap,
    trace_cross_gram,
)
from parstab.spectral_basis import (
    FaceId,
    ModeTable,
    PlantConfig,
    Quadrature,
    enumerate_eigenpairs,
    face_quadrature,
    gauss_panels,
    max_wavenumber,
    trace_matrix,
)

from oracles import boundary_inner, build_projection_table, gram_matrix, lifted_projection


def test_shift_denominators_shift_second_head_mode_only():
    dens = shift_denominators(10.0, (-3.5, -0.5, -0.5), n0=3, eta=0.25)
    assert dens[0] == pytest.approx(13.5)
    assert dens[1] == pytest.approx(10.25)
    assert dens[2] == pytest.approx(10.5)


def test_shift_denominators_tail_rule_and_first_bad_index():
    # modes 3..5 of a two-mode head: tail rule gamma + lam, eta unused
    dens = shift_denominators(10.0, (1.0, 2.0, 3.0), n0=2, eta=0.25, first=3)
    assert np.array_equal(dens, [11.0, 12.0, 13.0])
    with pytest.raises(AdmissibilityError, match="index 4 "):
        shift_denominators(-2.0, (1.0, 2.0, 3.0, 2.0), first=3)


def test_shift_lifts_are_inverse_head_denominators():
    # the diagonal of Lam_gamma, as `select_gamma_ladder` forms it
    single = 1.0 / shift_denominators(1.0, (0.0,), n0=1, eta=0.0)
    assert single.shape == (1,)
    assert single[0] == pytest.approx(1.0)

    lifted = 1.0 / shift_denominators(10.0, (-3.5, -0.5, -0.5), n0=3, eta=0.25)
    assert np.allclose(lifted, [1 / 13.5, 1 / 10.25, 1 / 10.5])


def test_shift_denominators_reject_a_head_eigenvalue_hit():
    with pytest.raises(AdmissibilityError, match="index 1 "):
        shift_denominators(-3.5, (-3.5, -0.5, -0.5), n0=3, eta=0.0)


def test_projection_table_head_and_tail_signs():
    # plain Laplacian on (0, pi): lam_1 = 1
    plant = PlantConfig(dim=1)
    eigs = enumerate_eigenpairs(plant, 3)
    head = build_projection_table(2.0, 0.0, eigs, n0=1)
    assert lifted_projection(head, 1.0, 1) == pytest.approx(-1.0)
    tail = build_projection_table(2.0, 0.0, eigs, n0=0)
    assert lifted_projection(tail, 1.0, 1) == pytest.approx(-1.0 / 3.0)


def test_projection_table_marks_collisions():
    plant = PlantConfig(dim=1)
    eigs = enumerate_eigenpairs(plant, 3)
    table = build_projection_table(-1.0, 0.0, eigs, n0=0)  # gamma + lam_1 = 0
    with pytest.raises(AdmissibilityError):
        lifted_projection(table, 1.0, 1)
    assert lifted_projection(table, 1.0, 2) == pytest.approx(-1.0 / 3.0)
    with pytest.raises(IndexError):
        lifted_projection(table, 1.0, 4)
    # a collision inside the table leaves the coefficients around it finite
    middle = build_projection_table(-4.0, 0.0, eigs, n0=0)  # gamma + lam_2 = 0
    assert np.isnan(middle[1])
    assert middle[0] == pytest.approx(1.0 / 3.0) and middle[2] == pytest.approx(-0.2)


def test_gamma_admissibility_over_the_first_modes(example_ctx):
    # select_gamma_ladder's check: strict denominators of the cached modes
    lams = example_ctx.lams[:100]
    shift_denominators(10.0, lams, n0=3, eta=1.0)
    with pytest.raises(AdmissibilityError):
        shift_denominators(-lams[50], lams, n0=3, eta=1.0)


def test_boundary_inner_values():
    x, w = gauss_panels(np.pi, 16)
    quad = Quadrature(points=x[:, None], weights=w)
    s = x
    assert boundary_inner(quad, np.zeros_like(s), np.sin(s)) == 0.0
    assert boundary_inner(quad, np.sin(s), np.sin(s)) == pytest.approx(
        np.pi / 2, abs=1e-12
    )
    # int_0^pi e^{6x} sin x sin 2x dx by antiderivative
    closed = -24.0 * (np.exp(6 * np.pi) + 1.0) / 1665.0
    got = boundary_inner(quad, np.exp(3 * s) * np.sin(s), np.exp(3 * s) * np.sin(2 * s))
    assert got == pytest.approx(closed, rel=1e-10)


def test_boundary_inner_grid_mismatch():
    x, w = gauss_panels(np.pi, 4)
    quad = Quadrature(points=x[:, None], weights=w)
    with pytest.raises(ValueError):
        boundary_inner(quad, np.sin(x), np.sin(x[:-1]))


def test_gram_matrix_line_counting_measure(d1_eigs):
    gram = gram_matrix(d1_eigs, 2)
    # single-point face, trace_k(0) = -k sqrt(2/pi) times the unit drift weight
    base = 2.0 / np.pi
    assert np.allclose(gram, base * np.array([[1.0, 2.0], [2.0, 4.0]]), rtol=1e-12)


def test_gram_matrix_symmetric_psd(example_ctx):
    gram = example_ctx.head_gram
    assert gram.shape == (3, 3)
    assert np.array_equal(gram, gram.T)
    assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10


def test_context_cross_columns_extend_head_gram(example_ctx):
    assert example_ctx.cross_cols.shape == (len(example_ctx.eigs), 3)
    assert np.array_equal(example_ctx.cross_cols[:3], example_ctx.head_gram)


def _grid_cross_gram(rows, cols):
    """<trace_n, trace_l> on the tensor face rule sized to every mode."""
    quad = face_quadrature(rows.plant, max(max_wavenumber(rows), max_wavenumber(cols)))
    return (trace_matrix(rows, quad) * quad.weights) @ trace_matrix(cols, quad).T


def _faces(dim):
    return [FaceId(axis=ax, side=side) for ax in range(dim) for side in (0, 1)]


CROSS_GRAM_PLANTS = (
    # every face of a square with drift on both axes
    [dict(dim=2, drift=(0.5, -0.7), reaction=10.0, control_face=f) for f in _faces(2)]
    # drift on one in-face axis only, and none at all on an elongated box
    + [
        dict(dim=2, drift=(0.0, 1.3), reaction=10.0, control_face=FaceId(1, 1)),
        dict(dim=2, drift=(0.0, 1.3), reaction=10.0, control_face=FaceId(0, 0)),
        dict(dim=2, lengths=(1.0, 4.0), reaction=12.0, control_face=FaceId(0, 1)),
        dict(dim=2, lengths=(1.0, 4.0), drift=(-2.0, 0.4), reaction=12.0),
    ]
    # every face of a cube with drift, an elongated box with and without it
    + [dict(dim=3, drift=(0.4, -0.3, 0.6), reaction=4.0, control_face=f) for f in _faces(3)]
    + [
        dict(dim=3, lengths=(1.0, 1.5, 2.0), reaction=4.0),
        dict(dim=3, lengths=(1.0, 1.5, 2.0), drift=(1.0, 0.0, -0.5), reaction=4.0,
             control_face=FaceId(1, 1)),
    ]
)


@pytest.mark.parametrize("kwargs", CROSS_GRAM_PLANTS)
def test_cross_gram_matches_the_face_grid(kwargs):
    plant = PlantConfig(delta=0.5, **kwargs)
    eigs = enumerate_eigenpairs(plant, 120 if plant.dim == 2 else 30)
    got = trace_cross_gram(eigs, eigs[:4])
    want = _grid_cross_gram(eigs, eigs[:4])
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("drift", [0.0, 2.5, -2.5])
def test_cross_gram_holds_at_high_wavenumbers(drift):
    # in-face indices up to 200, where J(|p-q|) - J(p+q) would cancel
    plant = PlantConfig(dim=2, drift=(drift, 0.3), reaction=10.0, delta=0.5)
    ks = [1, 2, 3, 50, 51, 120, 199, 200]
    eigs = ModeTable(
        plant,
        ks=np.array([(k, 2) for k in ks]),
        lams=np.zeros(len(ks)),
        group_ids=np.arange(len(ks)),
        norm=2 / np.pi,
    )
    got = trace_cross_gram(eigs, eigs)
    want = _grid_cross_gram(eigs, eigs)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_cross_gram_is_exactly_diagonal_in_face_without_drift(mild_ctx):
    # with b = 0 the in-face sines are orthogonal: only modes sharing the
    # head mode's in-face index couple to it, and the rest are exactly zero
    ks = mild_ctx.eigs.ks
    same = ks[:, 0] == ks[0, 0]
    assert np.all(mild_ctx.cross_cols[~same] == 0.0)
    assert np.all(mild_ctx.cross_cols[same] != 0.0)


def test_head_gram_is_the_exactly_symmetric_head_block(example_ctx, mild_ctx, d1_ctx):
    for ctx in (example_ctx, mild_ctx, d1_ctx):
        assert np.array_equal(ctx.head_gram, ctx.cross_cols[: ctx.n0])
        assert np.array_equal(ctx.head_gram, ctx.head_gram.T)


def test_head_gram_does_not_depend_on_the_mode_count(example_eigs, example_ctx):
    small = LiftingContext(example_eigs[:100], 3)
    assert np.array_equal(small.head_gram, example_ctx.head_gram)
    assert np.array_equal(small.cross_cols, example_ctx.cross_cols[:100])


def test_cross_gram_rejects_overflowing_drift():
    plant = PlantConfig(dim=2, drift=(300.0, 0.0), reaction=0.0, delta=0.5)
    eigs = enumerate_eigenpairs(plant, 8)
    with pytest.raises(FloatingPointError):
        trace_cross_gram(eigs, eigs[:1])


# build the mild plant's context and print a digest of its cross-Gram bytes
CROSS_DIGEST = """
import hashlib
from parstab.lifting import LiftingContext
from parstab.spectral_basis import PlantConfig, enumerate_eigenpairs
plant = PlantConfig(dim=2, reaction=0.5, nu=1.5, delta=1.5)
ctx = LiftingContext(enumerate_eigenpairs(plant, 1921), 1)
print(hashlib.sha256(ctx.cross_cols.tobytes()).hexdigest())
"""


def test_cross_gram_bytes_do_not_depend_on_blas_threads():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", CROSS_DIGEST], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_tail_defaults():
    assert default_tail(30) == 400
    assert default_tail(200) == 800
    assert tail_cap(30) == 480
    assert tail_cap(200) == 3200
