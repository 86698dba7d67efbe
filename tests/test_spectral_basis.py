import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parstab.spectral_basis import (
    DomainError,
    GRID_BYTES_MAX,
    FaceId,
    GridSizeError,
    Mode,
    ModeTable,
    PatternError,
    PlantConfig,
    conormal_trace,
    count_unstable,
    enumerate_eigenpairs,
    eval_phi,
    eval_psi,
    face_quadrature,
    gauss_panels,
    nu_default,
    riesz_constants,
    trace_matrix,
)

from oracles import biorthonormality_defect, interior_quadrature


def explicit_eigenvalue(plant, k):
    # independent restatement of the separable eigenvalue
    return sum(
        (ki * math.pi / li) ** 2 + bi * bi / 4.0
        for ki, li, bi in zip(k, plant.lengths, plant.drift)
    ) - plant.reaction


def enumerated_eigenvalue(plant, k, count=60):
    eigs = enumerate_eigenpairs(plant, count)
    return dict(zip(map(tuple, eigs.ks.tolist()), eigs.lams.tolist()))[k]


def test_eigenvalues_drifted_plane(example_plant):
    assert enumerated_eigenvalue(example_plant, (1, 1)) == pytest.approx(-3.5)
    assert enumerated_eigenvalue(example_plant, (1, 2)) == pytest.approx(-0.5)
    assert enumerated_eigenvalue(example_plant, (2, 1)) == pytest.approx(-0.5)
    assert enumerated_eigenvalue(example_plant, (2, 2)) == pytest.approx(2.5)
    assert enumerated_eigenvalue(example_plant, (1, 3)) == pytest.approx(4.5)
    for k in [(1, 1), (3, 2), (5, 5)]:
        assert enumerated_eigenvalue(example_plant, k) == pytest.approx(
            explicit_eigenvalue(example_plant, k), abs=1e-12
        )


def test_eigenvalues_line(d1_plant):
    # n^2 + 9/4 - 10
    assert enumerated_eigenvalue(d1_plant, (1,)) == pytest.approx(-6.75)
    assert enumerated_eigenvalue(d1_plant, (2,)) == pytest.approx(-3.75)
    assert enumerated_eigenvalue(d1_plant, (3,)) == pytest.approx(1.25)


def test_enumeration_order_and_tie_break(example_eigs):
    lams = example_eigs.lams.tolist()
    assert lams == sorted(lams)
    # the double at -0.5 is listed lexicographically
    assert example_eigs[1].multi_index == (1, 2)
    assert example_eigs[2].multi_index == (2, 1)
    gids = example_eigs.group_ids[:6].tolist()
    assert gids == [0, 1, 1, 2, 3, 3]


def test_mode_table_slices_to_tables_and_indexes_to_modes(example_eigs):
    head = example_eigs[1:4]
    assert isinstance(head, ModeTable) and len(head) == 3
    assert head.plant is example_eigs.plant and head.norm == example_eigs.norm
    assert head.ks.tolist() == [[1, 2], [2, 1], [2, 2]]
    assert head.group_ids.tolist() == [1, 1, 2]
    assert example_eigs[2] == Mode((2, 1), -0.5, 1)
    assert example_eigs[-1] == Mode(
        tuple(example_eigs.ks[-1].tolist()), float(example_eigs.lams[-1]), int(example_eigs.group_ids[-1])
    )
    assert [m.multi_index for m in example_eigs[:3]] == [(1, 1), (1, 2), (2, 1)]
    with pytest.raises(ValueError):
        head.lams[0] = 0.0


def test_enumeration_rejects_nonpositive_count(example_plant):
    with pytest.raises(ValueError):
        enumerate_eigenpairs(example_plant, 0)


@settings(max_examples=20, deadline=None)
@given(count=st.integers(min_value=1, max_value=150))
def test_enumeration_properties(count):
    plant = PlantConfig(dim=2, drift=(3.0, 3.0), reaction=10.0)
    eigs = enumerate_eigenpairs(plant, count)
    assert len(eigs) == count
    lams = eigs.lams
    assert np.all(np.diff(lams) >= -1e-12)
    gids = eigs.group_ids.tolist()
    assert gids[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(gids, gids[1:]))


def test_phi_separable_product(example_eigs):
    k = example_eigs[4].multi_index  # mode (1, 3)
    pts = np.array([[0.3, 0.7], [1.1, 2.9], [np.pi / 2, np.pi / 3]])
    got = eval_phi(example_eigs[4:5], pts)[0]
    for p, val in zip(pts, got):
        want = 1.0
        for ki, xi, bi in zip(k, p, (3.0, 3.0)):
            want *= math.sqrt(2 / math.pi) * math.exp(-bi * xi / 2) * math.sin(ki * xi)
        assert val == pytest.approx(want, rel=1e-13)


def test_psi_is_weighted_phi(example_eigs):
    modes = example_eigs[2:3]
    pts = np.array([[0.4, 0.9], [2.0, 1.5]])
    mu = np.exp(3.0 * pts[:, 0] + 3.0 * pts[:, 1])
    assert eval_psi(modes, pts)[0] == pytest.approx(mu * eval_phi(modes, pts)[0], rel=1e-12)


def test_eval_outside_box_raises(example_eigs):
    with pytest.raises(DomainError):
        eval_phi(example_eigs[:1], [(0.1, 3.5)])


def test_biorthonormality_line(d1_plant, d1_eigs):
    assert biorthonormality_defect(d1_eigs[:12]) < 1e-10


def test_conormal_trace_low_face_closed_form(example_plant, example_eigs):
    # control face is {x2 = 0}; independent closed form along it
    s = np.array([[0.3, 0.0], [1.2, 0.0], [2.9, 0.0]])
    for (i, j), got in zip(example_eigs.ks[:8].tolist(), conormal_trace(example_eigs[:8], s)):
        want = -(2.0 / np.pi) * j * np.exp(1.5 * s[:, 0]) * np.sin(i * s[:, 0])
        assert got == pytest.approx(want.tolist(), rel=1e-12, abs=1e-12)


def test_conormal_trace_high_face_sign_and_weight():
    plant = PlantConfig(
        dim=1, drift=(3.0,), reaction=10.0, control_face=FaceId(axis=0, side=1)
    )
    eigs = enumerate_eigenpairs(plant, 4)
    s = np.array([[np.pi]])
    for (n,), got in zip(eigs.ks.tolist(), conormal_trace(eigs, s)):
        want = math.sqrt(2 / math.pi) * n * (-1) ** n * math.exp(1.5 * np.pi)
        assert got[0] == pytest.approx(want, rel=1e-12)


def test_trace_off_face_raises(example_eigs):
    with pytest.raises(DomainError):
        conormal_trace(example_eigs[:1], [(0.5, 0.1)])


def test_traces_do_not_vanish(example_plant, example_eigs):
    quad = face_quadrature(example_plant, 8)
    rows = trace_matrix(example_eigs[:30], quad)
    assert np.min(np.max(np.abs(rows), axis=1)) > 1e-6


def test_riesz_constants(example_plant):
    c1, c2 = riesz_constants(example_plant)
    assert c1 == pytest.approx(math.exp(-6 * math.pi), rel=1e-12)
    assert c2 == pytest.approx(1.0)


def test_count_unstable_patterns(example_eigs, d1_eigs):
    assert count_unstable(example_eigs, 0.5) == (3, (1, 2))
    assert count_unstable(example_eigs, 0.6) == (3, (1, 2))
    assert count_unstable(d1_eigs, 0.5) == (2, (1, 1))


def test_count_unstable_rejects_deep_multiplicity():
    plant = PlantConfig(dim=2, reaction=10.4)
    eigs = enumerate_eigenpairs(plant, 20)
    with pytest.raises(PatternError, match=r"pattern \(1, 2, 1, 2\) unsupported"):
        count_unstable(eigs, 0.5)


def test_count_unstable_needs_witness(example_eigs):
    with pytest.raises(ValueError):
        count_unstable(example_eigs[:2], 0.5)


def test_nu_default_and_shift_margin(example_plant):
    assert nu_default(example_plant) == pytest.approx(11.0)
    assert example_plant.nu == pytest.approx(11.0)
    # (nu - c) mu attains its minimum at the all-zero corner here
    assert example_plant.reaction_shift_margin() == pytest.approx(1.0)
    # and its maximum at the opposite corner, where mu = mu_max
    fac = example_plant.nu - example_plant.reaction
    assert fac * example_plant.mu_max == pytest.approx(math.exp(6 * math.pi))


def test_plant_rejects_bad_geometry():
    with pytest.raises(ValueError):
        PlantConfig(dim=4)
    with pytest.raises(ValueError):
        PlantConfig(dim=2, lengths=(1.0,))
    with pytest.raises(ValueError):
        PlantConfig(dim=1, delta=0.0)
    with pytest.raises(ValueError):
        PlantConfig(dim=1, reaction=5.0, nu=-20.0)


def test_gauss_panels_exactness():
    x, w = gauss_panels(np.pi, 4)
    assert np.dot(w, x**5) == pytest.approx(np.pi**6 / 6, rel=1e-14)
    assert np.dot(w, np.sin(x) ** 2) == pytest.approx(np.pi / 2, abs=1e-12)


def test_face_quadrature_line_is_counting_measure(d1_plant):
    quad = face_quadrature(d1_plant, 5)
    assert quad.points.shape == (1, 1)
    assert quad.points[0, 0] == pytest.approx(0.0)
    assert quad.weights[0] == pytest.approx(1.0)


def test_interior_quadrature_integrates_mu(example_plant):
    quad = interior_quadrature(example_plant, 3)
    got = np.dot(quad.weights, np.exp(np.sum(3.0 * quad.points, axis=1)))
    want = ((math.exp(3 * math.pi) - 1) / 3.0) ** 2
    assert got == pytest.approx(want, rel=1e-10)


def test_grid_guard_refuses_before_building(example_plant):
    cube = PlantConfig(dim=3, reaction=2.0)
    # 768^3 interior points with 80 sampled rows: about 0.3 TB
    with pytest.raises(GridSizeError, match=r"interior rule of 452984832 points .* GB"):
        interior_quadrature(cube, 6, rows=80)
    with pytest.raises(GridSizeError, match="face rule"):
        face_quadrature(cube, 200, rows=3)
    # the table, not only the rule, counts: this 2-D rule alone is small
    npts = (8 * 10 * 16) ** 2
    rows = GRID_BYTES_MAX // (8 * npts)
    assert len(interior_quadrature(example_plant, 10, rows=rows - 4).weights) == npts
    with pytest.raises(GridSizeError):
        interior_quadrature(example_plant, 10, rows=rows)


# ---------------------------------------------------------------------------
# Per-mode reference formulas. The batched evaluation must reproduce them bit
# for bit, so every artifact built from eigenfunction values and traces keeps
# its bytes.


def ref_enumerate(plant, count):
    """(multi_index, lam, group_id) of the first `count` modes, one candidate
    at a time over itertools.product.

    The candidates are every index with sum (k_i/l_i)^2 <= level. The level
    doubles until more than `count` indices qualify and then once more, so
    the first `count` modes lie deep inside the box and no bound of the code
    under test is reused.
    """

    def below(level):
        box = [range(1, int(l * math.sqrt(level)) + 1) for l in plant.lengths]
        return [
            k
            for k in itertools.product(*box)
            if sum((ki / li) ** 2 for ki, li in zip(k, plant.lengths)) <= level
        ]

    level = 1.0
    while len(below(level)) <= count:
        level *= 2.0
    candidates = []
    for k in below(2.0 * level):
        kap = [ki * math.pi / li for ki, li in zip(k, plant.lengths)]
        lam = sum(v * v for v in kap) + sum(b * b for b in plant.drift) / 4.0 - plant.reaction
        candidates.append((lam, k))
    candidates.sort()
    out = []
    group = -1
    prev = None
    for lam, k in candidates[:count]:
        if prev is None or lam > prev + 1e-9:
            group += 1
        prev = lam
        out.append((k, lam, group))
    return out


def ref_norm(plant):
    return math.prod(math.sqrt(2.0 / l) for l in plant.lengths)


def ref_phi(plant, k, pts):
    out = np.full(pts.shape[0], ref_norm(plant))
    for ax in range(plant.dim):
        kap = k[ax] * math.pi / plant.lengths[ax]
        out = out * np.exp(-0.5 * plant.drift[ax] * pts[:, ax]) * np.sin(kap * pts[:, ax])
    return out


def ref_trace(plant, k, pts):
    a = plant.control_face.axis
    kap_a = k[a] * math.pi / plant.lengths[a]
    la = plant.lengths[a]
    if plant.control_face.side == 0:
        lead = -math.sqrt(2.0 / la) * kap_a
    else:
        lead = math.sqrt(2.0 / la) * kap_a * (-1) ** k[a] * math.exp(0.5 * plant.drift[a] * la)
    out = np.full(pts.shape[0], lead)
    for ax in range(plant.dim):
        if ax == a:
            continue
        kap = k[ax] * math.pi / plant.lengths[ax]
        out = (
            out
            * math.sqrt(2.0 / plant.lengths[ax])
            * np.exp(0.5 * plant.drift[ax] * pts[:, ax])
            * np.sin(kap * pts[:, ax])
        )
    return out


ORACLE_PLANTS = {
    "d1": dict(dim=1, lengths=(2.5,), drift=(1.3,), reaction=4.0),
    "d2": dict(dim=2, lengths=(math.pi, 2.0), drift=(0.7, -1.1), reaction=3.0),
    "d3": dict(dim=3, lengths=(1.0, 1.5, 2.0), drift=(0.4, -0.9, 1.2), reaction=20.0),
}


FACES = [
    (name, axis, side)
    for name, kw in sorted(ORACLE_PLANTS.items())
    for axis in range(kw["dim"])
    for side in (0, 1)
]


def oracle_plant(name, axis, side):
    return PlantConfig(control_face=FaceId(axis=axis, side=side), **ORACLE_PLANTS[name])


def same_bits(got, want):
    got = np.asarray(got)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_PLANTS))
def test_batched_phi_matches_per_mode_formula_bit_for_bit(name):
    plant = oracle_plant(name, 0, 0)
    eigs = enumerate_eigenpairs(plant, 40)
    rng = np.random.default_rng(3)
    # enough points that the in-place products run over several row blocks
    pts = rng.uniform(0.0, 1.0, size=(20000, plant.dim)) * np.array(plant.lengths)
    pts[0] = plant.lengths  # a corner of the closure
    want = np.vstack([ref_phi(plant, k, pts) for k in eigs.ks.tolist()])
    assert same_bits(eval_phi(eigs, pts), want)
    assert same_bits(eval_phi(eigs[7:8], pts), want[7:8])
    assert same_bits(eval_phi(eigs[7:8], pts[5]), want[7:8, 5:6])
    assert same_bits(eval_phi(eigs, pts[5]), want[:, 5:6])


@pytest.mark.parametrize("name, axis, side", FACES)
def test_batched_traces_match_per_mode_formula_bit_for_bit(name, axis, side):
    plant = oracle_plant(name, axis, side)
    eigs = enumerate_eigenpairs(plant, 40)
    quad = face_quadrature(plant, 1)
    want = np.vstack([ref_trace(plant, k, quad.points) for k in eigs.ks.tolist()])
    assert same_bits(conormal_trace(eigs, quad.points), want)
    assert same_bits(trace_matrix(eigs, quad), want)
    assert same_bits(conormal_trace(eigs[5:6], quad.points), want[5:6])
    assert same_bits(conormal_trace(eigs[5:6], quad.points[-1]), want[5:6, -1:])


@pytest.mark.parametrize("name", sorted(ORACLE_PLANTS))
def test_batch_with_one_bad_point_raises(name):
    plant = oracle_plant(name, 0, 1)
    eigs = enumerate_eigenpairs(plant, 10)
    inside = np.full((4, plant.dim), 0.5)
    inside[2, -1] = plant.lengths[-1] + 0.1
    with pytest.raises(DomainError):
        eval_phi(eigs, inside)
    quad = face_quadrature(plant, 1)
    pts = quad.points.copy()
    pts[len(pts) // 2, 0] -= 0.01  # off the face x_0 = l_0
    with pytest.raises(DomainError):
        conormal_trace(eigs, pts)


def test_empty_mode_list_gives_empty_rows(example_plant, example_eigs):
    quad = face_quadrature(example_plant, 2)
    pts = np.array([[0.3, 0.4], [1.0, 2.0], [2.0, 1.0]])
    none = example_eigs[:0]
    assert eval_phi(none, pts).shape == (0, 3)
    assert conormal_trace(none, quad.points).shape == (0, len(quad.points))
    assert trace_matrix(none, quad).shape == (0, len(quad.points))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=1, max_value=300),
    lengths=st.lists(st.floats(min_value=0.5, max_value=4.0), min_size=3, max_size=3),
    drift=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=3, max_size=3),
    reaction=st.floats(min_value=-5.0, max_value=30.0),
)
# cubes: many exact eigenvalue ties for the tie-break
@example(dim=2, count=150, lengths=[2.0] * 3, drift=[1.0] * 3, reaction=0.0)
@example(dim=3, count=300, lengths=[1.0] * 3, drift=[0.5] * 3, reaction=3.0)
def test_enumeration_matches_itertools_loop(dim, count, lengths, drift, reaction):
    plant = PlantConfig(dim=dim, lengths=lengths[:dim], drift=drift[:dim], reaction=reaction)
    want = ref_enumerate(plant, count)
    got = [(e.multi_index, e.lam, e.group_id) for e in enumerate_eigenpairs(plant, count)]
    assert got == want
    assert all(type(v) is int for k, _, _ in got for v in k)
    assert all(type(lam) is float for _, lam, _ in got)


@pytest.mark.parametrize(
    "lengths, count",
    [((1.0, 2.0), 400), ((1.0, 4.0), 14), ((1.0, 1.0, 3.0), 200)],
)
def test_enumeration_on_elongated_boxes(lengths, count):
    # a candidate ball in index space refused these boxes; the ellipsoid
    # scaled by l_i / l_min holds their first modes
    d = len(lengths)
    plant = PlantConfig(dim=d, lengths=lengths, drift=(0.8,) * d, reaction=2.0)
    got = [(e.multi_index, e.lam, e.group_id) for e in enumerate_eigenpairs(plant, count)]
    assert got == ref_enumerate(plant, count)
