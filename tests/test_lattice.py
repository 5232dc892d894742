import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraykit import lattice as lat

MM = 1e-3


def test_square_basis_verbatim():
    b = lat.make_basis("square", 15 * MM)
    np.testing.assert_allclose(b.a1, [7.5 * MM, 0.0], atol=1e-18)
    np.testing.assert_allclose(b.a2, [0.0, 7.5 * MM], atol=1e-18)


def test_triangular_basis_verbatim():
    # direct numeric evaluation of the canonical column vectors
    e = 15 * MM / math.sqrt(3)
    a1 = np.array([-math.sin(math.pi / 12), math.cos(math.pi / 12)]) * e
    a2 = np.array([1 / math.sqrt(2), 1 / math.sqrt(2)]) * e
    b = lat.make_basis("triangular", 15 * MM)
    np.testing.assert_allclose(b.a1, a1, rtol=1e-15)
    np.testing.assert_allclose(b.a2, a2, rtol=1e-15)
    np.testing.assert_allclose(b.a1 * 1e3, [-2.24144, 8.36516], atol=5e-6)
    np.testing.assert_allclose(b.a2 * 1e3, [6.12372, 6.12372], atol=5e-6)


def test_triangular_norms_and_angle():
    b = lat.make_basis("triangular", 15 * MM)
    edge = 15 * MM / math.sqrt(3)
    assert np.linalg.norm(b.a1) == pytest.approx(edge, rel=1e-14)
    assert np.linalg.norm(b.a2) == pytest.approx(edge, rel=1e-14)
    cos_angle = float(b.a1 @ b.a2) / edge**2
    assert math.degrees(math.acos(cos_angle)) == pytest.approx(60.0, abs=1e-9)


def test_make_basis_rejects_bad_input():
    with pytest.raises(lat.LatticeError):
        lat.make_basis("square", 0.0)
    with pytest.raises(lat.LatticeError):
        lat.make_basis("square", -1.0)
    with pytest.raises(lat.LatticeError):
        lat.make_basis("hexagonal", 15 * MM)
    for lam in (float("nan"), float("inf"), 1e-160, 1e160, 10**200):
        with pytest.raises(lat.LatticeError):
            lat.make_basis("triangular", lam)


@pytest.mark.parametrize("kind", ["square", "triangular"])
def test_basis_vectors_follow_kind_and_lambda_h(kind):
    lam = 15 * MM
    if kind == "square":
        h = lam / 2
        a1, a2 = [h, 0.0], [0.0, h]
    else:
        e = lam / math.sqrt(3)
        s, c, r = math.sin(math.pi / 12), math.cos(math.pi / 12), 1 / math.sqrt(2)
        a1, a2 = [-s * e, c * e], [r * e, r * e]
    b = lat.LatticeBasis(kind, lam)
    assert np.array_equal(b.a1, a1) and np.array_equal(b.a2, a2)
    assert not (b.a1.flags.writeable or b.a2.flags.writeable)


def test_bases_compare_and_hash_by_kind_and_lambda_h():
    assert lat.make_basis("square", 0.015) == lat.make_basis("square", 0.015)
    assert hash(lat.make_basis("square", 0.015)) == hash(lat.make_basis("square", 0.015))
    assert lat.make_basis("triangular", 0.015) == lat.LatticeBasis("triangular", 0.015)
    assert lat.make_basis("square", 0.015) != lat.make_basis("triangular", 0.015)
    assert lat.make_basis("square", 0.015) != lat.make_basis("square", 0.016)
    assert len({lat.make_basis(k, 0.015) for k in ("square", "triangular", "square")}) == 2


def test_unit_cell_area_values():
    sq = lat.make_basis("square", 15 * MM)
    tr = lat.make_basis("triangular", 15 * MM)
    assert lat.unit_cell_area(sq) == pytest.approx(56.25e-6, rel=1e-14)
    # |a1 x a2| of the triangular columns = lambda^2 * sqrt(3) / 6
    assert lat.unit_cell_area(tr) == pytest.approx((15 * MM) ** 2 * math.sqrt(3) / 6, rel=1e-13)
    assert lat.unit_cell_area(tr) * 1e6 == pytest.approx(64.9519, abs=1e-4)
    ratio = lat.unit_cell_area(tr) / lat.unit_cell_area(sq)
    assert ratio == pytest.approx(1.15470, abs=1e-5)
    assert 10 * math.log10(ratio) == pytest.approx(0.6247, abs=1e-4)


@given(lam=st.floats(min_value=1e-4, max_value=10.0))
def test_area_ratio_is_scale_free(lam):
    ratio = lat.unit_cell_area(lat.make_basis("triangular", lam)) / lat.unit_cell_area(
        lat.make_basis("square", lam)
    )
    assert ratio == pytest.approx(2 / math.sqrt(3), rel=1e-12)


def test_element_position_examples():
    sq = lat.make_basis("square", 15 * MM)
    tr = lat.make_basis("triangular", 15 * MM)
    origin, right = lat.aperture_positions(sq, [(0, 0), (1, 0)])
    np.testing.assert_array_equal(origin, [0.0, 0.0])
    np.testing.assert_allclose(right, [7.5 * MM, 0.0], rtol=1e-15)
    np.testing.assert_allclose(
        lat.aperture_positions(tr, [(1, 1)])[0] * 1e3, [3.88228, 14.48888], atol=1e-5
    )
    assert lat.aperture_positions(tr, []).shape == (0, 2)


@given(
    n1=st.integers(-50, 50),
    n2=st.integers(-50, 50),
    m1=st.integers(-50, 50),
    m2=st.integers(-50, 50),
)
def test_element_position_is_linear(n1, n2, m1, m2):
    b = lat.make_basis("triangular", 15 * MM)
    lhs, p, q = lat.aperture_positions(b, [(n1 + m1, n2 + m2), (n1, n2), (m1, m2)])
    np.testing.assert_allclose(lhs, p + q, atol=1e-16, rtol=1e-12)


def test_reciprocal_square_closed_form():
    b = lat.make_basis("square", 15 * MM)
    r = lat.reciprocal_basis(b, 24)
    k = 4 * math.pi / (24 * 15 * MM)
    np.testing.assert_allclose(r.k1, [k, 0.0], rtol=1e-13, atol=1e-13 * k)
    np.testing.assert_allclose(r.k2, [0.0, k], rtol=1e-13, atol=1e-13 * k)
    assert k == pytest.approx(34.9066, abs=1e-4)


def test_reciprocal_triangular_closed_form():
    b = lat.make_basis("triangular", 15 * MM)
    r = lat.reciprocal_basis(b, 24)
    k = 4 * math.pi / (24 * 15 * MM)
    np.testing.assert_allclose(r.k1, k * np.array([-1, 1]) / math.sqrt(2), rtol=1e-12)
    np.testing.assert_allclose(
        r.k2, k * np.array([math.cos(math.pi / 12), math.sin(math.pi / 12)]), rtol=1e-12
    )


@settings(max_examples=60)
@given(
    kind=st.sampled_from(lat.LATTICE_KINDS),
    lam=st.floats(min_value=1e-3, max_value=1.0),
    half_n=st.integers(1, 64),
)
def test_reciprocal_identity_property(kind, lam, half_n):
    n = 2 * half_n
    b = lat.make_basis(kind, lam)
    r = lat.reciprocal_basis(b, n)
    scale = 2 * math.pi / n
    err = np.abs(r.row_matrix @ b.cell_matrix - scale * np.eye(2)).max()
    assert err < 1e-12 * scale


def test_reciprocal_rejects_bad_n():
    b = lat.make_basis("square", 15 * MM)
    for n in (0, -2, 1, 3, 23):
        with pytest.raises(lat.LatticeError):
            lat.reciprocal_basis(b, n)
    with pytest.raises(lat.LatticeError):
        lat.reciprocal_basis(b, 24.0)  # type: ignore[arg-type]


def test_enumerate_rectangle():
    idx = lat.enumerate_aperture(lat.RectangleAperture(0, 4, 0, 4))
    assert len(idx) == 25
    assert idx == sorted(idx)
    assert idx[0] == (0, 0) and idx[-1] == (4, 4)
    assert lat.enumerate_aperture(lat.RectangleAperture(0, 0, 0, 0)) == [(0, 0)]


@pytest.mark.parametrize("rings, count", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_enumerate_hexagon_counts(rings, count):
    idx = lat.enumerate_aperture(lat.HexagonAperture(rings))
    assert len(idx) == count == 1 + 3 * rings * (rings + 1)
    assert len(set(idx)) == len(idx)


def test_hexagon_ring_one_is_nearest_neighbors():
    tr = lat.make_basis("triangular", 15 * MM)
    idx = lat.enumerate_aperture(lat.HexagonAperture(1))
    ring = [i for i in idx if i != (0, 0)]
    edge = np.linalg.norm(tr.a1)
    for r in np.linalg.norm(lat.aperture_positions(tr, ring), axis=1):
        assert r == pytest.approx(edge, rel=1e-12)


def test_enumerate_triangle():
    assert len(lat.enumerate_aperture(lat.TriangleAperture(3))) == 6
    assert lat.enumerate_aperture(lat.TriangleAperture(1)) == [(0, 0)]


@pytest.mark.parametrize(
    "shape",
    [
        lat.RectangleAperture(0, 0, 0, 0),
        lat.RectangleAperture(-3, 4, 2, 9),
        lat.HexagonAperture(0),
        lat.HexagonAperture(1),
        lat.HexagonAperture(4),
        lat.TriangleAperture(1),
        lat.TriangleAperture(5),
        lat.ExplicitAperture(((2, 0), (0, 1), (-1, 7))),
    ],
)
def test_aperture_spread_and_size_from_parameters_match_enumeration(shape):
    assert lat.aperture_spread(shape) == lat.aperture_spread(lat.enumerate_aperture(shape))
    assert lat.aperture_size(shape) == len(lat.enumerate_aperture(shape))


def test_explicit_aperture_sorted_and_unique():
    shp = lat.ExplicitAperture(((2, 0), (0, 1), (0, 0)))
    assert lat.enumerate_aperture(shp) == [(0, 0), (0, 1), (2, 0)]
    with pytest.raises(lat.LatticeError):
        lat.ExplicitAperture(((0, 0), (0, 0)))
    with pytest.raises(lat.LatticeError):
        lat.ExplicitAperture(())


def test_centermost_index():
    assert lat.centermost_index(
        lat.make_basis("square", 15 * MM), lat.enumerate_aperture(lat.RectangleAperture(0, 4, 0, 4))
    ) == (2, 2)
    assert lat.centermost_index(
        lat.make_basis("triangular", 15 * MM), lat.enumerate_aperture(lat.HexagonAperture(2))
    ) == (0, 0)


def test_grating_onset_square_90deg():
    b = lat.make_basis("square", 15 * MM)
    f = lat.grating_lobe_onset(b, 90.0)
    assert f == pytest.approx(20e9, rel=1e-3)


def test_grating_onset_triangular_90deg():
    b = lat.make_basis("triangular", 15 * MM)
    f = lat.grating_lobe_onset(b, 90.0)
    assert f == pytest.approx(20e9, rel=1e-3)


def test_grating_onset_square_broadside():
    # onset at lambda = element spacing: c / (lambda_h / 2)
    b = lat.make_basis("square", 15 * MM)
    f = lat.grating_lobe_onset(b, 0.0)
    assert f == pytest.approx(40e9, rel=1e-3)


def test_grating_onset_monotone_in_theta():
    b = lat.make_basis("triangular", 15 * MM)
    onsets = [lat.grating_lobe_onset(b, t) for t in (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)]
    for lo, hi in zip(onsets[1:], onsets[:-1]):
        assert lo <= hi * (1 + 3e-4)


def reciprocal_vectors(basis):
    """Nonzero full-period reciprocal vectors G = i*b1 + j*b2, |i|, |j| <= 4 (b_i . a_j = 2*pi*delta_ij)."""
    ij = [(i, j) for i in range(-4, 5) for j in range(-4, 5) if (i, j) != (0, 0)]
    return np.array(ij, dtype=float) @ (2 * math.pi * np.linalg.inv(basis.cell_matrix))


def reference_onset(basis, scan_theta, phi_step_deg=0.1, rel_tol=1e-7):
    """The brute-force onset search the closed form replaced: bisection over a phi grid."""
    g = reciprocal_vectors(basis)
    sin_t = math.sin(math.radians(scan_theta))
    phi = np.radians(np.arange(0.0, 360.0, phi_step_deg))
    units = np.column_stack([np.cos(phi), np.sin(phi)])

    def lobe_visible(f):
        k0 = 2 * math.pi * f / 3.0e8
        d2 = (((k0 * sin_t) * units[:, None, :] - g[None, :, :]) ** 2).sum(axis=2)
        return bool((d2 <= k0 * k0).any())

    g_min = float(np.sqrt((g**2).sum(axis=1)).min())
    f_aligned = 3.0e8 * g_min / (2 * math.pi * (1 + sin_t))
    lo, hi = 0.5 * f_aligned, 1.5 * f_aligned
    while lobe_visible(lo):
        lo *= 0.5
    while not lobe_visible(hi):
        hi *= 2.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if lobe_visible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind", lat.LATTICE_KINDS)
def test_grating_onset_closed_form_matches_search(kind):
    # the onset scales as 1/lambda_h in both forms, so one cell size covers all
    b = lat.make_basis(kind, 15.789 * MM)
    for theta in (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0):
        closed = lat.grating_lobe_onset(b, theta)
        searched = reference_onset(b, theta)
        assert closed == pytest.approx(searched, rel=1e-7)
        # the lattice report prints GHz to 3 decimals; both must print alike
        assert f"{closed / 1e9:.3f}" == f"{searched / 1e9:.3f}"


@pytest.mark.parametrize("kind", lat.LATTICE_KINDS)
def test_grating_onset_lambda_h_form_matches_g_search(kind):
    # |G_min| = 4*pi/lambda_h on both canonical lattices
    for lambda_h_mm in (3.33, 7.5, 10.0, 15.0, 15.789, 27.27, 49.99):
        b = lat.make_basis(kind, lambda_h_mm * MM)
        g_min = float(np.sqrt((reciprocal_vectors(b) ** 2).sum(axis=1)).min())
        for theta in (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0):
            searched = 3.0e8 * g_min / (2 * math.pi * (1 + math.sin(math.radians(theta))))
            closed = lat.grating_lobe_onset(b, theta)
            assert closed == pytest.approx(searched, rel=1e-12)
            assert f"{closed / 1e9:.3f}" == f"{searched / 1e9:.3f}"


def test_grating_onset_rejects_bad_theta():
    b = lat.make_basis("square", 15 * MM)
    with pytest.raises(lat.LatticeError):
        lat.grating_lobe_onset(b, -1.0)
    with pytest.raises(lat.LatticeError):
        lat.grating_lobe_onset(b, 90.5)


def test_config_round_trip():
    cfg = {
        "kind": "triangular",
        "lambda_h_mm": 15.0,
        "n_scan": 24,
        "aperture": {"shape": "hexagon", "rings": 2},
    }
    basis, n_scan, shape = lat.lattice_from_config(cfg)
    assert basis.kind == "triangular" and n_scan == 24
    assert basis.lambda_h == pytest.approx(15 * MM, rel=1e-15)
    assert isinstance(shape, lat.HexagonAperture) and shape.rings == 2


def test_config_errors_name_field_paths():
    with pytest.raises(lat.LatticeError, match="lattice.lambda_h_mm"):
        lat.lattice_from_config({"kind": "square"})
    with pytest.raises(lat.LatticeError, match="lattice.kind"):
        lat.lattice_from_config({"kind": "diamond", "lambda_h_mm": 15})
    with pytest.raises(lat.LatticeError, match="lattice.n_scan"):
        lat.lattice_from_config({"kind": "square", "lambda_h_mm": 15, "n_scan": 7})
    with pytest.raises(lat.LatticeError, match="lattice.aperture.rings"):
        lat.lattice_from_config(
            {"kind": "square", "lambda_h_mm": 15, "aperture": {"shape": "hexagon"}}
        )


def test_all_aperture_shapes_from_config():
    assert isinstance(
        lat.shape_from_config({"shape": "rectangle", "n1": [0, 3], "n2": [1, 2]}),
        lat.RectangleAperture,
    )
    assert isinstance(lat.shape_from_config({"shape": "triangle", "rows": 4}), lat.TriangleAperture)
    explicit = lat.shape_from_config({"shape": "explicit", "indices": [[0, 0], [1, 0]]})
    assert explicit.indices == ((0, 0), (1, 0))
