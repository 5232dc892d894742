import math

import numpy as np
import pytest

from arraykit import lattice as lat
from arraykit import spectral
from arraykit.snp import PortMap

MM = 1e-3


def scan_setup(kind="square", n=24):
    basis = lat.make_basis(kind, 15 * MM)
    recip = lat.ReciprocalBasis(basis, n)
    return basis, recip, recip


def random_gamma(n=8, nfreq=3, seed=0):
    rng = np.random.default_rng(seed)
    g = 0.4 * (rng.standard_normal((nfreq, n, n)) + 1j * rng.standard_normal((nfreq, n, n)))
    return spectral.ActiveGammaGrid(np.linspace(3e9, 20e9, nfreq), g)


# --- scan grid ---------------------------------------------------------------


def test_scan_grid_origin_and_extremes():
    basis, recip, grid = scan_setup("square", 24)
    np.testing.assert_array_equal(grid.point(0, 0), [0.0, 0.0])
    np.testing.assert_allclose(grid.point(-12, 0), [-418.879, 0.0], atol=1e-3)
    np.testing.assert_allclose(grid.point(1, 0), recip.k1, rtol=1e-15)
    np.testing.assert_allclose(grid.point(0, -1), -recip.k2, rtol=1e-15)


def test_scan_grid_small_n():
    _, _, grid = scan_setup("square", 2)
    assert grid.points.shape == (2, 2, 2)
    with pytest.raises(IndexError):
        grid.point(1, 0)


def test_scan_grid_points_exact():
    _, recip, grid = scan_setup("triangular", 8)
    for m1 in range(-4, 4):
        for m2 in range(-4, 4):
            np.testing.assert_array_equal(grid.point(m1, m2), m1 * recip.k1 + m2 * recip.k2)


# --- transform ---------------------------------------------------------------


def test_constant_gamma_gives_delta_coupling():
    n = 8
    gamma0 = 0.3 - 0.1j
    g = spectral.ActiveGammaGrid([1e9], np.full((1, n, n), gamma0))
    c = spectral.gamma_to_coupling(g)
    center = c.coefficient(0, 0, 0)
    assert center == pytest.approx(gamma0, abs=1e-14)
    off = c.coeffs.copy()
    off[0, n // 2, n // 2] = 0
    assert np.abs(off).max() < 1e-14


def test_single_mode_gamma_gives_single_coefficient():
    n = 8
    m = np.arange(-n // 2, n // 2)
    grid = np.exp(-2j * np.pi * m[:, None] / n) * np.ones((1, n, n))
    g = spectral.ActiveGammaGrid([1e9], grid)
    c = spectral.gamma_to_coupling(g)
    assert c.coefficient(0, 1, 0) == pytest.approx(1.0, abs=1e-12)
    rest = c.coeffs.copy()
    rest[0, n // 2 + 1, n // 2] = 0
    assert np.abs(rest).max() < 1e-12


def test_fft_matches_direct_oracle():
    g = random_gamma(n=8, nfreq=2, seed=5)
    fast = spectral.gamma_to_coupling(g, method="fft")
    slow = spectral.gamma_to_coupling(g, method="direct")
    assert np.abs(fast.coeffs - slow.coeffs).max() < 1e-10


def test_direct_oracle_vs_handrolled_sum():
    # independent scalar triple-loop evaluation of a single coefficient
    g = random_gamma(n=4, nfreq=1, seed=9)
    c = spectral.gamma_to_coupling(g, method="direct")
    n = 4
    m = range(-2, 2)
    for n1, n2 in [(0, 0), (1, -2), (-1, 1)]:
        acc = 0.0 + 0.0j
        for m1 in m:
            for m2 in m:
                acc += g.grid[0, m1 + 2, m2 + 2] * np.exp(2j * np.pi * (n1 * m1 + n2 * m2) / n)
        assert c.coefficient(0, n1, n2) == pytest.approx(acc / n**2, abs=1e-13)


@pytest.mark.parametrize("kind", ["square", "triangular"])
@pytest.mark.parametrize("n", [4, 8, 24])
def test_round_trip_on_grid_points(kind, n):
    basis, recip, grid = scan_setup(kind, n)
    g = random_gamma(n=n, nfreq=2, seed=n)
    c = spectral.gamma_to_coupling(g)
    back = spectral.reconstruct_gamma_grid(c, grid)
    assert np.abs(back.grid - g.grid).max() < 1e-10


def reference_reconstruct(c, grid, basis):
    """The tensordot forward sum that reconstruct_gamma_grid replaced (reference oracle)."""
    n = c.n
    idx = np.arange(-(n // 2), n // 2, dtype=float)
    pos = idx[:, None, None] * basis.a1[None, None, :] + idx[None, :, None] * basis.a2[None, None, :]
    # phase[(m1,m2),(n1,n2)] = exp(-1j * k_m . R_n)
    phase = np.exp(-1j * np.tensordot(grid.points, pos, axes=([2], [2])))
    return np.einsum("fkl,ijkl->fij", c.coeffs, phase)


@pytest.mark.parametrize("kind", ["square", "triangular"])
@pytest.mark.parametrize("n", [2, 8, 24])
def test_reconstruct_matches_tensordot_reference(kind, n):
    basis, recip, grid = scan_setup(kind, n)
    c = spectral.gamma_to_coupling(random_gamma(n=n, nfreq=16, seed=n + 1))
    back = spectral.reconstruct_gamma_grid(c, grid)
    assert back.grid.shape == (16, n, n)
    assert np.abs(back.grid - reference_reconstruct(c, grid, basis)).max() < 1e-13


def test_coupling_to_gamma_batched_shape():
    basis, _, _ = scan_setup("triangular", 8)
    c = spectral.gamma_to_coupling(random_gamma(n=8, nfreq=3, seed=4))
    kts = np.random.default_rng(1).uniform(-400.0, 400.0, (2, 5, 2))
    got = spectral.coupling_to_gamma(c, kts, basis)
    assert got.shape == (3, 2, 5)
    for i in range(2):
        for j in range(5):
            one = spectral.coupling_to_gamma(c, kts[i, j], basis)
            np.testing.assert_allclose(got[:, i, j], one, rtol=0, atol=1e-14)


def test_coupling_to_gamma_single_term():
    basis, _, _ = scan_setup("square", 8)
    coeffs = np.zeros((1, 8, 8), complex)
    coeffs[0, 4, 4] = 0.3
    c = spectral.CouplingSet([1e9], coeffs)
    for kt in ([0.0, 0.0], [100.0, -47.0], [5000.0, 900.0]):
        assert spectral.coupling_to_gamma(c, kt, basis)[0] == pytest.approx(0.3, abs=1e-15)


def test_coupling_to_gamma_zero_kt_is_plain_sum():
    basis, _, _ = scan_setup("triangular", 6)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((1, 6, 6)) + 1j * rng.standard_normal((1, 6, 6))
    c = spectral.CouplingSet([1e9], coeffs)
    got = spectral.coupling_to_gamma(c, [0.0, 0.0], basis)[0]
    assert got == pytest.approx(coeffs.sum(), rel=1e-12)


def test_parseval_identity():
    g = random_gamma(n=24, nfreq=4, seed=2)
    c = spectral.gamma_to_coupling(g)
    assert spectral.parseval_mismatch(g, c) < 1e-10


def test_conjugate_symmetric_gamma_gives_real_coupling():
    n = 8
    rng = np.random.default_rng(7)
    base = rng.standard_normal((1, n, n)) + 1j * rng.standard_normal((1, n, n))
    g = np.empty_like(base)
    # impose gamma(-m) = conj(gamma(m)); the -N/2 row/column is self-paired
    m = np.arange(-n // 2, n // 2)
    for a, m1 in enumerate(m):
        for b, m2 in enumerate(m):
            am, bm = ((-m1 + n // 2) % n), ((-m2 + n // 2) % n)
            g[0, a, b] = 0.5 * (base[0, a, b] + np.conj(base[0, am, bm]))
    grid = spectral.ActiveGammaGrid([1e9], g)
    c = spectral.gamma_to_coupling(grid)
    assert np.abs(c.coeffs.imag).max() < 1e-10


def test_gamma_grid_validation():
    with pytest.raises(spectral.GridShapeError):
        spectral.ActiveGammaGrid([1e9], np.zeros((2, 4, 4), complex))
    with pytest.raises(spectral.GridShapeError):
        spectral.ActiveGammaGrid([1e9], np.zeros((1, 4, 6), complex))


@pytest.mark.parametrize("cls, name", [(spectral.ActiveGammaGrid, "grid"), (spectral.CouplingSet, "coeffs")])
def test_grid_containers_reject_non_finite_values(cls, name):
    # a NaN would be written as "nan" into the CSVs and into a .sNp that read_records rejects
    values = np.zeros((1, 4, 4), complex)
    values[0, 1, 2] = complex(0.0, np.nan)
    with pytest.raises(spectral.GridShapeError, match=f"{name} contains non-finite values"):
        cls([1e9], values)
    with pytest.raises(spectral.GridShapeError, match=rf"{name} must be \(F, N, N\)"):
        cls([1e9], np.zeros((1, 4, 6), complex))


# --- finite-array assembly ----------------------------------------------------


def constant_sets(gamma0, n=8, nfreq=2, cross=0.0):
    f = np.linspace(3e9, 20e9, nfreq)
    out = {}
    for pair in spectral.POL_PAIRS:
        val = gamma0 if pair in ("xx", "yy") else cross
        grid = spectral.ActiveGammaGrid(f, np.full((nfreq, n, n), val, complex))
        out[pair] = spectral.gamma_to_coupling(grid)
    return out


def test_single_element_dual_pol_assembly():
    sets = constant_sets(0.25 + 0.1j, cross=0.01)
    net = spectral.assemble_finite_smatrix(sets, [(0, 0)])
    assert net.port_count == 2
    assert net.s[0, 0, 0] == pytest.approx(0.25 + 0.1j, abs=1e-13)
    assert net.s[0, 0, 1] == pytest.approx(0.01, abs=1e-13)
    assert net.s[0, 1, 0] == pytest.approx(0.01, abs=1e-13)
    assert net.s[0, 1, 1] == pytest.approx(0.25 + 0.1j, abs=1e-13)


def test_constant_gamma_assembles_to_scaled_identity():
    gamma0 = 0.4 - 0.2j
    sets = constant_sets(gamma0)
    aperture = lat.enumerate_aperture(lat.RectangleAperture(0, 2, 0, 2))
    net = spectral.assemble_finite_smatrix(sets, aperture)
    assert net.port_count == 18
    eye = np.broadcast_to(np.eye(18), net.s.shape)
    np.testing.assert_allclose(net.s, gamma0 * eye, atol=1e-13)


def test_assembly_is_translation_invariant():
    basis, recip, grid = scan_setup("square", 8)
    g = random_gamma(n=8, nfreq=1, seed=12)
    sets = {"xx": spectral.gamma_to_coupling(g)}
    aperture = lat.enumerate_aperture(lat.RectangleAperture(0, 2, 0, 2))
    net = spectral.assemble_finite_smatrix(sets, aperture)
    pm = PortMap.lexicographic(aperture, pols=("x",))
    seen = {}
    for p, (ep, _) in enumerate(pm.entries):
        for q, (eq, _) in enumerate(pm.entries):
            d = (ep[0] - eq[0], ep[1] - eq[1])
            v = net.s[0, p, q]
            if d in seen:
                assert v == seen[d]
            seen[d] = v
    # diagonal entries all equal
    np.testing.assert_array_equal(np.diag(net.s[0]), np.full(9, net.s[0, 0, 0]))


def test_assembly_matches_coupling_lookup():
    g = random_gamma(n=8, nfreq=2, seed=4)
    c = spectral.gamma_to_coupling(g)
    net = spectral.assemble_finite_smatrix({"xx": c}, [(0, 0), (2, -1)])
    assert net.s[1, 0, 1] == pytest.approx(c.coefficient(1, -2, 1), abs=1e-15)
    assert net.s[1, 1, 0] == pytest.approx(c.coefficient(1, 2, -1), abs=1e-15)


def test_assembly_rejects_oversized_aperture():
    sets = {"xx": spectral.gamma_to_coupling(random_gamma(n=8, nfreq=1))}
    big = lat.enumerate_aperture(lat.RectangleAperture(0, 4, 0, 0))  # spread 4 > 8/2 - 1
    with pytest.raises(spectral.ApertureGridError, match="period"):
        spectral.assemble_finite_smatrix(sets, big)
    ok = lat.enumerate_aperture(lat.RectangleAperture(0, 3, 0, 3))  # spread 3 == 8/2 - 1
    spectral.assemble_finite_smatrix(sets, ok)


def test_assembly_rejects_partial_pol_pairs():
    g = random_gamma(n=4, nfreq=1)
    with pytest.raises(ValueError, match="pol pairs"):
        spectral.assemble_finite_smatrix(
            {"xx": spectral.gamma_to_coupling(g), "xy": spectral.gamma_to_coupling(g)}, [(0, 0)]
        )


@pytest.mark.parametrize("keys", [("xx", "yy"), ("xy",), ("yx", "yy"), ()])
def test_assembly_pols_follow_the_pair_keys(keys):
    c = spectral.gamma_to_coupling(random_gamma(n=4, nfreq=1))
    with pytest.raises(ValueError, match="one co-pol pair or all four pol pairs"):
        spectral.assemble_finite_smatrix({k: c for k in keys}, [(0, 0)])


def test_assembly_rejects_an_unknown_pair_key():
    c = spectral.gamma_to_coupling(random_gamma(n=4, nfreq=1))
    with pytest.raises(ValueError, match="pol_pair must be one of"):
        spectral.assemble_finite_smatrix({"zz": c}, [(0, 0)])


@pytest.mark.parametrize("dual", [False, True])
def test_assembly_rejects_port_map_over_other_elements(dual):
    # same port count and pols as the aperture needs, but not its elements
    c = spectral.gamma_to_coupling(random_gamma(n=8, nfreq=1))
    aperture = [(0, 0), (0, 1)]
    if dual:
        sets = {pair: c for pair in spectral.POL_PAIRS}
        pm = PortMap((((0, 0), "x"), ((0, 0), "y"), ((0, 1), "x"), ((2, 1), "y")))
    else:
        sets = {"xx": c}
        pm = PortMap.lexicographic([(0, 0), (2, 1)], pols=("x",))
    with pytest.raises(ValueError, match="does not cover exactly"):
        spectral.assemble_finite_smatrix(sets, aperture, pm)


def test_assembly_respects_custom_port_map():
    sets = constant_sets(0.5)
    pm = PortMap((((0, 0), "y"), ((0, 0), "x")))
    net = spectral.assemble_finite_smatrix(sets, [(0, 0)], port_map=pm)
    assert net.s[0, 0, 0] == pytest.approx(0.5, abs=1e-14)


def reference_assembly(sets, port_map):
    """The per-pol-pair block scatter the single gather replaced."""
    pols = port_map.pols
    n = next(iter(sets.values())).n
    n1 = np.array([e[0] for e, _ in port_map.entries])
    n2 = np.array([e[1] for e, _ in port_map.entries])
    pol = np.array([p for _, p in port_map.entries])
    half = n // 2
    freqs = next(iter(sets.values())).frequencies
    s = np.empty((freqs.size, len(port_map), len(port_map)), dtype=complex)
    for a in pols:
        rows = np.nonzero(pol == a)[0]
        for b in pols:
            cols = np.nonzero(pol == b)[0]
            d1 = n1[rows][:, None] - n1[cols][None, :]
            d2 = n2[rows][:, None] - n2[cols][None, :]
            s[np.ix_(range(freqs.size), rows, cols)] = sets[a + b].coeffs[:, d1 + half, d2 + half]
    return s


@pytest.mark.parametrize("kind, shape", [
    ("square", lat.RectangleAperture(0, 4, -2, 2)),
    ("triangular", lat.HexagonAperture(2)),
])
@pytest.mark.parametrize("pairs", ["dual", "xx", "yy", "shuffled"])
def test_assembly_matches_block_scatter_reference(kind, shape, pairs):
    aperture = lat.enumerate_aperture(shape)
    keys = spectral.POL_PAIRS if pairs in ("dual", "shuffled") else (pairs,)
    sets = {
        pair: spectral.gamma_to_coupling(random_gamma(n=12, nfreq=3, seed=20 + i))
        for i, pair in enumerate(keys)
    }
    pols = ("x", "y") if len(keys) == 4 else (pairs[0],)
    pm = PortMap.lexicographic(aperture, pols=pols)
    if pairs == "shuffled":
        order = np.random.default_rng(5).permutation(len(pm))
        pm = PortMap(tuple(pm.entries[i] for i in order))
    net = spectral.assemble_finite_smatrix(sets, aperture, pm)
    assert net.s.flags["C_CONTIGUOUS"]
    assert np.array_equal(net.s, reference_assembly(sets, pm))


# --- CSV ----------------------------------------------------------------------


def test_csv_rows_shapes_and_headers():
    g = random_gamma(n=4, nfreq=2, seed=1)
    c = spectral.gamma_to_coupling(g)
    grows = spectral.gamma_csv_rows(g)
    crows = spectral.coupling_csv_rows(c)
    assert grows[0] == "freq_hz,m1,m2,re,im"
    assert crows[0] == "freq_hz,n1,n2,re,im"
    assert len(grows) == len(crows) == 1 + 2 * 16
    f, m1, m2, re, im = grows[1].split(",")
    assert (int(m1), int(m2)) == (-2, -2)
    assert complex(float(re), float(im)) == pytest.approx(g.grid[0, 0, 0], rel=1e-10)


def reference_grid_rows(header, freqs, grids):
    """The per-row f-string loop the shared row formatter replaced."""
    n = grids.shape[1]
    h = n // 2
    rows = [header]
    for f_hz, mat in zip(freqs, grids):
        for i1 in range(n):
            for i2 in range(n):
                v = mat[i1, i2]
                rows.append(f"{f_hz:.9e},{i1 - h},{i2 - h},{v.real:.12e},{v.imag:.12e}")
    return rows


def test_csv_rows_match_fstring_loop():
    g = random_gamma(n=6, nfreq=3, seed=3)
    grid = g.grid.copy()
    grid[0, 0, :4] = [0.0, -0.0 - 0.0j, 1e-300 - 1e300j, 123456789.0]
    g = spectral.ActiveGammaGrid(np.array([3e9, 7.123456789012e9, 2e10]), grid)
    c = spectral.gamma_to_coupling(g)
    assert spectral.gamma_csv_rows(g) == reference_grid_rows("freq_hz,m1,m2,re,im", g.frequencies, g.grid)
    assert spectral.coupling_csv_rows(c) == reference_grid_rows("freq_hz,n1,n2,re,im", c.frequencies, c.coeffs)


def test_csv_rows_across_chunks_match_fstring_loop():
    # 20 frequencies of 8 x 8 points: 1280 rows, so a formatting chunk ends inside a frequency block;
    # the transposed grid is not contiguous
    g = random_gamma(n=8, nfreq=20, seed=4)
    g = spectral.ActiveGammaGrid(g.frequencies, g.grid.transpose(0, 2, 1))
    assert spectral.gamma_csv_rows(g) == reference_grid_rows("freq_hz,m1,m2,re,im", g.frequencies, g.grid)
    assert spectral.gamma_csv_rows(spectral.ActiveGammaGrid(np.array([]), np.zeros((0, 4, 4)))) == ["freq_hz,m1,m2,re,im"]
