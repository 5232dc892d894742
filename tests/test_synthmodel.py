import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraykit import lattice as lat
from arraykit import spectral, synthmodel

MM = 1e-3
BAND = (3e9, 20e9)


def demo_grid(kind="square", n=8):
    basis = lat.make_basis(kind, 15 * MM)
    recip = lat.ReciprocalBasis(basis, n)
    return basis, recip


def test_constant_model_values():
    m = synthmodel.ConstantModel(0.2 + 0j, BAND)
    assert synthmodel.eval_gamma(m, "xx", [100.0, -30.0], 5e9) == 0.2 + 0j
    assert synthmodel.eval_gamma(m, "yy", [0.0, 0.0], 20e9) == 0.2 + 0j
    assert synthmodel.eval_gamma(m, "xy", [100.0, 100.0], 5e9) == 0.0
    assert synthmodel.eval_gamma(m, "yx", [100.0, 100.0], 5e9) == 0.0


def test_out_of_band_rejected():
    m = synthmodel.ConstantModel(0.2, BAND)
    with pytest.raises(synthmodel.ModelError, match="band"):
        synthmodel.eval_gamma(m, "xx", [0.0, 0.0], 2e9)
    with pytest.raises(synthmodel.ModelError, match="band"):
        synthmodel.eval_gamma(m, "xx", [0.0, 0.0], 21e9)


def test_scan_poly_copol_definition():
    k_ref = 400.0
    m = synthmodel.ScanPolyModel(
        alpha=((3e9, 0j), (20e9, 0j)),
        beta=((3e9, 0.3 + 0j), (20e9, 0.3 + 0j)),
        k_ref=k_ref,
        band=BAND,
    )
    # |k_t| = k_ref -> gamma = beta
    val = synthmodel.eval_gamma(m, "xx", [k_ref, 0.0], 10e9)
    assert val == pytest.approx(0.3, abs=1e-15)
    val = synthmodel.eval_gamma(m, "xx", [0.0, 2 * k_ref], 10e9)
    assert val == pytest.approx(1.2, abs=1e-14)


def test_scan_poly_cross_pol_nulls_on_principal_planes():
    m = synthmodel.ScanPolyModel(
        alpha=((3e9, 0.1 + 0j),),
        beta=((3e9, 0.25 + 0j),),
        k_ref=419.0,
        band=BAND,
        cross_pol_level=0.5,
    )
    for kx in (0.0, 100.0, -250.0):
        assert synthmodel.eval_gamma(m, "xy", [kx, 0.0], 10e9) == 0.0
        assert synthmodel.eval_gamma(m, "yx", [0.0, kx], 10e9) == 0.0
    diag = synthmodel.eval_gamma(m, "xy", [200.0, 200.0], 10e9)
    assert abs(diag) == pytest.approx(0.5 * (200.0 * 200.0 / 419.0**2) * 0.25, rel=1e-12)


def test_scan_poly_profiles_interpolate():
    m = synthmodel.ScanPolyModel(
        alpha=((3e9, 0.5 + 0j), (20e9, 0.1 + 0.2j)),
        beta=((3e9, 0j),),
        k_ref=419.0,
        band=BAND,
    )
    mid = synthmodel.eval_gamma(m, "xx", [0.0, 0.0], 11.5e9)
    assert mid == pytest.approx(0.3 + 0.1j, abs=1e-14)


def test_scan_poly_knots_must_cover_band():
    with pytest.raises(synthmodel.ModelError, match="cover"):
        synthmodel.ScanPolyModel(
            alpha=((5e9, 0.1 + 0j), (18e9, 0.1 + 0j)),
            beta=((3e9, 0j), (20e9, 0j)),
            k_ref=400.0,
            band=BAND,
        )


def test_seeded_random_deterministic_and_passive():
    _, grid = demo_grid()
    m = synthmodel.SeededRandomModel(seed=7, smoothness=3, k_ref=419.0, band=BAND, level=0.8)
    freqs = np.linspace(3e9, 20e9, 4)
    a = synthmodel.sample_grid(m, grid, freqs, "xx")
    b = synthmodel.sample_grid(m, grid, freqs, "xx")
    np.testing.assert_array_equal(a.grid, b.grid)
    assert np.abs(a.grid).max() <= 0.8 + 1e-12
    # different pol pairs get independent fields
    c = synthmodel.sample_grid(m, grid, freqs, "yy")
    assert np.abs(a.grid - c.grid).max() > 1e-3


def test_seeded_random_different_seeds_differ():
    _, grid = demo_grid()
    m1 = synthmodel.SeededRandomModel(seed=1, smoothness=3, k_ref=419.0, band=BAND)
    m2 = synthmodel.SeededRandomModel(seed=2, smoothness=3, k_ref=419.0, band=BAND)
    a = synthmodel.sample_grid(m1, grid, [5e9], "xx")
    b = synthmodel.sample_grid(m2, grid, [5e9], "xx")
    assert np.abs(a.grid - b.grid).max() > 1e-3


def test_sample_grid_constant_uniform():
    _, grid = demo_grid(n=4)
    m = synthmodel.ConstantModel(0.3 - 0.1j, BAND)
    g = synthmodel.sample_grid(m, grid, [4e9, 8e9], "xx")
    assert g.grid.shape == (2, 4, 4)
    assert np.all(g.grid == 0.3 - 0.1j)


def reference_sample_grid(model, grid, frequencies, pol_pair):
    """The per-frequency loop that sample_grid replaced (reference oracle)."""
    freqs = np.asarray(frequencies, dtype=float)
    out = np.empty((freqs.size, grid.n_scan, grid.n_scan), dtype=complex)
    for i, f in enumerate(freqs):
        out[i] = synthmodel.eval_gamma(model, pol_pair, grid.points, float(f))
    return spectral.ActiveGammaGrid(freqs, out)


@pytest.mark.parametrize("kind", lat.LATTICE_KINDS)
@pytest.mark.parametrize(
    "model",
    [
        synthmodel.demo_model(),
        synthmodel.ScanPolyModel(((3e9, 0.3 - 0.2j),), ((3e9, 0.1 + 0.05j),), 419.0, BAND, 0.7),
        synthmodel.SeededRandomModel(seed=42, smoothness=4, k_ref=419.0, band=BAND, level=0.8),
        synthmodel.ConstantModel(0.25 - 0.1j, BAND),
    ],
    ids=["demo", "scan_poly_one_knot", "seeded_random", "constant"],
)
def test_sample_grid_bit_identical_to_frequency_loop(kind, model):
    _, grid = demo_grid(kind, n=24)
    freqs = np.linspace(3e9, 20e9, 171)
    for pair in spectral.POL_PAIRS:
        got = synthmodel.sample_grid(model, grid, freqs, pair)
        want = reference_sample_grid(model, grid, freqs, pair)
        assert got.grid.tobytes() == want.grid.tobytes()  # bit for bit, signed zeros included
        np.testing.assert_array_equal(got.frequencies, want.frequencies)


@pytest.mark.parametrize("pair", ["xx", "yy"])
def test_scan_poly_copol_grid_holds_one_grid(pair):
    # holding beta * q as a second grid while alpha is added would peak at about 2 grids above the start
    _, grid = demo_grid("triangular", n=24)
    freqs = np.linspace(3e9, 20e9, 171)
    m = synthmodel.demo_model()
    grid_bytes = freqs.size * grid.n_scan**2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = synthmodel.sample_grid(m, grid, freqs, pair)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * grid_bytes, (peak, grid_bytes)
    fk = freqs[:, None, None]
    q = (grid.points**2).sum(axis=-1) / m.k_ref**2
    assert got.grid.tobytes() == (m.alpha_at(fk) + m.beta_at(fk) * q).tobytes()  # same samples, bit for bit


def test_eval_gamma_frequency_axis_leads():
    m = synthmodel.SeededRandomModel(seed=3, smoothness=2, k_ref=419.0, band=BAND)
    freqs = np.array([4e9, 9e9, 15e9])
    kt = [120.0, -35.0]
    got = synthmodel.eval_gamma(m, "xy", kt, freqs)
    assert got.shape == (3,)
    for f, g in zip(freqs, got):
        assert g == synthmodel.eval_gamma(m, "xy", kt, float(f))
    stack = np.zeros((2, 5, 2))
    assert synthmodel.eval_gamma(m, "xx", stack, freqs).shape == (3, 2, 5)
    assert synthmodel.eval_gamma(m, "xx", stack, 5e9).shape == (2, 5)
    with pytest.raises(synthmodel.ModelError, match="1-D"):
        synthmodel.eval_gamma(m, "xx", kt, freqs[None, :])


def test_sample_grid_draws_terms_once_and_names_first_bad_frequency(monkeypatch):
    _, grid = demo_grid()
    m = synthmodel.SeededRandomModel(seed=7, smoothness=3, k_ref=419.0, band=BAND)
    calls = []
    terms = synthmodel.SeededRandomModel._terms

    def counted(self, pair):
        calls.append(pair)
        return terms(self, pair)

    monkeypatch.setattr(synthmodel.SeededRandomModel, "_terms", counted)
    synthmodel.sample_grid(m, grid, np.linspace(3e9, 20e9, 171), "xy")
    assert calls == ["xy"]
    with pytest.raises(synthmodel.ModelError, match=r"frequency 2\.1e\+10 Hz outside model band"):
        synthmodel.sample_grid(m, grid, [5e9, 21e9, 25e9], "xx")
    with pytest.raises(synthmodel.ModelError, match=r"frequency 2e\+09 Hz outside model band"):
        synthmodel.sample_grid(m, grid, [2e9, 21e9], "xx")


def test_scan_poly_real_profiles_give_real_copol_coupling_on_square():
    # real alpha/beta make the co-pol square-lattice grid conjugate-symmetric
    # (orthogonal k1, k2 keep the -N/2 edge row self-paired), so coupling is
    # real; oblique lattices and the odd-in-axis cross term break the edge
    # pairing and legitimately yield complex coefficients
    basis, grid = demo_grid("square", n=8)
    m = synthmodel.ScanPolyModel(
        alpha=((3e9, 0.3 + 0j),),
        beta=((3e9, 0.2 + 0j),),
        k_ref=419.0,
        band=BAND,
        cross_pol_level=0.4,
    )
    for pair in ("xx", "yy"):
        g = synthmodel.sample_grid(m, grid, [10e9], pair)
        c = spectral.gamma_to_coupling(g)
        assert np.abs(c.coeffs.imag).max() < 1e-10


def test_demo_model_vswr_shape():
    m = synthmodel.demo_model()
    # broadside |gamma| = |alpha(f)|: 0.5 at 3 GHz (VSWR 3), <= 1/3 from 4 GHz (VSWR <= 2)
    g3 = abs(synthmodel.eval_gamma(m, "xx", [0.0, 0.0], 3e9))
    assert g3 == pytest.approx(0.5, abs=1e-12)
    for f in np.linspace(4e9, 20e9, 33):
        g = abs(synthmodel.eval_gamma(m, "xx", [0.0, 0.0], float(f)))
        assert g <= 1 / 3 + 1e-12
    # passivity at the widest scan sample used in demos
    kt_max = 2 * math.pi * 20e9 / 3e8
    g = abs(synthmodel.eval_gamma(m, "xx", [kt_max, 0.0], 20e9))
    assert g <= 1.0


def max_block_norm(model, grid, freqs):
    """max over frequency and scan sample of the 2x2 block norm ||Gamma(m)||_2."""
    g = {pair: synthmodel.sample_grid(model, grid, freqs, pair).grid for pair in spectral.POL_PAIRS}
    blocks = np.stack([np.stack([g["xx"], g["xy"]], -1), np.stack([g["yx"], g["yy"]], -1)], -2)
    return float(np.linalg.norm(blocks, ord=2, axis=(-2, -1)).max())


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    smoothness=st.integers(1, 5),
    level=st.floats(0.05, 1.0),
    cross=st.floats(0.0, 3.0),
)
def test_seeded_random_block_norm_bounded_by_level(seed, smoothness, level, cross):
    basis, grid = demo_grid("triangular", n=8)
    model = synthmodel.SeededRandomModel(seed, smoothness, 419.0, BAND, level=level, cross_pol_level=cross)
    freqs = np.array([3e9, 11e9, 20e9])
    assert max_block_norm(model, grid, freqs) <= level * (1 + 1e-12)
    sets = {
        pair: spectral.gamma_to_coupling(synthmodel.sample_grid(model, grid, freqs, pair))
        for pair in spectral.POL_PAIRS
    }
    aperture = lat.enumerate_aperture(lat.HexagonAperture(1))
    net = spectral.assemble_finite_smatrix(sets, aperture)
    assert float(np.linalg.norm(net.s, ord=2, axis=(-2, -1)).max()) <= level * (1 + 1e-12)

