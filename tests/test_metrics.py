import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arraykit import excitation as exc
from arraykit import lattice as lat
from arraykit import metrics, snp, spectral, synthmodel
from arraykit.constants import C0
from arraykit.excitation import ExcitationPlan, ScanSpec, TaperSpec, build_plan
from arraykit.snp import NetworkData, PortMap

MM = 1e-3


def one_port(values, freqs=None):
    values = np.asarray(values, complex)
    freqs = np.linspace(1e9, 2e9, values.size) if freqs is None else freqs
    return NetworkData(freqs, values.reshape(-1, 1, 1), 50.0)


# --- active reflection ----------------------------------------------------------


def test_active_reflection_one_port_any_weight():
    net = one_port([0.3 - 0.2j, 0.5j])
    for w in (1.0, -2.0, 0.3 + 4j):
        plan = ExcitationPlan(np.array([w]))
        np.testing.assert_allclose(
            metrics.active_reflection(net, plan, 0), net.s[:, 0, 0], rtol=1e-15
        )


def test_active_reflection_symmetric_coupler_equal_weights():
    s = np.array([[[0, 0.4 - 0.1j], [0.4 - 0.1j, 0]]])
    net = NetworkData([1e9], s, 50.0)
    plan = ExcitationPlan(np.array([1.0, 1.0]))
    for p in (0, 1):
        assert metrics.active_reflection(net, plan, p)[0] == pytest.approx(0.4 - 0.1j)


def test_active_reflection_single_excited_port():
    rng = np.random.default_rng(0)
    s = 0.4 * (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
    net = NetworkData([1e9, 2e9], s, 50.0)
    w = np.zeros(3, complex)
    w[1] = 2.0 - 1.0j
    gam = metrics.active_reflection(net, ExcitationPlan(w), 1)
    np.testing.assert_allclose(gam, s[:, 1, 1], rtol=1e-15)


@given(
    scale_re=st.floats(-3, 3),
    scale_im=st.floats(-3, 3),
)
def test_active_reflection_scale_invariant(scale_re, scale_im):
    c = complex(scale_re, scale_im)
    if abs(c) < 1e-3:
        return
    rng = np.random.default_rng(1)
    s = 0.3 * (rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
    net = NetworkData([1e9], s, 50.0)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g1 = metrics.active_reflection(net, ExcitationPlan(w), 2)
    g2 = metrics.active_reflection(net, ExcitationPlan(c * w), 2)
    np.testing.assert_allclose(g1, g2, rtol=1e-9, atol=1e-12)


def test_active_reflection_zero_weight_rejected():
    net = one_port([0.1])
    s = np.zeros((1, 2, 2), complex)
    net2 = NetworkData([1e9], s, 50.0)
    with pytest.raises(metrics.MetricError):
        metrics.active_reflection(net2, ExcitationPlan(np.array([1.0, 0.0])), 1)


# --- vswr -----------------------------------------------------------------------


def test_vswr_values():
    assert metrics.vswr(0.0) == 1.0
    assert metrics.vswr(1 / 3) == pytest.approx(2.0, rel=1e-14)
    assert metrics.vswr(0.5j) == pytest.approx(3.0, rel=1e-14)
    assert metrics.vswr(1.0) == 100.0
    assert metrics.vswr(2.5) == 100.0


def test_vswr_monotone():
    mags = np.linspace(0, 0.97, 300)
    vals = metrics.vswr(mags)
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) > 0)


# --- orthogonal coupling ---------------------------------------------------------


def dual_pol_net(s_cross=0.0, p_elems=1):
    pm = PortMap.lexicographic([(i, 0) for i in range(p_elems)])
    p = len(pm)
    s = np.zeros((2, p, p), complex)
    s[:, 0, 0] = 0.2
    if s_cross:
        i_x = pm.port_of((0, 0), "x")
        i_y = pm.port_of((0, 0), "y")
        s[:, i_y, i_x] = s_cross
        s[:, i_x, i_y] = s_cross
    return NetworkData([1e9, 2e9], s, 50.0), pm


def test_orthogonal_coupling_block_diagonal_floor():
    net, pm = dual_pol_net(s_cross=0.0, p_elems=2)
    w = np.zeros(len(pm), complex)
    w[pm.port_of((0, 0), "x")] = 1.0
    w[pm.port_of((1, 0), "x")] = 0.5
    out = metrics.orthogonal_coupling(net, pm, ExcitationPlan(w), (0, 0), "x")
    np.testing.assert_array_equal(out, [-200.0, -200.0])


def test_orthogonal_coupling_single_cross_term():
    s_cross = 0.05 * np.exp(1j)
    net, pm = dual_pol_net(s_cross=s_cross)
    w = np.zeros(len(pm), complex)
    w[pm.port_of((0, 0), "x")] = 2.0
    out = metrics.orthogonal_coupling(net, pm, ExcitationPlan(w), (0, 0), "x")
    np.testing.assert_allclose(out, 20 * math.log10(abs(s_cross)), rtol=1e-12)


def test_orthogonal_coupling_requires_co_located_weight():
    net, pm = dual_pol_net(s_cross=0.1, p_elems=2)
    w = np.zeros(len(pm), complex)
    w[pm.port_of((1, 0), "x")] = 1.0
    with pytest.raises(metrics.MetricError):
        metrics.orthogonal_coupling(net, pm, ExcitationPlan(w), (0, 0), "x")


# --- normalized gain -------------------------------------------------------------


def test_normalized_gain_values():
    assert metrics.normalized_gain(0.0, 1.0) == 1.0
    assert metrics.normalized_gain(0.5, 1.0) == pytest.approx(0.75, rel=1e-14)
    assert float(metrics.db10(metrics.normalized_gain(0.5, 1.0))) == pytest.approx(-1.249, abs=5e-4)
    assert float(metrics.db10(metrics.normalized_gain(0.0, 0.95))) == pytest.approx(-0.22, abs=5e-3)


@given(mag=st.floats(0, 0.999), eff=st.floats(0.01, 1.0))
def test_normalized_gain_bounds(mag, eff):
    g = metrics.normalized_gain(mag, eff)
    assert 0.0 <= g <= 1.0
    if mag == 0.0:
        assert g == eff


def test_normalized_gain_rejects_bad_efficiency():
    for eff in (0.0, -0.5, 1.5):
        with pytest.raises(metrics.MetricError):
            metrics.normalized_gain(0.1, eff)


# --- ideal embedded element -------------------------------------------------------


def test_ideal_embedded_gain_square_cell_20ghz():
    # 4*pi*A/lambda^2 = pi for a 56.25 mm^2 cell at 20 GHz
    g0 = float(metrics.ideal_embedded_gain(56.25e-6, 20e9, 0.0))
    assert g0 == pytest.approx(10 * math.log10(math.pi), abs=1e-12)
    assert g0 == pytest.approx(4.971, abs=1e-3)
    g60 = float(metrics.ideal_embedded_gain(56.25e-6, 20e9, 60.0))
    assert g0 - g60 == pytest.approx(3.010, abs=1e-3)
    assert float(metrics.ideal_embedded_gain(56.25e-6, 20e9, 90.0)) == -200.0


def test_ideal_embedded_gain_lattice_offset():
    sq = lat.unit_cell_area(lat.make_basis("square", 15 * MM))
    tr = lat.unit_cell_area(lat.make_basis("triangular", 15 * MM))
    for f, theta in ((4e9, 0.0), (9e9, 30.0), (18e9, 60.0)):
        delta = float(metrics.ideal_embedded_gain(tr, f, theta)) - float(
            metrics.ideal_embedded_gain(sq, f, theta)
        )
        assert delta == pytest.approx(0.625, abs=5e-4)


# --- array factor -----------------------------------------------------------------


def test_single_element_pattern_equals_ideal():
    th = np.linspace(-90, 90, 181)
    pat = metrics.array_factor_pattern(
        np.array([[0.0, 0.0]]), np.array([1.0 + 0j]), 10e9, th, 0.0, 56.25e-6
    )
    ideal = metrics.ideal_embedded_gain(56.25e-6, 10e9, np.abs(th))
    np.testing.assert_allclose(pat.gain_dbi, ideal, atol=1e-12)
    np.testing.assert_allclose(np.abs(pat.field), 1.0, atol=1e-14)


def test_pattern_theta_grid_bounds():
    with pytest.raises(metrics.MetricError):
        metrics.array_factor_pattern(
            np.array([[0.0, 0.0]]), np.array([1.0 + 0j]), 10e9, np.array([95.0]), 0.0, 56.25e-6
        )
    with pytest.raises(metrics.MetricError):
        metrics.ideal_embedded_gain(56.25e-6, 10e9, -5.0)


def test_two_element_null():
    d = 7.5 * MM
    f = 25e9
    k = 2 * math.pi * f / 3e8
    theta_null = math.degrees(math.asin(math.pi / (k * d)))
    af = metrics.array_factor(
        np.array([[0.0, 0.0], [d, 0.0]]), np.array([1.0, 1.0]), f, [theta_null], 0.0
    )
    assert abs(af[0]) < 1e-12


def hex2_positions() -> np.ndarray:
    return lat.aperture_positions(lat.make_basis("triangular", 15 * MM), lat.enumerate_aperture(lat.HexagonAperture(2)))


def test_array_factor_holds_one_block_of_the_phase_matrix():
    # a 3601-sample cut over 19 elements: the whole complex phase matrix with its temporaries took 2.2 MB
    pos, theta = hex2_positions(), np.linspace(-90.0, 90.0, 3601)
    w = np.ones(len(pos), complex)
    metrics.array_factor(pos, w, 18e9, theta, 60.0)  # numpy's first calls allocate what later calls reuse
    tracemalloc.start()
    try:
        metrics.array_factor(pos, w, 18e9, theta, 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "block, samples",
    # short of a block, whole blocks, one sample past a block (it joins the block before), part way into a block
    [(4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (4, 8), (4, 9), (4, 11), (256, 257), (256, 3601)],
)
def test_array_factor_blocks_equal_the_one_shot_product(monkeypatch, block, samples):
    monkeypatch.setattr(metrics, "_AF_THETA_BLOCK", block)
    rng = np.random.default_rng(samples)
    pos = hex2_positions()
    w = rng.standard_normal(len(pos)) + 1j * rng.standard_normal(len(pos))
    theta = np.sort(rng.uniform(-90.0, 90.0, samples))
    f, phi = 18e9, 30.0
    k0 = 2 * math.pi * f / C0
    kt = k0 * np.sin(np.radians(theta))[:, None] * np.array([math.cos(math.radians(phi)), math.sin(math.radians(phi))])
    assert np.array_equal(metrics.array_factor(pos, w, f, theta, phi), np.exp(1j * (kt @ pos.T)) @ w)


def test_array_factor_peak_follows_scan():
    basis = lat.make_basis("square", 15 * MM)
    aperture = lat.enumerate_aperture(lat.RectangleAperture(0, 4, 0, 4))
    pm = PortMap.lexicographic(aperture, pols=("x",))
    pos = lat.aperture_positions(basis, aperture)
    th = np.arange(-90.0, 90.5, 0.5)
    for theta0 in (0.0, 30.0, 60.0):
        plan = build_plan(basis, aperture, pm, TaperSpec("uniform"), ScanSpec(theta0, 0.0, 10e9), "x")
        pat = metrics.array_factor_pattern(pos, plan.weights, 10e9, th, 0.0, 56.25e-6)
        peak = th[int(np.argmax(np.abs(pat.field)))]
        assert peak == theta0


def test_uniform_5x5_beamwidth_and_sidelobe():
    basis = lat.make_basis("square", 15 * MM)
    aperture = lat.enumerate_aperture(lat.RectangleAperture(0, 4, 0, 4))
    pos = lat.aperture_positions(basis, aperture)
    w = np.ones(len(aperture), complex)
    area = lat.unit_cell_area(basis)
    th = np.arange(0.0, 90.001, 0.02)

    def pattern(f):
        return metrics.array_factor_pattern(pos, w, f, th, 0.0, area)

    def hpbw(p):
        rel = p.gain_dbi - p.gain_dbi[0]
        below = np.nonzero(rel < -3.0)[0]
        return th[below[0]]

    # main lobe narrows with frequency
    assert hpbw(pattern(9e9)) < hpbw(pattern(4e9))

    # first sidelobe of the realized-gain cut at 18 GHz: about -13.3 dB
    p = pattern(18e9)
    rel = p.gain_dbi - p.gain_dbi[0]
    minima = np.nonzero((rel[1:-1] < rel[:-2]) & (rel[1:-1] <= rel[2:]))[0] + 1
    first_null = minima[0]
    second_null = minima[1] if len(minima) > 1 else len(th) - 1
    sidelobe = rel[first_null:second_null].max()
    assert sidelobe == pytest.approx(-13.3, abs=0.5)


# --- sweeps -----------------------------------------------------------------------


def assembled_demo(kind="square", n=24, nfreq=6, cross=0.5, shape=None):
    basis = lat.make_basis(kind, 15 * MM)
    recip = lat.ReciprocalBasis(basis, n)
    model = synthmodel.demo_model(cross_pol_level=cross)
    freqs = np.linspace(3e9, 20e9, nfreq)
    sets = {
        pair: spectral.gamma_to_coupling(synthmodel.sample_grid(model, recip, freqs, pair))
        for pair in spectral.POL_PAIRS
    }
    aperture = lat.enumerate_aperture(shape or lat.HexagonAperture(2))
    pm = PortMap.lexicographic(aperture)
    net = spectral.assemble_finite_smatrix(sets, aperture, pm)
    return basis, aperture, pm, net


def test_sweep_empty_scan_list():
    basis, aperture, pm, net = assembled_demo(nfreq=2)
    out = metrics.sweep(net, pm, basis, aperture, TaperSpec("uniform"), [])
    assert out == []


def test_sweep_lengths_and_labels():
    basis, aperture, pm, net = assembled_demo(nfreq=3)
    out = metrics.sweep(
        net, pm, basis, aperture, TaperSpec("gaussian", 17 * MM),
        ["broadside", "E60", "H60", "D60"],
    )
    assert [sw.label for sw in out] == ["broadside", "E60", "H60", "D60"]
    assert all(sw.gamma.shape == sw.coupling.shape == (3,) for sw in out)
    assert out[1].theta_deg == 60.0


def test_sweep_vswr_worsens_with_scan():
    # demo model mismatch grows quadratically with |k_t|
    basis, aperture, pm, net = assembled_demo(nfreq=5)
    out = metrics.sweep(
        net, pm, basis, aperture, TaperSpec("gaussian", 17 * MM), ["broadside", "E60"]
    )
    broadside, e60 = metrics.vswr(out[0].gamma), metrics.vswr(out[1].gamma)
    assert np.all(e60 >= broadside - 1e-9)
    assert e60[-1] > broadside[-1]


def test_sweep_dplane_coupling_exceeds_broadside():
    # aperture large enough that the Gaussian taper is not sharply truncated;
    # a hard-truncated taper leaks a scan-independent coupling baseline that
    # can mask the D-plane trend at the low band edge
    basis, aperture, pm, net = assembled_demo(nfreq=5, shape=lat.RectangleAperture(0, 10, 0, 10))
    out = metrics.sweep(
        net, pm, basis, aperture, TaperSpec("gaussian", 17 * MM), ["broadside", "D60"]
    )
    assert np.all(out[1].coupling > out[0].coupling)


def test_sweep_chain_constant_gamma():
    gamma0 = 0.25 - 0.15j
    n = 8
    freqs = np.linspace(3e9, 20e9, 4)
    sets = {}
    for pair in spectral.POL_PAIRS:
        val = gamma0 if pair in ("xx", "yy") else 0.0
        g = spectral.ActiveGammaGrid(freqs, np.full((4, n, n), val, complex))
        sets[pair] = spectral.gamma_to_coupling(g)
    basis = lat.make_basis("triangular", 15 * MM)
    aperture = lat.enumerate_aperture(lat.HexagonAperture(1))
    pm = PortMap.lexicographic(aperture)
    net = spectral.assemble_finite_smatrix(sets, aperture, pm)
    out = metrics.sweep(
        net, pm, basis, aperture, TaperSpec("gaussian", 17 * MM), ["broadside", "D45"]
    )
    want = (1 + abs(gamma0)) / (1 - abs(gamma0))
    for sw in out:
        np.testing.assert_allclose(metrics.vswr(sw.gamma), want, rtol=1e-10)
        np.testing.assert_allclose(sw.coupling, 0.0, atol=1e-12)
        np.testing.assert_allclose(sw.gamma, gamma0, atol=1e-12)


def test_parse_scan_label():
    assert metrics.parse_scan_label("broadside", "x") == ("broadside", 0.0, 0.0)
    assert metrics.parse_scan_label("E60", "x") == ("E60", 60.0, 0.0)
    assert metrics.parse_scan_label("H60", "x") == ("H60", 60.0, 90.0)
    assert metrics.parse_scan_label("E60", "y") == ("E60", 60.0, 90.0)
    assert metrics.parse_scan_label("D45", "y") == ("D45", 45.0, 45.0)
    assert metrics.parse_scan_label("T30P120", "x") == ("T30P120", 30.0, 120.0)
    with pytest.raises(metrics.MetricError):
        metrics.parse_scan_label("Q60", "x")


def test_table_rows_schemas():
    basis, aperture, pm, net = assembled_demo(nfreq=2)
    sweeps = metrics.sweep(net, pm, basis, aperture, TaperSpec("uniform"), ["broadside"])
    assert metrics.vswr_table_rows(sweeps)[0] == "freq_hz,plane,theta_deg,vswr,gamma_re,gamma_im"
    assert metrics.coupling_table_rows(sweeps)[0] == "freq_hz,plane,theta_deg,coupling_db"
    assert metrics.gain_table_rows(sweeps)[0] == "freq_hz,plane,theta_deg,gain_db"
    assert len(metrics.vswr_table_rows(sweeps)) == 3
    row = metrics.vswr_table_rows(sweeps)[1].split(",")
    assert row[1] == "broadside" and float(row[2]) == 0.0
    pat = metrics.array_factor_pattern(
        lat.aperture_positions(basis, aperture), np.ones(len(aperture)), 9e9,
        np.array([-10.0, 0.0, 10.0]), 0.0, lat.unit_cell_area(basis), label="E",
    )
    rows = metrics.pattern_table_rows([pat])
    assert rows[0] == "freq_hz,plane,theta_deg,gain_dbi"
    assert len(rows) == 4


# --- reference oracles: the per-frequency sweep loop and the f-string row loops ---


def reference_sweep(net, pm, basis, aperture, taper, scans, pol="x"):
    """(label, theta, gamma, coupling) per scan from per-frequency plans and the full S @ a."""
    element = lat.centermost_index(basis, aperture)
    port = pm.port_of(element, pol)
    other = pm.port_of(element, "y" if pol == "x" else "x") if len(pm.pols) == 2 else None
    pos = lat.aperture_positions(basis, aperture)
    amps = exc.taper_amplitudes(taper, pos - lat.centroid(pos))
    out = []
    for label in scans:
        name, theta, phi = metrics.parse_scan_label(label, pol)
        weights = np.zeros((net.frequencies.size, len(pm)), complex)
        for i, f in enumerate(net.frequencies):
            phases = np.exp(-1j * (pos @ exc.scan_wavevector(ScanSpec(theta, phi, float(f)))))
            for e, idx in enumerate(aperture):
                weights[i, pm.port_of(idx, pol)] = amps[e] * phases[e]
        b = np.einsum("fpq,fq->fp", net.s, weights)
        gamma = b[:, port] / weights[:, port]
        coupling = None if other is None else np.abs(b[:, other]) / np.abs(weights[:, port])
        out.append((name, theta, gamma, coupling))
    return out


def single_pol(net, pm, pol):
    """The sub-network of one polarization's ports, with its own port map."""
    ports = [i for i, (_, p) in enumerate(pm.entries) if p == pol]
    sub = NetworkData(net.frequencies, net.s[:, ports][:, :, ports], net.z_ref)
    return sub, PortMap(tuple(pm.entries[i] for i in ports))


@pytest.mark.parametrize("pols", ["xy", "x", "y"])
def test_sweep_matches_per_frequency_loop(pols):
    basis, aperture, pm, net = assembled_demo("triangular", nfreq=9)
    if len(pols) == 1:
        net, pm = single_pol(net, pm, pols)
    pol = pols[-1]
    taper = TaperSpec("gaussian", 15 * MM)
    scans = ["broadside", "E60", "H30", "D45", "T37.3P12.9", "T59.9P89.1"]
    got = metrics.sweep(net, pm, basis, aperture, taper, scans, pol=pol)
    want = reference_sweep(net, pm, basis, aperture, taper, scans, pol=pol)
    for sw, (name, theta, gamma, coupling) in zip(got, want, strict=True):
        assert (sw.label, sw.theta_deg) == (name, theta)
        np.testing.assert_allclose(sw.gamma, gamma, rtol=0, atol=1e-13)
        if coupling is None:
            assert sw.coupling is None
        else:
            np.testing.assert_allclose(sw.coupling, coupling, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["square", "triangular"])
@pytest.mark.parametrize("pols", ["xy", "x", "y"])
def test_sweep_rows_of_streamed_records_equal_the_sweep_bit_for_bit(kind, pols):
    basis, aperture, pm, net = assembled_demo(kind, nfreq=5)
    if len(pols) == 1:
        net, pm = single_pol(net, pm, pols)
    pol = pols[-1]
    taper = TaperSpec("gaussian", 17 * MM)
    scans = ["broadside", "E60", "D45", "T37.3P12.9"]
    text = snp.write_touchstone(net, "ma")
    read = metrics.probed_ports(pm, basis, aperture, pol)
    assert len(read) == len(pols)
    # only the probed rows of each record are kept as the records stream past
    records = snp.read_records(text, net.port_count)
    next(records)
    freqs, rows = snp.stack_records(((f_hz, s[read]) for f_hz, s in records), (len(read), net.port_count))
    weights_at = exc.weight_function(basis, aperture, pm, taper, pol)
    parsed = [metrics.parse_scan_label(label, pol) for label in scans]
    got = metrics.sweep_rows(freqs, rows, read, weights_at, parsed)
    want = metrics.sweep(snp.parse_touchstone(text, net.port_count), pm, basis, aperture, taper, scans, pol=pol)
    for g, w in zip(got, want, strict=True):
        assert (g.label, g.theta_deg) == (w.label, w.theta_deg)
        assert g.frequencies.tobytes() == w.frequencies.tobytes()
        assert g.gamma.tobytes() == w.gamma.tobytes()
        assert (g.coupling is None) == (w.coupling is None) == (len(pols) == 1)
        assert g.coupling is None or g.coupling.tobytes() == w.coupling.tobytes()
    with pytest.raises(metrics.MetricError, match="outside"):
        metrics.sweep_rows(freqs, rows, [net.port_count], weights_at, parsed)


def reference_table_rows(header, sweeps, columns):
    rows = [header]
    for sw in sweeps:
        for i, f in enumerate(sw.frequencies):
            rows.append(f"{f:.9e},{sw.label},{sw.theta_deg:g}," + columns(sw, i))
    return rows


def test_table_rows_match_fstring_loops():
    basis, aperture, pm, net = assembled_demo(nfreq=5)
    scans = ["broadside", "E60", "T7.25P-30", "D0.001"]
    sweeps = metrics.sweep(net, pm, basis, aperture, TaperSpec("uniform"), scans)
    # exercise the VSWR cap and sentinel, the dB floor and signed zeros as well
    sweeps.append(metrics.ScanSweep(
        "cap", 1e-7, np.array([1e9, 2e9, 3e9]),
        np.array([complex(1.5, -0.0), complex(-0.0, 1e-300), 0.995]), np.array([0.0, 1.0, 1e-300]),
    ))
    sweeps.append(metrics.ScanSweep("floor", 90.0, np.array([1e9, 2e9]), np.array([1.0, -1j]), np.array([1e-10, 2.0])))

    def vswr_cols(sw, i):
        g = sw.gamma[i]
        return f"{min(metrics.vswr(g), 100.0):.9e},{g.real:.12e},{g.imag:.12e}"

    def gain_col(sw, i):
        return f"{float(metrics.db10(metrics.normalized_gain(sw.gamma[i], 0.9))):.9e}"

    def coupling_col(sw, i):
        return f"{float(metrics.db20(sw.coupling[i])):.9e}"

    assert metrics.vswr_table_rows(sweeps) == reference_table_rows(
        "freq_hz,plane,theta_deg,vswr,gamma_re,gamma_im", sweeps, vswr_cols
    )
    assert metrics.gain_table_rows(sweeps, 0.9) == reference_table_rows(
        "freq_hz,plane,theta_deg,gain_db", sweeps, gain_col
    )
    assert metrics.coupling_table_rows(sweeps) == reference_table_rows(
        "freq_hz,plane,theta_deg,coupling_db", sweeps, coupling_col
    )
    vs = [row.split(",")[3:] for row in metrics.vswr_table_rows(sweeps)[-5:-2]]
    assert vs == [
        ["1.000000000e+02", "1.500000000000e+00", "-0.000000000000e+00"],
        ["1.000000000e+00", "-0.000000000000e+00", "1.000000000000e-300"],
        ["1.000000000e+02", "9.950000000000e-01", "0.000000000000e+00"],
    ]
    assert [row.split(",")[3] for row in metrics.gain_table_rows(sweeps)[-5:]] == [
        "-2.000000000e+02", "0.000000000e+00", "-2.001087096e+01", "-2.000000000e+02", "-2.000000000e+02",
    ]
    assert metrics.coupling_table_rows(sweeps)[-5].endswith(",-2.000000000e+02")
    assert metrics.coupling_table_rows(sweeps)[-3].endswith(",-2.000000000e+02")

    pos = lat.aperture_positions(basis, aperture)
    pats = [
        metrics.array_factor_pattern(pos, np.ones(len(aperture)), f, np.arange(-90.0, 90.1, 7.5), phi,
                                     lat.unit_cell_area(basis), label=label)
        for f, phi, label in ((4e9, 0.0, "E"), (18e9, 33.3, "33.3"))
    ]
    want = ["freq_hz,plane,theta_deg,gain_dbi"]
    for pat in pats:
        for t, g in zip(pat.theta_deg, pat.gain_dbi):
            want.append(f"{pat.frequency:.9e},{pat.label},{t:g},{g:.9e}")
    assert metrics.pattern_table_rows(pats) == want
    assert metrics.vswr_table_rows([]) == ["freq_hz,plane,theta_deg,vswr,gamma_re,gamma_im"]


def test_single_pol_sweep_has_no_coupling_table():
    basis, aperture, pm, net = assembled_demo(nfreq=2)
    net, pm = single_pol(net, pm, "y")
    sweeps = metrics.sweep(net, pm, basis, aperture, TaperSpec("uniform"), ["broadside"], pol="y")
    assert sweeps[0].coupling is None
    assert len(metrics.gain_table_rows(sweeps)) == 3
    with pytest.raises(metrics.MetricError, match="dual-polarization"):
        metrics.coupling_table_rows(sweeps)


@pytest.mark.parametrize("label", ["E95", "Q7", "T30P", "T-5P0", "Tp0", "H", "T30Pinf", "E60x"])
def test_parse_scan_label_rejects_bad_labels(label):
    with pytest.raises(metrics.MetricError, match="scan label"):
        metrics.parse_scan_label(label, "x")


def test_sweep_rejects_out_of_range_label():
    basis, aperture, pm, net = assembled_demo(nfreq=2)
    with pytest.raises(metrics.MetricError, match="E95"):
        metrics.sweep(net, pm, basis, aperture, TaperSpec("uniform"), ["E95"])


def test_zero_excitation_is_rejected_by_sweep_and_pattern():
    # a 4 x 4 aperture has no element at its centroid, so a 1 um taper waist underflows every weight to 0
    basis, aperture, pm, net = assembled_demo(nfreq=2, shape=lat.RectangleAperture(0, 3, 0, 3))
    with pytest.raises(metrics.MetricError, match="zero excitation"):
        metrics.sweep(net, pm, basis, aperture, TaperSpec("gaussian", 1e-6), ["broadside"])
    pos = lat.aperture_positions(basis, aperture)
    with pytest.raises(metrics.MetricError, match="zero excitation: every weight is 0"):
        metrics.array_factor_pattern(pos, np.zeros(len(aperture)), 9e9, np.array([0.0]), 0.0, 1e-4)


@pytest.mark.parametrize("kind", ["square", "triangular"])
@pytest.mark.parametrize("pol", ["x", "y"])
def test_active_reflection_of_a_plan_equals_the_sweep_bit_for_bit(kind, pol):
    basis, aperture, pm, net = assembled_demo(kind, nfreq=4)
    taper = TaperSpec("gaussian", 17 * MM)
    port = pm.port_of(lat.centermost_index(basis, aperture), pol)
    for label in ("broadside", "E60", "T37.3P12.9"):
        _, theta, phi = metrics.parse_scan_label(label, pol)
        (sw,) = metrics.sweep(net, pm, basis, aperture, taper, [label], pol=pol)
        for i, f in enumerate(net.frequencies):
            plan = build_plan(basis, aperture, pm, taper, ScanSpec(theta, phi, float(f)), pol)
            assert metrics.active_reflection(net, plan, port)[i] == sw.gamma[i]

