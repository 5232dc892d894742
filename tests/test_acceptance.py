"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check pins its tolerance explicitly.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from arraykit import cli, lattice as lat, metrics, snp, spectral, synthmodel
from arraykit.excitation import ScanSpec, TaperSpec, build_plan, gaussian_taper, scan_wavevector
from arraykit.snp import NetworkData, PortMap

MM = 1e-3


class Criterion:
    """Times a criterion body and prints its pass/fail line on exit."""

    def __init__(self, num: int, desc: str, budget_s: float):
        self.num, self.desc, self.budget = num, desc, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        print(f"[acceptance {self.num:02d}] {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s / {self.budget:g}s) {self.desc}")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.num} exceeded {self.budget}s"
        return False


def test_criterion_01_lattice_constants():
    with Criterion(1, "unit-cell area ratio and gain offset", 1.0):
        sq = lat.unit_cell_area(lat.make_basis("square", 15 * MM))
        tr = lat.unit_cell_area(lat.make_basis("triangular", 15 * MM))
        ratio = tr / sq
        assert abs(ratio - 1.15470) <= 1e-5
        assert abs(10 * math.log10(ratio) - 0.625) <= 0.005


def test_criterion_02_reciprocal_identity():
    with Criterion(2, "reciprocal-basis identity and closed forms", 1.0):
        for kind in lat.LATTICE_KINDS:
            basis = lat.make_basis(kind, 15 * MM)
            for n in (2, 8, 24):
                recip = lat.ReciprocalBasis(basis, n)
                scale = 2 * math.pi / n
                err = np.abs(recip.row_matrix @ basis.cell_matrix - scale * np.eye(2)).max()
                assert err < 1e-12 * scale
        recip = lat.ReciprocalBasis(lat.make_basis("triangular", 15 * MM), 24)
        k = 4 * math.pi / (24 * 15 * MM)
        closed = k * np.array(
            [[-1 / math.sqrt(2), 1 / math.sqrt(2)],
             [math.cos(math.pi / 12), math.sin(math.pi / 12)]]
        )
        assert np.abs(recip.row_matrix - closed).max() <= 1e-12 * k


def test_criterion_03_grating_lobe_onset():
    with Criterion(3, "grating-lobe onset at 90 deg and broadside", 5.0):
        for kind in lat.LATTICE_KINDS:
            onset = lat.grating_lobe_onset(lat.make_basis(kind, 15 * MM), 90.0)
            assert abs(onset - 20e9) <= 0.001 * 20e9
        broadside = lat.grating_lobe_onset(lat.make_basis("square", 15 * MM), 0.0)
        assert abs(broadside - 40e9) <= 0.001 * 40e9


def test_criterion_04_transform_round_trip():
    with Criterion(4, "round trip, direct oracle, and Parseval at N=24", 30.0):
        freqs = np.linspace(3e9, 20e9, 16)
        for kind in lat.LATTICE_KINDS:
            basis = lat.make_basis(kind, 15 * MM)
            grid = lat.ReciprocalBasis(basis, 24)
            model = synthmodel.SeededRandomModel(
                seed=42, smoothness=4, k_ref=419.0, band=(3e9, 20e9), level=0.8
            )
            for pair in spectral.POL_PAIRS:
                g = synthmodel.sample_grid(model, grid, freqs, pair)
                fast = spectral.gamma_to_coupling(g, method="fft")
                direct = spectral.gamma_to_coupling(g, method="direct")
                assert np.abs(fast.coeffs - direct.coeffs).max() < 1e-10
                back = spectral.reconstruct_gamma_grid(fast, grid)
                assert np.abs(back.grid - g.grid).max() < 1e-10
                assert spectral.parseval_mismatch(g, fast) < 1e-10


def test_criterion_05_degenerate_chain():
    with Criterion(5, "constant-gamma chain: delta coupling, identity S, VSWR", 5.0):
        gamma0 = 0.25 - 0.1j
        n = 24
        freqs = np.linspace(3e9, 20e9, 4)
        sets = {}
        for pair in spectral.POL_PAIRS:
            val = gamma0 if pair in ("xx", "yy") else 0.0
            g = spectral.ActiveGammaGrid(freqs, np.full((4, n, n), val, complex))
            c = spectral.gamma_to_coupling(g)
            off = c.coeffs.copy()
            off[:, n // 2, n // 2] = 0
            assert np.abs(off).max() < 1e-14
            if pair in ("xx", "yy"):
                assert np.abs(c.coeffs[:, n // 2, n // 2] - gamma0).max() < 1e-14
            sets[pair] = c

        basis = lat.make_basis("triangular", 15 * MM)
        aperture = lat.enumerate_aperture(lat.HexagonAperture(2))
        pm = PortMap.lexicographic(aperture)
        net = spectral.assemble_finite_smatrix(sets, aperture, pm)
        eye = np.broadcast_to(np.eye(len(pm)), net.s.shape)
        assert np.abs(net.s - gamma0 * eye).max() < 1e-13

        want = (1 + abs(gamma0)) / (1 - abs(gamma0))
        rng = np.random.default_rng(7)
        for taper, scan in (
            (TaperSpec("gaussian", 17 * MM), ScanSpec(60.0, 45.0, 20e9)),
            (TaperSpec("uniform"), ScanSpec(30.0, 90.0, 3e9)),
        ):
            for pol in ("x", "y"):
                plan = build_plan(basis, aperture, pm, taper, scan, pol)
                for element in aperture:
                    port = pm.port_of(element, pol)
                    gam = metrics.active_reflection(net, plan, port)
                    assert np.abs(np.asarray(metrics.vswr(gam)) - want).max() < 1e-10
        # an arbitrary random dense plan excites every port at once
        w = rng.standard_normal(len(pm)) + 1j * rng.standard_normal(len(pm))
        from arraykit.excitation import ExcitationPlan

        plan = ExcitationPlan(w)
        for port in range(len(pm)):
            gam = metrics.active_reflection(net, plan, port)
            assert np.abs(np.asarray(metrics.vswr(gam)) - want).max() < 1e-10


def test_criterion_06_touchstone_round_trip():
    with Criterion(6, "Touchstone parse/write identity and 2-port quirk", 5.0):
        rng = np.random.default_rng(11)
        for ports in (1, 2, 3, 4, 9):
            f = np.linspace(1e9, 12e9, 5)
            s = 0.6 * (rng.standard_normal((5, ports, ports)) + 1j * rng.standard_normal((5, ports, ports)))
            net = NetworkData(f, s / max(1.0, np.abs(s).max()), 50.0)
            for fmt in ("ri", "ma", "db"):
                back = snp.parse_touchstone(snp.write_touchstone(net, fmt), ports)
                assert back.frequencies.tolist() == net.frequencies.tolist()
                assert np.abs(back.s - net.s).max() <= 1e-9 * np.abs(net.s).max() + 1e-15
        golden = snp.read_touchstone(Path(__file__).parent / "data" / "golden_2port.s2p")
        s0 = golden.s[0]
        assert abs(s0[1, 0]) == pytest.approx(0.90, abs=1e-12)  # S21 is the second pair
        assert abs(s0[0, 1]) == pytest.approx(0.002, abs=1e-12)  # S12 is the third pair
        assert np.angle(s0[1, 0], deg=True) == pytest.approx(-45.0, abs=1e-9)
        quirk = snp.write_touchstone(golden, "ma").splitlines()[-1].split()
        assert float(quirk[1]) == pytest.approx(0.12, abs=1e-12)  # S11 magnitude
        assert float(quirk[3]) == pytest.approx(0.85, abs=1e-12)  # then S21, not S12


def test_criterion_07_termination_algebra():
    with Criterion(7, "matched/open termination identities and reciprocity", 5.0):
        rng = np.random.default_rng(23)
        s = 0.5 * (rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5)))
        net = NetworkData(np.linspace(1e9, 4e9, 4), s, 50.0)
        matched = snp.terminate_port(net, 3, 0.0)
        keep = [0, 1, 2, 4]
        assert np.array_equal(matched.s, net.s[np.ix_(range(4), keep, keep)])

        sym = 0.3 - 0.4j
        two = NetworkData([1e9], np.array([[[0, sym], [sym, 0]]]), 50.0)
        opened = snp.terminate_port(two, 1, 1.0)
        assert abs(opened.s[0, 0, 0] - sym * sym) < 1e-12

        srec = 0.3 * (s + s.transpose(0, 2, 1))
        rec = NetworkData(net.frequencies, srec, 50.0)
        for gamma_load in (0.5, -0.7 + 0.2j, 1.0j):
            out = snp.terminate_port(rec, 2, gamma_load)
            assert np.abs(out.s - out.s.transpose(0, 2, 1)).max() < 1e-12


def test_criterion_08_excitation_values():
    with Criterion(8, "Gaussian taper reference values", 1.0):
        w0 = 17 * MM
        vals = gaussian_taper(np.array([[0.0, 0.0], [0.0, w0], [7.5 * MM, 0.0]]), w0)
        assert vals[0] == 1.0
        assert abs(vals[1] - math.exp(-1)) <= 1e-12
        # oracle: direct evaluation of exp(-(r/w0)^2) at r = 7.5 mm
        oracle = math.exp(-((7.5 / 17.0) ** 2))
        assert oracle == pytest.approx(0.8231337, abs=1e-7)
        assert abs(vals[2] - oracle) <= 1e-5


def test_criterion_09_ideal_embedded_element():
    with Criterion(9, "ideal embedded-element gain at 20 GHz", 1.0):
        area = lat.unit_cell_area(lat.make_basis("square", 15 * MM))
        g0 = float(metrics.ideal_embedded_gain(area, 20e9, 0.0))
        assert abs(g0 - 4.971) <= 0.001
        g60 = float(metrics.ideal_embedded_gain(area, 20e9, 60.0))
        assert g0 - g60 == pytest.approx(3.010, abs=0.001)


def test_criterion_10_array_factor():
    with Criterion(10, "scanned peak placement and 5x5 first sidelobe", 10.0):
        theta_grid = np.arange(-90.0, 90.5, 0.5)
        f = 10e9
        for kind, shape in (
            ("square", lat.RectangleAperture(0, 4, 0, 4)),
            ("triangular", lat.HexagonAperture(2)),
        ):
            basis = lat.make_basis(kind, 15 * MM)
            aperture = lat.enumerate_aperture(shape)
            pm = PortMap.lexicographic(aperture, pols=("x",))
            pos = lat.aperture_positions(basis, aperture)
            area = lat.unit_cell_area(basis)
            for theta0 in (0.0, 30.0, 60.0):
                for phi0 in (0.0, 45.0, 90.0):
                    plan = build_plan(
                        basis, aperture, pm, TaperSpec("uniform"), ScanSpec(theta0, phi0, f), "x"
                    )
                    pat = metrics.array_factor_pattern(pos, plan.weights, f, theta_grid, phi0, area)
                    peak = theta_grid[int(np.argmax(np.abs(pat.field)))]
                    assert peak == theta0, f"{kind} ({theta0}, {phi0}): peak at {peak}"

        basis = lat.make_basis("square", 15 * MM)
        aperture = lat.enumerate_aperture(lat.RectangleAperture(0, 4, 0, 4))
        pos = lat.aperture_positions(basis, aperture)
        th = np.arange(0.0, 90.001, 0.02)
        pat = metrics.array_factor_pattern(
            pos, np.ones(len(aperture), complex), 18e9, th, 0.0, lat.unit_cell_area(basis)
        )
        rel = pat.gain_dbi - pat.gain_dbi[0]
        minima = np.nonzero((rel[1:-1] < rel[:-2]) & (rel[1:-1] <= rel[2:]))[0] + 1
        sidelobe = rel[minima[0]: minima[1] if len(minima) > 1 else None].max()
        assert sidelobe == pytest.approx(-13.3, abs=0.5)


def test_criterion_11_dplane_coupling_dominates():
    with Criterion(11, "D-plane 60 deg coupling exceeds broadside end-to-end", 30.0):
        freqs = np.linspace(3e9, 20e9, 16)
        model = synthmodel.demo_model(cross_pol_level=0.5)
        for kind, shape in (
            ("square", lat.RectangleAperture(0, 10, 0, 10)),
            ("triangular", lat.HexagonAperture(5)),
        ):
            basis = lat.make_basis(kind, 15 * MM)
            grid = lat.ReciprocalBasis(basis, 24)
            sets = {
                pair: spectral.gamma_to_coupling(synthmodel.sample_grid(model, grid, freqs, pair))
                for pair in spectral.POL_PAIRS
            }
            aperture = lat.enumerate_aperture(shape)
            pm = PortMap.lexicographic(aperture)
            net = spectral.assemble_finite_smatrix(sets, aperture, pm)
            out = metrics.sweep(
                net, pm, basis, aperture, TaperSpec("gaussian", 17 * MM),
                ["broadside", "D60"],
            )
            broadside, d60 = metrics.db20(out[0].coupling), metrics.db20(out[1].coupling)
            assert np.all(d60 > broadside), f"{kind}: min margin {np.min(d60 - broadside):.2f} dB"


def test_criterion_12_cli_determinism(tmp_path):
    with Criterion(12, "byte-identical transform+metrics reruns with --threads 8", 60.0):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "lattice": {"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 24,
                        "aperture": {"shape": "hexagon", "rings": 2}},
            "model": {"kind": "seeded_random", "seed": 5, "smoothness": 3, "band_ghz": [3, 20]},
            "excitation": {"taper": {"kind": "gaussian", "w0_mm": 17.0}, "pol": "x"},
            "sweep": {"scans": ["broadside", "E60", "H60", "D60"],
                      "freq_ghz": {"start": 3, "stop": 20, "points": 8}},
        }))
        outputs = []
        for run in ("run1", "run2"):
            out = tmp_path / run
            argv = ["--config", str(cfg_path), "--out", str(out), "--threads", "8"]
            assert cli.main(["transform", *argv, "--touchstone", "--gamma"]) == 0
            assert cli.main(["metrics", *argv]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
