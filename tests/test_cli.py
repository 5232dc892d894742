import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arraykit import cli, lattice, metrics, snp, spectral, synthmodel
from arraykit.constants import MEMORY_BUDGET


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "lattice": {
            "kind": "square",
            "lambda_h_mm": 15.0,
            "n_scan": 24,
            "aperture": {"shape": "rectangle", "n1": [0, 2], "n2": [0, 2]},
        },
        "model": {"kind": "constant", "gamma": [0.25, 0.0], "band_ghz": [3, 20]},
        "excitation": {"taper": {"kind": "gaussian", "w0_mm": 17.0}, "pol": "x"},
        "sweep": {"scans": ["broadside", "E60"], "freq_ghz": {"start": 3, "stop": 20, "points": 5}},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def read_data_lines(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_lattice_report(tmp_path, capsys):
    cfg = write_config(tmp_path, lattice={"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 24})
    assert cli.main(["lattice", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1.15470 (+0.625 dB)" in out
    assert "theta_deg=90  onset=20.000 GHz" in out
    assert (tmp_path / "lattice_report.txt").exists()


def test_lattice_missing_field_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"lattice": {"kind": "square"}}))
    assert cli.main(["lattice", "--config", str(path)]) == 2
    assert "lattice.lambda_h_mm" in capsys.readouterr().err


@pytest.mark.parametrize("lambda_h_mm", [1e-160, 1e300])
def test_lattice_lambda_h_beyond_float_range_exit_2(tmp_path, capsys, lambda_h_mm):
    # the cell area, of order lambda_h^2, would underflow to 0 or overflow
    cfg = write_config(tmp_path, lattice={"kind": "triangular", "lambda_h_mm": lambda_h_mm, "n_scan": 24})
    assert cli.main(["lattice", "--config", str(cfg)]) == 2
    assert "lambda_h" in capsys.readouterr().err


@pytest.mark.parametrize("lambda_h_mm", [-15, 0, 1e-160])
def test_lattice_lambda_h_error_names_the_field_and_the_configured_value(tmp_path, capsys, lambda_h_mm):
    cfg = write_config(tmp_path, lattice={"kind": "square", "lambda_h_mm": lambda_h_mm})
    assert cli.main(["lattice", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lattice.lambda_h_mm: ") and err.endswith(f"got {lambda_h_mm!r}\n")


def test_lattice_report_builds_no_scan_grid(tmp_path, capsys, monkeypatch):
    # the report needs k1 and k2 only; an N x N grid at this N would take 64 TB
    def no_grid(self):
        raise AssertionError("scan grid built")

    monkeypatch.setattr(lattice.ReciprocalBasis, "points", property(no_grid))
    cfg = write_config(tmp_path, lattice={"kind": "square", "lambda_h_mm": 15.0, "n_scan": 2000000})
    assert cli.main(["lattice", "--config", str(cfg)]) == 0
    assert "n_scan = 2000000" in capsys.readouterr().out


def test_missing_config_exit_2(tmp_path, capsys):
    assert cli.main(["lattice", "--config", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["lattice"]) == 2


def test_transform_constant_model_delta_coupling(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_data_lines(out / "coupling_xx.csv")
    assert rows[0] == "freq_hz,n1,n2,re,im"
    big = [r for r in rows[1:] if abs(complex(float(r.split(",")[3]), float(r.split(",")[4]))) > 1e-14]
    assert len(big) == 5  # one (0,0) coefficient per frequency
    for r in big:
        f, n1, n2, re, im = r.split(",")
        assert (int(n1), int(n2)) == (0, 0)
        assert float(re) == pytest.approx(0.25, abs=1e-12)


def test_transform_oracle_reports_delta(tmp_path, capsys):
    # --oracle only checks: every file is the FFT path's, byte for byte, and the direct double sum agrees with it
    cfg = write_config(
        tmp_path,
        model={"kind": "seeded_random", "seed": 5},
        sweep={"scans": ["broadside"], "freq_ghz": {"start": 3, "stop": 20, "points": 3}},
    )
    plain, checked = tmp_path / "plain", tmp_path / "checked"
    flags = ["--touchstone", "--gamma"]
    assert cli.main(["transform", "--config", str(cfg), "--out", str(plain), *flags]) == 0
    assert cli.main(["transform", "--config", str(cfg), "--out", str(checked), *flags, "--oracle"]) == 0
    text = capsys.readouterr().out
    line = [l for l in text.splitlines() if l.startswith("oracle check")][0]
    delta = float(line.split("=")[1])
    assert delta < 1e-10
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in checked.iterdir()) and len(names) == 9
    for name in names:
        assert (checked / name).read_bytes() == (plain / name).read_bytes(), name


def test_transform_streams_each_csv_as_the_row_api_gives_it(tmp_path, monkeypatch):
    # 5 frequencies of 24 x 24 points: 2880 rows, so a 1024-row chunk ends inside a frequency block
    path = write_config(tmp_path, model={"kind": "seeded_random", "seed": 3, "smoothness": 3})
    cfg = json.loads(path.read_text())
    recip, _ = cli._require_lattice(cfg)
    model = cli._require_model(cfg)
    freqs = cli._parse_frequencies(cfg["sweep"]["freq_ghz"], "sweep.freq_ghz", (0, 0), "")
    expected = {}
    for pair in spectral.POL_PAIRS:
        g = synthmodel.sample_grid(model, recip, freqs, pair)
        expected[f"gamma_{pair}.csv"] = spectral.gamma_csv_rows(g)
        expected[f"coupling_{pair}.csv"] = spectral.coupling_csv_rows(spectral.gamma_to_coupling(g))
    for name in ("gamma_csv_rows", "coupling_csv_rows"):
        monkeypatch.setattr(spectral, name, lambda *args: pytest.fail("transform built a CSV's row list"))
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(path), "--out", str(out), "--gamma"]) == 0
    header = cli._header(cli._config_hash(cfg))
    for name, rows in expected.items():
        assert len(rows) == 1 + 5 * 24 * 24
        assert (out / name).read_bytes() == (header + "\n".join(rows) + "\n").encode(), name


def test_grid_csv_of_no_frequencies_is_its_header(tmp_path):
    header = cli._header("0" * 16)
    for data, columns in [
        (spectral.ActiveGammaGrid(np.array([]), np.zeros((0, 4, 4))), "freq_hz,m1,m2,re,im\n"),
        (spectral.CouplingSet(np.array([]), np.zeros((0, 4, 4))), "freq_hz,n1,n2,re,im\n"),
    ]:
        assert list(spectral.csv_chunks(data)) == [columns]
        assert cli._write_lines(tmp_path / "t.csv", header, spectral.csv_chunks(data)) == 1
        assert (tmp_path / "t.csv").read_text() == header + columns


def test_grid_csv_is_written_holding_one_chunk_of_text(tmp_path):
    # one 171 x 24 x 24 coupling CSV, as the benchmark's rings-2 transform writes it; held as one list of its
    # 98 496 rows, the text took about 11 MB above the grid
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((171, 24, 24)) + 1j * rng.standard_normal((171, 24, 24))
    c = spectral.CouplingSet(np.linspace(3e9, 20e9, 171), coeffs)
    tracemalloc.start()
    try:
        cli._write_lines(tmp_path / "coupling_xx.csv", cli._header("0" * 16), spectral.csv_chunks(c))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


def test_transform_oversized_aperture_exit_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        lattice={
            "kind": "square",
            "lambda_h_mm": 15.0,
            "n_scan": 24,
            "aperture": {"shape": "rectangle", "n1": [0, 29], "n2": [0, 29]},
        },
    )
    assert cli.main(["transform", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "period" in err and "alias" in err


def test_transform_out_of_band_sweep_exit_2(tmp_path):
    cfg = write_config(
        tmp_path, sweep={"freq_ghz": {"start": 1, "stop": 30, "points": 4}}
    )
    assert cli.main(["transform", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["transform", "metrics"])
def test_non_object_sweep_exit_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, sweep="oops")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: sweep: expected an object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, block", [("metrics", "excitation"), ("metrics", "metrics"), ("pattern", "pattern"), ("pattern", "excitation")]
)
def test_non_object_config_block_exit_2(tmp_path, capsys, command, block):
    cfg = write_config(tmp_path, **{block: ["oops"]})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {block}: expected an object" in capsys.readouterr().err


def test_transform_touchstone_without_aperture_exit_2_before_writing(tmp_path, capsys):
    cfg = write_config(tmp_path, lattice={"kind": "square", "lambda_h_mm": 15.0, "n_scan": 24})
    out = tmp_path / "o"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone", "--gamma"]) == 2
    assert "lattice.aperture" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_chain_constant_gamma(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone"]) == 0
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_data_lines(out / "vswr.csv")
    assert rows[0] == "freq_hz,plane,theta_deg,vswr,gamma_re,gamma_im"
    want = (1 + 0.25) / (1 - 0.25)
    for row in rows[1:]:
        assert float(row.split(",")[3]) == pytest.approx(want, rel=1e-9)
    # labeled sections for each scan in order
    planes = [r.split(",")[1] for r in rows[1:]]
    assert planes == ["broadside"] * 5 + ["E60"] * 5


def test_metrics_one_port_file(tmp_path):
    cfg = write_config(
        tmp_path,
        lattice={
            "kind": "square",
            "lambda_h_mm": 15.0,
            "n_scan": 24,
            "aperture": {"shape": "rectangle", "n1": [0, 0], "n2": [0, 0]},
        },
        sweep={"scans": ["broadside"], "freq_ghz": {"start": 3, "stop": 20, "points": 2}},
    )
    path = tmp_path / "one.s1p"
    path.write_text("# Hz S RI R 50\n1e9 0.5 0.0\n2e9 0.25 0.0\n")
    out = tmp_path / "out"
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out), "--snp", str(path)]) == 0
    rows = read_data_lines(out / "vswr.csv")
    assert float(rows[1].split(",")[3]) == pytest.approx(3.0, rel=1e-9)
    assert float(rows[2].split(",")[3]) == pytest.approx(5.0 / 3.0, rel=1e-9)
    assert not (out / "coupling.csv").exists()


def test_metrics_port_mismatch_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path)  # 9-element aperture wants 9 or 18 ports
    path = tmp_path / "two.s2p"
    path.write_text("# Hz S RI R 50\n1e9 0 0 0 0 0 0 0 0\n")
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "o"), "--snp", str(path)]) == 4
    assert "port count" in capsys.readouterr().err


def test_metrics_missing_snp_exit_2(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize("value", [5, ["a.s18p"], True])
def test_metrics_snp_not_a_path_exit_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path, metrics={"snp": value})
    out = tmp_path / "o"
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: metrics.snp: expected a path" in capsys.readouterr().err
    assert not out.exists()


def test_zero_excitation_exit_4_without_tables(tmp_path, capsys):
    # no element of a 4 x 4 aperture sits at its centroid: a 1 um taper waist underflows every weight to 0
    rect4 = {"shape": "rectangle", "n1": [0, 3], "n2": [0, 3]}
    lat4 = {"kind": "square", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": rect4}
    out = tmp_path / "out"
    cfg = write_config(tmp_path, lattice=lat4)
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone"]) == 0
    cfg = write_config(
        tmp_path, lattice=lat4, excitation={"taper": {"kind": "gaussian", "w0_mm": 0.001}}, pattern={"freq_ghz": [9.0]}
    )
    capsys.readouterr()
    for command, table in (("metrics", "vswr.csv"), ("pattern", "pattern.csv")):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 4
        assert "error: zero excitation" in capsys.readouterr().err
        assert not (out / table).exists()


def test_metrics_theta_phi_sweep_form_and_gnuplot(tmp_path):
    cfg = write_config(
        tmp_path,
        sweep={"theta_deg": [0, 60], "phi_deg": [0, 45],
               "freq_ghz": {"start": 3, "stop": 20, "points": 3}},
    )
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone"]) == 0
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out), "--gnuplot"]) == 0
    rows = read_data_lines(out / "vswr.csv")
    planes = sorted({r.split(",")[1] for r in rows[1:]})
    assert planes == ["T0P0", "T0P45", "T60P0", "T60P45"]
    assert "plot 'vswr.csv'" in (out / "plots.gp").read_text()


def test_metrics_theta_phi_sweep_keeps_full_precision(tmp_path):
    cfg = write_config(
        tmp_path,
        sweep={"theta_deg": [33.333333333, 12.3], "phi_deg": [0.123456789],
               "freq_ghz": {"start": 3, "stop": 20, "points": 2}},
    )
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone"]) == 0
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
    planes = [r.split(",")[1] for r in read_data_lines(out / "vswr.csv")[1:]]
    assert planes == ["T33.333333333P0.123456789"] * 2 + ["T12.3P0.123456789"] * 2
    assert metrics.parse_scan_label(planes[0], "x")[1:] == (33.333333333, 0.123456789)


@pytest.mark.parametrize(
    "block,field",
    [
        ({"sweep": {"freq_ghz": ["a", 4]}}, "sweep.freq_ghz"),
        ({"sweep": {"freq_ghz": [4, float("nan")]}}, "sweep.freq_ghz"),
        ({"sweep": {"freq_ghz": {"start": 3, "stop": float("nan"), "points": 4}}}, "sweep.freq_ghz.stop"),
        ({"pattern": {"freq_ghz": ["x"]}}, "pattern.freq_ghz"),
        ({"pattern": {"freq_ghz": [float("nan")]}}, "pattern.freq_ghz"),
    ],
)
def test_bad_frequency_list_exit_2(tmp_path, capsys, block, field):
    cfg = write_config(tmp_path, **block)
    command = "pattern" if "pattern" in block else "transform"
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("cuts,bad", [(["nan"], 0), (["E", "Q"], 1), (["H", "inf"], 1), (["D", None], 1)])
def test_pattern_bad_cut_exit_2(tmp_path, capsys, cuts, bad):
    cfg = write_config(tmp_path, pattern={"freq_ghz": [9.0], "cuts": cuts})
    out = tmp_path / "o"
    assert cli.main(["pattern", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"pattern.cuts[{bad}]" in capsys.readouterr().err
    assert not (out / "pattern.csv").exists()


def test_pattern_work_bounded_before_allocating(tmp_path):
    # the address-space limit makes any attempt at the ~1.4 TB theta grid fail
    # at once instead of allocating, so this test never allocates it
    cfg = write_config(tmp_path, pattern={"freq_ghz": [9.0], "theta_step_deg": 1e-9})
    limit = 2 * 1024**3
    proc = subprocess.run(
        [sys.executable, "-m", "arraykit.cli", "pattern", "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "pattern.theta_step_deg" in proc.stderr and str(MEMORY_BUDGET) in proc.stderr


def run_limited(argv, limit=2 * 1024**3):
    """Run the CLI in a subprocess whose address space is capped, so a large allocation fails at once."""
    return subprocess.run(
        [sys.executable, "-m", "arraykit.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )


HEX14_N60 = {"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 60, "aperture": {"shape": "hexagon", "rings": 14}}


@pytest.mark.parametrize(
    "overrides,flags",
    [
        # 2e9 frequencies x 4 grids of 24^2: the frequency array alone is 16 GB
        ({"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": 2_000_000_000}}}, []),
        # the default 171 frequencies x 4 grids of 20000^2
        ({"lattice": {"kind": "square", "lambda_h_mm": 15.0, "n_scan": 20_000}, "sweep": {}}, []),
        # 40 000 frequencies x 4 grids of 24^2: 9.2e7 values, which a cap of 1e8 values once let through to an
        # allocation failure; the grids and their CSV rows need about 6 GB
        ({"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": 40_000}}}, []),
    ],
)
def test_transform_work_bounded_before_allocating(tmp_path, overrides, flags):
    cfg = write_config(tmp_path, **overrides)
    proc = run_limited(["transform", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
    assert proc.returncode == 2, proc.stderr
    assert "error: sweep.freq_ghz:" in proc.stderr and "lattice.n_scan" in proc.stderr
    assert str(MEMORY_BUDGET) in proc.stderr
    assert not (tmp_path / "o").exists()


def test_budget_admits_the_benchmark_runs_with_room():
    quarter = MEMORY_BUDGET // 4

    def total(price, freqs):
        return price[0] + freqs * price[1]

    seeded = synthmodel.SeededRandomModel(seed=1, smoothness=3, k_ref=420.0, band=(3e9, 20e9))
    # hex5_dense: rings 5 (364 ports) at N = 24, 171 frequencies, the default smoothness, --touchstone
    assert total(cli._transform_price(24, seeded, 364), 171) < quarter
    # hex2_scan: rings 2 (19 elements, 38 ports), then 49 scans, then 3 frequencies x 3 cuts of 3601 samples;
    # metrics reads the transform's RI file, under 48 bytes of text per S entry
    assert total(cli._transform_price(24, synthmodel.demo_model(), 38), 171) < quarter
    assert cli._metrics_price(171 * 38**2 * 48, 38, 19, 49) < quarter
    assert total(cli._pattern_price(19, 3, 3601), 3) < quarter
    # measured_io: an 8 x 8 rectangle (128 ports), 171 frequencies of MA text under 32 bytes per entry, 5 scans
    assert cli._metrics_price(171 * 128**2 * 32, 128, 64, 5) < quarter
    assert cli._FIXED_BYTES + 128**2 * cli._TEXT_ENTRY_BYTES < quarter
    # rings 14 (1262 ports) at N = 60 with --touchstone, 100 frequencies: S is written one frequency at a time
    assert total(cli._transform_price(60, synthmodel.ConstantModel(0.25), 1262), 100) <= MEMORY_BUDGET


def frequencies_at_budget(price: tuple[int, int]) -> int:
    """The most frequencies that a ``(fixed, per frequency)`` price admits."""
    fixed, per = price
    n = (MEMORY_BUDGET - fixed) // per
    assert fixed + n * per <= MEMORY_BUDGET < fixed + (n + 1) * per
    return n


@pytest.mark.parametrize("flags", [[], ["--touchstone"]])
def test_transform_frequencies_at_the_budget(tmp_path, flags):
    # with --touchstone, rings 14 at N = 60: one formatted 1262-port record is most of the price
    lat = HEX14_N60 if flags else {"kind": "square", "lambda_h_mm": 15.0, "n_scan": 24}
    cfg = json.loads(write_config(tmp_path, lattice=lat).read_text())
    recip, shape = cli._require_lattice(cfg)
    ports = 2 * lattice.aperture_size(shape) if flags else 0
    price = cli._transform_price(recip.n_scan, cli._require_model(cfg), ports)
    n = frequencies_at_budget(price)
    sweep = {"start": 3, "stop": 20, "points": n}
    assert cli._parse_frequencies(sweep, "sweep.freq_ghz", price, "").size == n  # one under is admitted
    path = write_config(tmp_path, lattice=lat, sweep={"freq_ghz": {**sweep, "points": n + 1}})
    proc = run_limited(["transform", "--config", str(path), "--out", str(tmp_path / "o"), *flags])
    assert proc.returncode == 2, proc.stderr
    assert f"error: sweep.freq_ghz: the run would hold {price[0] + (n + 1) * price[1]} bytes" in proc.stderr
    assert f"above the budget of {MEMORY_BUDGET}" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "aperture",
    [
        {"shape": "hexagon", "rings": 100_000},  # 3e10 elements if it were enumerated
        {"shape": "rectangle", "n1": [0, 100_000], "n2": [0, 100_000]},
        {"shape": "triangle", "rows": 100_000},
    ],
)
def test_transform_oversized_aperture_exits_3_before_enumerating(tmp_path, aperture):
    cfg = write_config(tmp_path, lattice={"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": aperture})
    proc = run_limited(["transform", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 3, proc.stderr
    assert "aperture index spread (" in proc.stderr and "period 24" in proc.stderr


def test_transform_config_errors_precede_the_aperture_fit(tmp_path):
    # 1e10 candidate indices if enumerated; the work bound and the band check run first and exit 2
    huge = {"kind": "triangular", "lambda_h_mm": 15.0, "aperture": {"shape": "hexagon", "rings": 100_000}}
    for lattice, sweep, flags, field in [
        ({**huge, "n_scan": 24}, {"freq_ghz": [2.0, 9.0]}, [], "outside model band"),
        ({**huge, "n_scan": 24}, {}, ["--touchstone"], "sweep.freq_ghz"),
        ({**huge, "n_scan": 400_000}, {}, [], "sweep.freq_ghz"),
    ]:
        cfg = write_config(tmp_path, lattice=lattice, sweep=sweep)
        proc = run_limited(["transform", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags])
        assert proc.returncode == 2, proc.stderr
        assert field in proc.stderr


def test_metrics_and_pattern_bound_a_huge_aperture_before_enumerating(tmp_path):
    lattice = {"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": {"shape": "hexagon", "rings": 100_000}}
    src = tmp_path / "net.s4p"
    src.write_text(snp.write_touchstone(snp.NetworkData([1e9], np.eye(4)[None] * 0.1)))
    cfg = write_config(tmp_path, lattice=lattice, metrics={"snp": str(src)})
    proc = run_limited(["metrics", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 4, proc.stderr
    assert "port count 4 matches neither 30000300001" in proc.stderr
    proc = run_limited(["pattern", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "pattern.theta_step_deg" in proc.stderr


def test_pattern_frequencies_bounded_before_allocating(tmp_path):
    # 2e9 frequencies: the linspace alone would be 16 GB
    cfg = write_config(tmp_path, pattern={"freq_ghz": {"start": 3, "stop": 20, "points": 2_000_000_000}})
    proc = run_limited(["pattern", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "pattern.freq_ghz" in proc.stderr and "pattern.theta_step_deg" in proc.stderr
    assert str(MEMORY_BUDGET) in proc.stderr
    assert not (tmp_path / "o").exists()


def test_pattern_frequencies_at_the_budget(tmp_path):
    # one element, 3 cuts of 3601 theta samples: 10803 rows per frequency
    single = {"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": {"shape": "hexagon", "rings": 0}}
    price = cli._pattern_price(1, 3, 3601)
    n = frequencies_at_budget(price)
    sweep = {"start": 3, "stop": 20, "points": n}
    assert cli._parse_frequencies(sweep, "pattern.freq_ghz", price, "").size == n  # one under is admitted
    pattern = {"freq_ghz": {**sweep, "points": n + 1}, "theta_step_deg": 0.05}
    cfg = write_config(tmp_path, lattice=single, pattern=pattern)
    proc = run_limited(["pattern", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert f"error: pattern.freq_ghz: the run would hold {price[0] + (n + 1) * price[1]} bytes" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_pattern_cut_at_the_budget(tmp_path):
    # a row of elements cut at 1 degree steps (181 theta samples): the cut's phase matrix grows with the elements
    def fixed(elements):
        return cli._pattern_price(elements, 1, 181)[0]

    n = (MEMORY_BUDGET - fixed(0)) // (fixed(1) - fixed(0))
    assert fixed(n) <= MEMORY_BUDGET < fixed(n + 1)
    cli._check_budget(fixed(n), "pattern.theta_step_deg", "")  # one under is admitted
    aperture = {"shape": "rectangle", "n1": [0, n], "n2": [0, 0]}
    row = {"kind": "square", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": aperture}
    cfg = write_config(tmp_path, lattice=row, pattern={"freq_ghz": [9.0], "cuts": ["E"], "theta_step_deg": 1.0})
    proc = run_limited(["pattern", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert f"error: pattern.theta_step_deg: the run would hold {fixed(n + 1)} bytes" in proc.stderr
    assert not (tmp_path / "o").exists()


def sparse_snp(path: Path, size: int) -> Path:
    """A ``size``-byte Touchstone file whose data fail at the first token; the rest is a hole, never written."""
    with open(path, "w") as fh:
        fh.write("# GHz S RI R 50\nx\n")
        fh.truncate(size)
    return path


def test_metrics_file_size_at_the_budget(tmp_path):
    cfg = write_config(tmp_path)  # a 3 x 3 rectangle (18 dual-pol ports) and 2 scans
    record = 2 * (1 + 2 * 18**2)  # the fewest bytes one record takes

    def price(size):
        return cli._metrics_price(size, 18, 9, 2)

    over = record * (frequencies_at_budget((price(0), price(record) - price(0))) + 1)
    assert price(over - 1) <= MEMORY_BUDGET < price(over)
    # one byte under is admitted, and the read fails at the first token without allocating
    for size, code in [(over, 2), (over - 1, 4)]:
        src = sparse_snp(tmp_path / f"m{size}.s18p", size)
        proc = run_limited(["metrics", "--config", str(cfg), "--out", str(tmp_path / "o"), "--snp", str(src)])
        assert proc.returncode == code, proc.stderr
        message = f"error: {src}: the run would hold {price(size)} bytes" if code == 2 else "data token 'x'"
        assert message in proc.stderr
    assert not (tmp_path / "o").exists()


def test_convert_port_count_at_the_budget(tmp_path):
    def price(ports):
        return cli._FIXED_BYTES + ports**2 * cli._TEXT_ENTRY_BYTES

    ports = math.isqrt((MEMORY_BUDGET - cli._FIXED_BYTES) // cli._TEXT_ENTRY_BYTES)
    assert price(ports) <= MEMORY_BUDGET < price(ports + 1)
    # one port under is admitted, and the read fails at the first token without allocating
    for p, code in [(ports + 1, 2), (ports, 4)]:
        src = sparse_snp(tmp_path / f"in.s{p}p", 2 * (1 + 2 * p * p))
        dst = tmp_path / f"out.s{p}p"
        proc = run_limited(["convert", str(src), str(dst)])
        assert proc.returncode == code, proc.stderr
        message = f"error: {src}: the run would hold {price(p)} bytes" if code == 2 else "data token 'x'"
        assert message in proc.stderr and not dst.exists()


def traced_peak(argv) -> int:
    """The tracemalloc peak of one in-process command, which must succeed."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_price_covers_the_traced_peak_of_a_small_run(tmp_path, capsys):
    def rect(n: int, n_scan: int) -> dict:
        aperture = {"shape": "rectangle", "n1": [0, n - 1], "n2": [0, n - 1]}
        return {"kind": "square", "lambda_h_mm": 15.0, "n_scan": n_scan, "aperture": aperture}

    seeded = {"kind": "seeded_random", "seed": 3, "smoothness": 10}
    constant = {"kind": "constant", "gamma": [0.25, 0.0], "band_ghz": [3, 20]}
    pattern = {"freq_ghz": {"start": 3, "stop": 20, "points": 8}, "theta_step_deg": 0.1}  # 3 cuts of 1801 samples
    # the grids are most of the first and third runs' prices, one 128-port record most of the second's
    runs = [(rect(4, 32), seeded, 12), (rect(8, 16), constant, 2), (rect(4, 32), constant, 12)]
    for i, (lat, model, points) in enumerate(runs):
        sweep = {"scans": ["broadside", "E60", "D45"], "freq_ghz": {"start": 3, "stop": 20, "points": points}}
        cfg = write_config(tmp_path, lattice=lat, model=model, sweep=sweep, pattern=pattern)
        loaded = json.loads(cfg.read_text())
        recip, shape = cli._require_lattice(loaded)
        fixed, per = cli._transform_price(recip.n_scan, cli._require_model(loaded), 2 * lattice.aperture_size(shape))
        out = tmp_path / f"o{i}"
        peak = traced_peak(["transform", "--config", str(cfg), "--out", str(out), "--touchstone", "--gamma"])
        assert peak <= fixed + points * per, (lat, model)
    src = out / "finite_array.s32p"
    assert traced_peak(["metrics", "--config", str(cfg), "--out", str(out)]) <= cli._metrics_price(
        src.stat().st_size, 32, 16, 3
    )
    fixed, per = cli._pattern_price(16, 3, 1801)
    assert traced_peak(["pattern", "--config", str(cfg), "--out", str(out)]) <= fixed + 8 * per
    # one cut of 361 samples over 1600 elements: the phase matrix is most of the price
    one_cut = {"freq_ghz": [9.0], "cuts": ["E"], "theta_step_deg": 0.5}
    cfg = write_config(tmp_path, lattice=rect(40, 32), pattern=one_cut)
    fixed, per = cli._pattern_price(1600, 1, 361)
    assert traced_peak(["pattern", "--config", str(cfg), "--out", str(out)]) <= fixed + per
    rng = np.random.default_rng(4)
    big = tmp_path / "big.s96p"  # a record of 96 ports, about 2.4 MB of price
    big.write_text(snp.write_touchstone(snp.NetworkData([1e9, 2e9], 0.01 * rng.standard_normal((2, 96, 96))), "ma"))
    peak = traced_peak(["convert", str(big), str(tmp_path / "big_db.s96p"), "--format", "db"])
    assert peak <= cli._FIXED_BYTES + 96**2 * cli._TEXT_ENTRY_BYTES


HEX2 = {"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": {"shape": "hexagon", "rings": 2}}


# each of these was read as a truncated integer, or a boolean as 1 / 0
BAD_TRANSFORM_NUMBERS = [
    ({"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": 2.9}}}, "sweep.freq_ghz.points"),
    ({"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": True}}}, "sweep.freq_ghz.points"),
    ({"sweep": {"freq_ghz": {"start": True, "stop": 20, "points": 4}}}, "sweep.freq_ghz.start"),
    ({"sweep": {"freq_ghz": [3, False]}}, "sweep.freq_ghz"),
    ({"lattice": {**HEX2, "aperture": {"shape": "hexagon", "rings": 2.7}}}, "lattice.aperture.rings"),
    ({"lattice": {**HEX2, "aperture": {"shape": "hexagon", "rings": True}}}, "lattice.aperture.rings"),
    ({"lattice": {**HEX2, "aperture": {"shape": "rectangle", "n1": [0, 2.5], "n2": [0, 2]}}}, "lattice.aperture.n1"),
    ({"lattice": {**HEX2, "aperture": {"shape": "triangle", "rows": 3.5}}}, "lattice.aperture.rows"),
    ({"lattice": {**HEX2, "aperture": {"shape": "explicit", "indices": [[0, 0], [1, 0.5]]}}},
     "lattice.aperture.indices"),
    ({"lattice": {**HEX2, "lambda_h_mm": True}}, "lattice.lambda_h_mm"),
    ({"model": {"kind": "seeded_random", "seed": 1.5}}, "model.seed"),
    ({"model": {"kind": "seeded_random", "seed": 1, "smoothness": True}}, "model.smoothness"),
    ({"model": {"kind": "demo", "cross_pol_level": True}}, "model.cross_pol_level"),
    ({"model": {"kind": "demo", "band_ghz": [3]}}, "model.band_ghz"),
    ({"model": {"kind": "demo", "band_ghz": [3, 20, 1]}}, "model.band_ghz"),
    ({"model": {"kind": "demo", "band_ghz": [3, True]}}, "model.band_ghz"),
]
BAD_METRICS_NUMBERS = [
    ({"metrics": {"efficiency": True}}, "metrics.efficiency"),
    ({"sweep": {"theta_deg": [True], "phi_deg": [0]}}, "sweep.theta_deg/phi_deg"),
    ({"excitation": {"taper": {"kind": "gaussian", "w0_mm": True}}}, "excitation.taper.w0_mm"),
    ({"lattice": {**HEX2, "n_scan": 24.5}}, "lattice.n_scan"),
    ({"lattice": {**HEX2, "n_scan": True}}, "lattice.n_scan"),
]
# each of these exited 0 or 3, or exited 2 without naming its field; kept apart so the rows above keep their ids
NON_FINITE_OR_UNNAMED = [
    ("transform", {"model": {"kind": "demo", "cross_pol_level": float("nan")}}, "model.cross_pol_level"),
    ("transform", {"model": {"kind": "demo", "cross_pol_level": float("inf")}}, "model.cross_pol_level"),
    ("transform", {"model": {"kind": "constant", "gamma": [float("nan"), 0]}}, "model.gamma"),
    ("transform", {"model": {"kind": "demo", "band_ghz": [3, float("inf")]}}, "model.band_ghz"),
    ("transform", {"model": {"kind": "seeded_random", "seed": 1, "k_ref": float("inf")}}, "model.k_ref"),
    ("transform", {"model": {"kind": "seeded_random", "seed": 1, "level": 0}}, "model"),
    ("metrics", {"excitation": {"taper": {"kind": "gaussian", "w0_mm": float("inf")}}}, "excitation.taper.w0_mm"),
]


@pytest.mark.parametrize(
    "command,overrides,field",
    [("transform", *case) for case in BAD_TRANSFORM_NUMBERS]
    + [("metrics", *case) for case in BAD_METRICS_NUMBERS]
    + NON_FINITE_OR_UNNAMED,
)
def test_non_integral_or_boolean_config_numbers_exit_2(tmp_path, capsys, command, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_scan, ok", [(24.0, True), (3.0, False), (0, False)])
def test_n_scan_follows_the_integer_rule(tmp_path, capsys, n_scan, ok):
    cfg = write_config(tmp_path, lattice={**HEX2, "n_scan": n_scan})
    assert cli.main(["lattice", "--config", str(cfg), "--out", str(tmp_path / "o")]) == (0 if ok else 2)
    captured = capsys.readouterr()
    if ok:
        assert "n_scan = 24\n" in captured.out
    else:
        assert f"error: lattice.n_scan: expected an even integer >= 2, got {int(n_scan)}" in captured.err


HUGE_POINTS = {"start": 3, "stop": 20, "points": 10**400}
LATTICE_COMMANDS = ("lattice", "transform", "pattern")


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        *[(command, {"lattice": {**HEX2, "n_scan": 10**400}}, "lattice.n_scan") for command in LATTICE_COMMANDS],
        ("transform", {"sweep": {"freq_ghz": HUGE_POINTS}}, "sweep.freq_ghz"),
        ("pattern", {"lattice": HEX2, "pattern": {"freq_ghz": HUGE_POINTS}}, "pattern.freq_ghz"),
    ],
)
def test_integers_beyond_the_float_range_exit_2_naming_the_field(tmp_path, capsys, command, overrides, field):
    # each once exited 1 with "int too large to convert to float"
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


def test_integer_beyond_the_digit_limit_exit_2(tmp_path, capsys):
    # Python's int() reads at most 4300 digits by default; json.loads raised a plain ValueError (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lattice": {"kind": "square", "lambda_h_mm": 15, "n_scan": 1' + "0" * 5000 + "}}")
    assert cli.main(["lattice", "--config", str(cfg)]) == 2
    assert "error: config is not valid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("step, last", [(0.2, 90.0), (0.01, 90.0), (0.03, 90.0), (7.0, 85.0)])
def test_pattern_theta_grid_stays_within_90(tmp_path, step, last):
    # each of these steps once drifted or stepped past 90 and exited 4
    cfg = write_config(tmp_path, pattern={"freq_ghz": [9.0], "cuts": ["E"], "theta_step_deg": step})
    out = tmp_path / "out"
    assert cli.main(["pattern", "--config", str(cfg), "--out", str(out)]) == 0
    theta = np.array([float(r.split(",")[2]) for r in read_data_lines(out / "pattern.csv")[1:]])
    assert theta[0] == -90.0 and theta[-1] == last
    assert np.all(np.abs(theta) <= 90.0) and np.all(np.diff(theta) > 0)
    assert theta.size == round((last + 90.0) / step) + 1


def test_pattern_csv(tmp_path):
    cfg = write_config(tmp_path, pattern={"freq_ghz": [9.0], "cuts": ["E", "D"], "theta_step_deg": 5.0})
    out = tmp_path / "out"
    assert cli.main(["pattern", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_data_lines(out / "pattern.csv")
    assert rows[0] == "freq_hz,plane,theta_deg,gain_dbi"
    assert len(rows) == 1 + 2 * 37
    assert {r.split(",")[1] for r in rows[1:]} == {"E", "D"}


def test_convert_round_trip(tmp_path):
    src = tmp_path / "in.s2p"
    src.write_text(
        "# GHz S MA R 50\n1.0 0.1 0 0.9 -45 0.002 30 0.15 10\n2.0 0.1 0 0.9 -45 0.002 30 0.15 10\n"
    )
    dst = tmp_path / "out.s2p"
    assert cli.main(["convert", str(src), str(dst), "--format", "db"]) == 0
    a = snp.read_touchstone(src)
    b = snp.read_touchstone(dst)
    np.testing.assert_allclose(a.s, b.s, rtol=1e-9)


def test_convert_bad_file_exit_4(tmp_path, capsys):
    src = tmp_path / "bad.s1p"
    src.write_text("not touchstone at all\n")
    assert cli.main(["convert", str(src), str(tmp_path / "o.s1p")]) == 4


def test_convert_missing_input_exit_2_before_writing(tmp_path, capsys):
    dst = tmp_path / "out" / "o.s4p"
    assert cli.main(["convert", str(tmp_path / "nothere.s4p"), str(dst)]) == 2
    assert f"error: convert input: file not found: {tmp_path / 'nothere.s4p'}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_convert_directory_input_exit_2_before_writing(tmp_path, capsys):
    src = tmp_path / "dir.s4p"
    src.mkdir()
    assert cli.main(["convert", str(src), str(tmp_path / "out" / "o.s4p")]) == 2
    assert f"error: convert input: file not found: {src}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_convert_fault_in_the_last_record_leaves_no_output(tmp_path, capsys):
    rng = np.random.default_rng(2)
    s = 0.2 * (rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))
    lines = snp.write_touchstone(snp.NetworkData([1e9, 2e9, 3e9, 4e9], s), "ma").splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 0.5x"  # the last token of the file
    src = tmp_path / "in.s3p"
    src.write_text("\n".join(lines) + "\n")
    fresh, old = tmp_path / "out" / "new.s3p", tmp_path / "old.s3p"
    old.write_bytes(b"an earlier output\n")
    for dst in (fresh, old):
        assert cli.main(["convert", str(src), str(dst), "--format", "db"]) == 4
        assert "error: non-numeric data token '0.5x'" in capsys.readouterr().err
    assert old.read_bytes() == b"an earlier output\n"
    # three records were written before the fault; neither output nor temporary file is left
    assert list((tmp_path / "out").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.s3p", "old.s3p", "out"]
    src.write_text("\n".join(lines[:-1] + [lines[-1].replace("0.5x", "0.5")]) + "\n")
    assert cli.main(["convert", str(src), str(old), "--format", "db"]) == 0
    assert old.read_bytes() == snp.write_touchstone(snp.read_touchstone(src), "db").encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.s3p", "old.s3p", "out"]


def test_fault_part_way_through_a_table_keeps_the_earlier_table(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    s = 0.05 * (rng.standard_normal((800, 9, 9)) + 1j * rng.standard_normal((800, 9, 9)))
    src = tmp_path / "in.s9p"
    src.write_text(snp.write_touchstone(snp.NetworkData(np.linspace(3e9, 20e9, 800), s), "ri"))
    argv = ["metrics", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"), "--snp", str(src)]
    assert cli.main(argv) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    gain_table_blocks = metrics.gain_table_blocks

    def faulty(*args):
        # the column names, then one block of 800 frequencies for each of 2 scans
        for i, rows in enumerate(gain_table_blocks(*args)):
            if i == 2:
                rows[500] = None  # not a string, in the second scan's block
            yield rows

    monkeypatch.setattr(metrics, "gain_table_blocks", faulty)
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err
    # the first scan's block was written before the fault; the complete gain.csv is kept and no temporary file is left
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before
    assert sorted(before) == ["gain.csv", "vswr.csv"]


def test_transform_touchstone_fault_part_way_leaves_no_output(tmp_path, capsys, monkeypatch):
    smatrix_records = spectral.smatrix_records

    def faulty(*args):
        records = smatrix_records(*args)
        yield next(records)  # the header
        yield next(records)
        raise RuntimeError("fault after the first record")

    monkeypatch.setattr(spectral, "smatrix_records", faulty)
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(write_config(tmp_path)), "--out", str(out), "--touchstone"]) == 1
    text = capsys.readouterr()
    assert "error: fault after the first record" in text.err and text.out == ""
    # the coupling CSVs were written alongside the .sNp, so none of them is kept either, nor a temporary file
    assert list(out.iterdir()) == []


def test_transform_fault_in_a_later_chunk_leaves_every_file_unchanged(tmp_path, capsys, monkeypatch):
    # files of the same names from a 5-frequency run; the faulty run sweeps 20 frequencies, two chunks
    flags = ["--touchstone", "--gamma"]
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(write_config(tmp_path)), "--out", str(out), *flags]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 9
    sample_grid, calls = synthmodel.sample_grid, []

    def faulty(model, recip, freqs, pair):
        calls.append((pair, len(freqs)))
        if calls.count(("yx", 4)):
            raise RuntimeError("fault while sampling yx in the second chunk")
        return sample_grid(model, recip, freqs, pair)

    monkeypatch.setattr(synthmodel, "sample_grid", faulty)
    capsys.readouterr()
    cfg = write_config(tmp_path, sweep={"scans": ["broadside"], "freq_ghz": {"start": 3, "stop": 20, "points": 20}})
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), *flags]) == 1
    text = capsys.readouterr()
    assert "error: fault while sampling yx in the second chunk" in text.err
    # every pair's first chunk, then xx and xy of the second, were written before the fault, but no file was renamed
    assert calls == [(pair, 16) for pair in spectral.POL_PAIRS] + [("xx", 4), ("xy", 4), ("yx", 4)]
    assert text.out == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def hex2_scan_config(tmp_path: Path, **overrides) -> Path:
    """The benchmark's rings-2 hexagon at N = 24 with the demo model and 171 frequencies."""
    lat = {"kind": "triangular", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": {"shape": "hexagon", "rings": 2}}
    sweep = {"scans": ["broadside"], "freq_ghz": {"start": 3, "stop": 20, "points": 171}}
    return write_config(tmp_path, lattice=lat, model={"kind": "demo", "cross_pol_level": 0.5}, sweep=sweep, **overrides)


def test_transform_holds_one_pol_pair_at_a_time(tmp_path, capsys):
    # with all 4 grids and all 4 whole coupling sets held, this run peaked at 16.1 MB; one pair's grid and set, the
    # FFT's 16-frequency chunk and the 10 x 10 coupling windows of the earlier pairs stay under 3 grids
    argv = ["transform", "--config", str(hex2_scan_config(tmp_path)), "--out", str(tmp_path / "o"), "--touchstone", "--gamma"]
    assert cli.main(argv) == 0  # an untraced first run imports what the command imports lazily
    grid_bytes = 171 * 24 * 24 * 16
    assert traced_peak(argv) < 3 * grid_bytes


def test_transform_holds_one_chunk_of_the_frequency_axis(tmp_path, capsys):
    # with each pair's whole grid and coupling set held, 171 frequencies peaked about 3.2 MB above 17, and with each
    # pair's 10 x 10 coupling windows of the whole band kept for --touchstone, 1.0 MB; now only 66 KB, no chunk
    peaks = {}
    for points in (17, 171):
        sweep = {"freq_ghz": {"start": 3, "stop": 20, "points": points}}
        cfg = write_config(tmp_path, lattice=HEX2, model={"kind": "demo", "cross_pol_level": 0.5}, sweep=sweep)
        argv = ["transform", "--config", str(cfg), "--out", str(tmp_path / f"f{points}"), "--touchstone", "--gamma"]
        assert cli.main(argv) == 0  # an untraced first run imports what the command imports lazily
        peaks[points] = traced_peak(argv)
    chunk = cli._FREQ_CHUNK * 24 * 24 * 16  # one chunk of one grid: 16 frequencies of 24 x 24 complex values
    assert peaks[171] - peaks[17] <= chunk, (peaks, chunk)


@pytest.mark.parametrize("points", [1, 16, 17, 33])
def test_transform_chunks_write_the_files_of_the_whole_grid(tmp_path, capsys, monkeypatch, points):
    # less than a chunk, one chunk, one chunk and a frequency, two chunks and a frequency
    sweep = {"freq_ghz": {"start": 3, "stop": 20, "points": points}}
    path = write_config(tmp_path, lattice=HEX2, model={"kind": "seeded_random", "seed": 5, "smoothness": 3}, sweep=sweep)
    cfg = json.loads(path.read_text())
    recip, shape = cli._require_lattice(cfg)
    model = cli._require_model(cfg)
    freqs = cli._parse_frequencies(sweep["freq_ghz"], "sweep.freq_ghz", (0, 0), "")
    header = cli._header(cli._config_hash(cfg))
    expected, windows, delta = {}, {}, 0.0
    for pair in spectral.POL_PAIRS:
        g = synthmodel.sample_grid(model, recip, freqs, pair)
        c = spectral.gamma_to_coupling(g)
        delta = max(delta, float(np.abs(spectral.gamma_to_coupling(g, "direct").coeffs - c.coeffs).max()))
        expected[f"coupling_{pair}.csv"] = header + "\n".join(spectral.coupling_csv_rows(c)) + "\n"
        expected[f"gamma_{pair}.csv"] = header + "\n".join(spectral.gamma_csv_rows(g)) + "\n"
        windows[pair] = spectral.coupling_window(c, shape)
    records = spectral.smatrix_records(windows, lattice.enumerate_aperture(shape))
    expected["finite_array.s38p"] = "".join(snp.touchstone_records(records, "ri"))
    sample_grid, sizes = synthmodel.sample_grid, []

    def counted(model, recip, frequencies, pair):
        sizes.append(len(frequencies))
        return sample_grid(model, recip, frequencies, pair)

    monkeypatch.setattr(synthmodel, "sample_grid", counted)
    out = tmp_path / "out"
    argv = ["transform", "--config", str(path), "--out", str(out), "--touchstone", "--gamma", "--oracle"]
    assert cli.main(argv) == 0
    assert f"oracle check: max |direct - fft| = {delta:.3e}" in capsys.readouterr().out
    # each pair's chunks are sampled once, for both CSVs
    assert max(sizes) <= cli._FREQ_CHUNK and sum(sizes) == 4 * points, sizes
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_metrics_holds_one_scans_rows(tmp_path, capsys):
    # 49 scans write 3 tables of 49 x 171 rows, which took about 2.8 MB held as lists
    sweep = {"freq_ghz": {"start": 3, "stop": 20, "points": 171}}
    cfg = write_config(tmp_path, lattice=HEX2, model={"kind": "demo", "cross_pol_level": 0.5}, sweep=sweep)
    src = tmp_path / "t" / "finite_array.s38p"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(src.parent), "--touchstone"]) == 0
    thetas, phis = [0, 10, 20, 30, 40, 50, 60], [0, 15, 30, 45, 60, 75, 90]
    peaks = {}
    for scans, angles in ((49, {"theta_deg": thetas, "phi_deg": phis}), (1, {"theta_deg": [60], "phi_deg": [45]})):
        cfg = write_config(tmp_path, lattice=HEX2, sweep=angles)
        argv = ["metrics", "--config", str(cfg), "--out", str(tmp_path / f"m{scans}"), "--snp", str(src)]
        assert cli.main(argv) == 0
        peaks[scans] = traced_peak(argv)
    one_scan = [read_data_lines(tmp_path / "m1" / f"{t}.csv")[1:] for t in ("vswr", "gain", "coupling")]
    assert all(len(rows) == 171 for rows in one_scan)
    one_scan_rows = sum(sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)) for rows in one_scan)
    # every table reads the sweeps, so each further scan keeps its sweep: 171 complex gamma and 171 float coupling
    # values, and the objects around them, under 1 KB
    sweeps = 48 * (171 * (16 + 8) + 1024)
    assert peaks[49] - peaks[1] < one_scan_rows + sweeps, (peaks, one_scan_rows, sweeps)


def test_pattern_table_is_written_one_pattern_at_a_time(tmp_path, capsys):
    # the benchmark's pattern block: 3 frequencies x 3 cuts of 3601 samples, 32 409 rows, which took about 3.3 MB
    # held as one list; its peak stays within one pattern's rows of the peak of its first pattern alone
    block = {"freq_ghz": [4, 9, 18], "cuts": ["E", "H", "D"], "theta_step_deg": 0.05}
    peaks = {}
    for name, pattern in (("all", block), ("first", {**block, "freq_ghz": [4], "cuts": ["E"]})):
        argv = ["pattern", "--config", str(hex2_scan_config(tmp_path, pattern=pattern)), "--out", str(tmp_path / name)]
        assert cli.main(argv) == 0
        peaks[name] = traced_peak(argv)
    rows = read_data_lines(tmp_path / "all" / "pattern.csv")[1:]
    assert len(rows) == 9 * 3601
    first_rows = rows[:3601]
    assert read_data_lines(tmp_path / "first" / "pattern.csv")[1:] == first_rows
    one_pattern = sys.getsizeof(first_rows) + sum(map(sys.getsizeof, first_rows))
    assert peaks["all"] - peaks["first"] < one_pattern, (peaks, one_pattern)


def test_write_lines_holds_no_chunk_while_the_next_is_made(tmp_path):
    # convert's chunks are whole records' text, 0.65 MB each at 128 ports; the one written is dropped before the next
    size, held = 1 << 20, []

    def chunks():
        for _ in range(3):
            held.append(tracemalloc.get_traced_memory()[0])
            yield "x" * size + "\n"

    tracemalloc.start()
    try:
        assert cli._write_lines(tmp_path / "t.txt", "h\n", chunks()) == 3
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.txt").stat().st_size == 2 + 3 * (size + 1)
    assert max(held) - held[0] < size / 2, held


def test_snp_size_is_checked_before_a_record_buffer_is_allocated(tmp_path):
    # the name asks for 20000 ports: one record of 8e8 values, a 6.4 GB buffer, from a 28-byte file
    src = tmp_path / "x.s20000p"
    src.write_text("# GHz S RI R 50\n1.0 0.5 0.0\n")
    rect = {"shape": "rectangle", "n1": [0, 99], "n2": [0, 99]}  # 10000 elements, so 20000 dual-pol ports
    cfg = write_config(tmp_path, lattice={"kind": "square", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": rect})
    dst = tmp_path / "y.s20000p"
    for argv in (
        ["metrics", "--config", str(cfg), "--out", str(tmp_path / "o"), "--snp", str(src)],
        ["convert", str(src), str(dst)],
    ):
        proc = run_limited(argv)
        assert proc.returncode == 4, proc.stderr
        assert f"error: {src}: 28 bytes cannot hold one 20000-port record" in proc.stderr
    assert not dst.exists() and not (tmp_path / "o").exists()


def run_pipeline(cfg: Path, out: Path) -> dict[str, bytes]:
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone", "--threads", "8"]) == 0
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_determinism_across_runs_and_threads(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"kind": "seeded_random", "seed": 13, "smoothness": 3, "band_ghz": [3, 20]},
        sweep={"scans": ["broadside", "D60"], "freq_ghz": {"start": 3, "stop": 20, "points": 6}},
    )
    first = run_pipeline(cfg, tmp_path / "run1")
    second = run_pipeline(cfg, tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    # thread count must not change bytes either
    out3 = tmp_path / "run3"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out3), "--touchstone", "--threads", "1"]) == 0
    for name in ("coupling_xx.csv", "finite_array.s18p"):
        assert (out3 / name).read_bytes() == first[name]


def test_seed_flag_overrides_model_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        model={"kind": "seeded_random", "seed": 13, "smoothness": 3, "band_ghz": [3, 20]},
        sweep={"freq_ghz": {"start": 3, "stop": 20, "points": 2}},
    )
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["transform", "--config", str(cfg), "--out", str(b), "--seed", "14"]) == 0
    assert cli.main(["transform", "--config", str(cfg), "--out", str(c), "--seed", "13"]) == 0
    xx = "coupling_xx.csv"
    assert (a / xx).read_bytes() != (b / xx).read_bytes()
    assert (a / xx).read_bytes() == (c / xx).read_bytes()


@pytest.mark.parametrize("model", [{"kind": "demo"}, {"kind": "constant", "gamma": [0.25, 0.0]}])
def test_seed_with_a_model_that_takes_none_exit_2_before_writing(tmp_path, capsys, model):
    cfg = write_config(tmp_path, model=model)
    out = tmp_path / "o"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 2
    assert f"error: --seed: model kind {model['kind']!r} takes no seed" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exit_2_naming_the_seed(tmp_path, capsys):
    model = {"kind": "seeded_random", "seed": -3, "band_ghz": [3, 20]}
    cfg = write_config(tmp_path, model=model, sweep={"freq_ghz": {"start": 3, "stop": 20, "points": 2}})
    out = tmp_path / "o"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: model: seed must be >= 0, got -3" in capsys.readouterr().err
    cfg = write_config(tmp_path, model={**model, "seed": 3}, sweep={"freq_ghz": {"start": 3, "stop": 20, "points": 2}})
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--seed", "-3"]) == 2
    assert "error: --seed: seed must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_carry_version_and_config_hash(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out)]) == 0
    head = (out / "coupling_xx.csv").read_text().splitlines()[:2]
    assert head[0].startswith("# arraykit 0.")
    assert head[1].startswith("# config_sha256=") and len(head[1].split("=")[1]) == 16


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(cfg=st.dictionaries(st.text(), JSON_VALUES, max_size=6))
def test_config_hash_is_sha256_of_the_canonical_json(cfg):
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    assert cli._config_hash(cfg) == hashlib.sha256(canonical).hexdigest()[:16]


# run in a fresh interpreter: pytest and hypothesis import hashlib themselves
NO_OPENSSL_RUN = "import sys\nfrom arraykit import cli\ncode = cli.main(sys.argv[1:])\nprint('_hashlib' in sys.modules)\nsys.exit(code)"


def test_no_command_loads_openssl(tmp_path):
    # a seeded_random model still loads OpenSSL, through numpy.random -> secrets -> hmac; that import is numpy's
    cfg = str(write_config(tmp_path, model={"kind": "demo", "cross_pol_level": 0.5}, pattern={"freq_ghz": [9.0]}))
    out = tmp_path / "o"
    runs = [
        ["lattice", "--config", cfg, "--out", str(out)],
        ["transform", "--config", cfg, "--out", str(out), "--touchstone", "--gamma"],
        ["metrics", "--config", cfg, "--out", str(out)],
        ["pattern", "--config", cfg, "--out", str(out)],
        ["convert", str(out / "finite_array.s18p"), str(tmp_path / "db.s18p"), "--format", "db"],
    ]
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-c", NO_OPENSSL_RUN, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=60,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)
        assert proc.stdout.splitlines()[-1] == "False", f"{argv[0]} loaded _hashlib"


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this tree's package."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        timeout=60,
    )


# a lazily bound submodule is an importlib.util._LazyModule until its body runs, and type() does not run it
EXECUTED_RUN = (
    "import sys, types\nfrom arraykit import cli\ntry:\n    code = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:\n    code = exc.code\n"
    "print(sorted(n for n, m in sys.modules.items() if n.startswith('arraykit') and type(m) is types.ModuleType))\n"
    "sys.exit(code)"
)


def test_each_command_executes_only_its_modules(tmp_path):
    cfg = str(write_config(tmp_path, model={"kind": "demo", "cross_pol_level": 0.5}, pattern={"freq_ghz": [9.0]}))
    out = tmp_path / "o"
    sweep = {"excitation", "lattice", "metrics", "snp"}
    runs = [
        (["--version"], set()),
        (["lattice", "--config", cfg, "--out", str(out)], {"lattice"}),
        (["transform", "--config", cfg, "--out", str(out), "--touchstone", "--gamma"], {"lattice", "snp", "spectral", "synthmodel"}),
        (["metrics", "--config", cfg, "--out", str(out)], sweep),
        (["pattern", "--config", cfg, "--out", str(out)], sweep),
        (["convert", str(out / "finite_array.s18p"), str(tmp_path / "db.s18p"), "--format", "db"], {"snp"}),
    ]
    for argv, modules in runs:
        proc = run_fresh("-c", EXECUTED_RUN, *argv)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        expected = ["arraykit", "arraykit.cli", "arraykit.constants", *(f"arraykit.{m}" for m in modules)]
        assert proc.stdout.splitlines()[-1] == str(sorted(expected)), argv[0]


@pytest.mark.parametrize(
    "script",
    [
        # a submodule imported before cli is the one cli binds: one module object, one copy of each class
        "import arraykit.snp\nfrom arraykit.snp import TouchstoneError\nimport arraykit.cli as cli\n"
        "assert cli.snp is arraykit.snp\nassert cli.snp.TouchstoneError is arraykit.snp.TouchstoneError is TouchstoneError",
        # one bound by cli is the package's attribute and the module a later import returns
        "import sys\nimport arraykit.cli as cli\nimport arraykit\nassert arraykit.snp is cli.snp\n"
        "import arraykit.snp\nfrom arraykit.snp import TouchstoneError\n"
        "assert sys.modules['arraykit.snp'] is cli.snp\nassert cli.snp.TouchstoneError is TouchstoneError",
    ],
    ids=["snp-then-cli", "cli-then-snp"],
)
def test_cli_and_imports_share_one_submodule(script):
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_exit_codes_from_fresh_processes(tmp_path):
    # a fresh process has loaded only the command's own modules when the error reaches main, whose except clauses load the rest
    def config(name: str, **overrides) -> str:
        (tmp_path / name).mkdir()
        return str(write_config(tmp_path / name, **overrides))

    bad = tmp_path / "bad.s2p"
    bad.write_text("# GHz S RI R 50\n1 0.1 0 x 0 0 0 0.1 0\n")
    wide = {"kind": "square", "lambda_h_mm": 15.0, "n_scan": 24, "aperture": {"shape": "rectangle", "n1": [0, 29], "n2": [0, 29]}}
    cases = [
        (["convert", str(bad), str(tmp_path / "out.s2p")], 4, "'x'"),
        (["lattice", "--config", config("hex", lattice={**HEX2, "kind": "hex"})], 2, "lattice.kind"),
        (["transform", "--config", config("wide", lattice=wide)], 3, "alias"),
        (["metrics", "--config", config("q7", sweep={"scans": ["broadside", "Q7"]})], 2, "sweep.scans[1]"),
    ]
    for argv, code, text in cases:
        proc = run_fresh("-m", "arraykit.cli", *argv, "--out", str(tmp_path / "o"))
        assert proc.returncode == code, (argv[0], proc.stderr)
        assert text in proc.stderr, (argv[0], proc.stderr)


@pytest.mark.parametrize("command", ["metrics", "lattice", "pattern"])
@pytest.mark.parametrize("flag", [["--seed", "3"], ["--oracle"]])
def test_transform_only_flags_rejected_elsewhere(tmp_path, command, flag):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *flag])
    assert err.value.code == 2


def test_threads_accepted_by_every_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for argv in (["lattice"], ["transform", "--touchstone"], ["metrics"], ["pattern"]):
        assert cli.main([*argv, "--config", str(cfg), "--out", str(out), "--threads", "4"]) == 0


@pytest.mark.parametrize("label", ["E95", "Q7", "T30P"])
def test_metrics_bad_scan_label_exit_2(tmp_path, capsys, label):
    cfg = write_config(tmp_path, sweep={"scans": ["broadside", label]})
    # rejected at config read, before the Touchstone file is looked for
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 2
    assert "sweep.scans[1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "theta,phi,msg",
    # the ids of the first eight cases are those of the test's earlier form, which had no msg parameter
    [
        pytest.param([0, 95], [0], "scan label 'T95P0': theta must lie in [0, 90] degrees", id="theta0-phi0"),
        pytest.param([30], ["x"], "expected a finite number, got 'x'", id="theta1-phi1"),
        pytest.param([30], [float("nan")], "expected a finite number, got nan", id="theta2-phi2"),
        pytest.param([90.0000001], [0], "scan label 'T90.0000001P0': theta must lie", id="theta3-phi3"),
        pytest.param("60", [0], "expected non-empty lists of numbers", id="60-phi4"),
        pytest.param([30], "45", "expected non-empty lists of numbers", id="theta5-45"),
        pytest.param([], [0], "expected non-empty lists of numbers", id="theta6-phi6"),
        pytest.param([30], [], "expected non-empty lists of numbers", id="theta7-phi7"),
        pytest.param([float("nan")], [0], "expected a finite number, got nan", id="theta-nan"),
        pytest.param([1e400], [0], "expected a finite number, got inf", id="theta-1e400"),
        pytest.param([True], [0], "expected a finite number, got True", id="theta-true"),
        pytest.param(["abc"], [0], "expected a finite number, got 'abc'", id="theta-text"),
    ],
)
def test_metrics_bad_theta_phi_sweep_exit_2(tmp_path, capsys, theta, phi, msg):
    cfg = write_config(tmp_path, sweep={"theta_deg": theta, "phi_deg": phi})
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 2
    assert f"error: sweep.theta_deg/phi_deg: {msg}" in capsys.readouterr().err


def test_metrics_parses_each_scan_label_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, sweep={"scans": ["broadside", "E60", "H30", "T20P10"], "freq_ghz": [4, 9]})
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone"]) == 0
    calls = []
    parse = metrics.parse_scan_label

    def counted(*args):
        calls.append(args[0])
        return parse(*args)

    monkeypatch.setattr(metrics, "parse_scan_label", counted)
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == ["broadside", "E60", "H30", "T20P10"]


def test_metrics_empty_scans_exit_2_without_tables(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"scans": []})
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone"]) == 0
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error: sweep.scans: expected a non-empty list of labels" in capsys.readouterr().err
    assert not (out / "vswr.csv").exists()


@pytest.mark.parametrize("command, block", [("transform", "sweep"), ("pattern", "pattern")])
def test_zero_width_frequency_block_takes_one_point(tmp_path, capsys, command, block):
    flags = ["--touchstone"] if command == "transform" else []
    for points, code in ((3, 2), (1, 0)):
        cfg = write_config(tmp_path, **{block: {"freq_ghz": {"start": 5, "stop": 5, "points": points}}})
        out = tmp_path / f"o{points}"
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *flags]) == code
        if code == 2:
            assert f"error: {block}.freq_ghz: 3 points need start < stop" in capsys.readouterr().err
            assert not out.exists()


def test_convert_output_name_must_give_the_input_port_count(tmp_path, capsys):
    src = tmp_path / "in.s4p"
    src.write_text(snp.write_touchstone(snp.NetworkData([1e9, 2e9, 3e9], np.tile(0.1 * np.eye(4), (3, 1, 1)))))
    for name in ("out.s2p", "out.s3p", "out.txt"):
        assert cli.main(["convert", str(src), str(tmp_path / name)]) == 2
        assert f"error: {tmp_path / name}: expected an output name ending in .s4p" in capsys.readouterr().err
        assert not (tmp_path / name).exists()
    assert cli.main(["convert", str(src), str(tmp_path / "OUT.S4P")]) == 0
    back = snp.read_touchstone(tmp_path / "OUT.S4P")
    assert back.port_count == 4 and back.frequencies.size == 3


# --- config block readers --------------------------------------------------------


SCAN_POLY = {"kind": "scan_poly", "alpha": [[3, 0.5, 0], [20, 0.1, 0]], "beta": [[3, 0.25, 0], [20, 0.25, 0]]}
# (command, config overrides, the field its error names): a block set to None is left out, and the first
# case's config is not an object
CONFIG_ERRORS = [
    ("lattice", None, "config root"),
    ("transform", {"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": "abc"}}}, "sweep.freq_ghz.points"),
    ("transform", {"sweep": {"freq_ghz": {"start": 3, "stop": 1e300, "points": 4}}}, "sweep.freq_ghz.stop"),
    ("transform", {"sweep": {"freq_ghz": {"start": 3, "stop": 20}}}, "sweep.freq_ghz"),
    ("transform", {"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": 0}}}, "sweep.freq_ghz"),
    ("transform", {"sweep": {"freq_ghz": [5, 4]}}, "sweep.freq_ghz"),
    ("transform", {"sweep": {"freq_ghz": 5}}, "sweep.freq_ghz"),
    ("metrics", {"excitation": {"pol": "z"}}, "excitation.pol"),
    ("metrics", {"excitation": {"taper": 17}}, "excitation.taper"),
    ("metrics", {"excitation": {"taper": {"kind": "gaussian", "w0_mm": -1}}}, "excitation.taper.w0_mm"),
    ("pattern", {"excitation": {"taper": {"kind": "cosine"}}}, "excitation.taper.kind"),
    ("transform", {"lattice": None}, "lattice"),
    ("metrics", {"lattice": {**HEX2, "aperture": 5}}, "lattice.aperture"),
    ("metrics", {"lattice": {**HEX2, "aperture": {"shape": "hexagon", "rings": -1}}}, "lattice.aperture"),
    ("metrics", {"lattice": {**HEX2, "aperture": {"shape": "circle"}}}, "lattice.aperture.shape"),
    ("transform", {"model": None}, "model"),
    ("transform", {"model": {**SCAN_POLY, "k_ref": -1}}, "model"),
    ("transform", {"model": {**SCAN_POLY, "alpha": [[20, 0.1, 0], [3, 0.5, 0]]}}, "model"),
    ("transform", {"model": {"kind": "seeded_random", "seed": 1, "smoothness": 0}}, "model"),
    ("transform", {"model": {"kind": "demo", "cross_pol_level": -1}}, "model"),
    ("transform", {"model": {"kind": "demo", "band_ghz": [20, 3]}}, "model"),
    ("pattern", {"pattern": {"cuts": []}}, "pattern.cuts"),
    ("pattern", {"pattern": {"theta_step_deg": 0}}, "pattern.theta_step_deg"),
    ("metrics", {"metrics": {"efficiency": 2}}, "metrics.efficiency"),
    ("metrics", {"metrics": {"snp": "missing.s18p"}}, "metrics.snp"),
    # an unknown key, which would otherwise leave its field at the default; model, lattice.aperture and
    # excitation.taper take only the keys of their kind or shape
    ("lattice", {"lattice": {"kind": "triangular", "lambda_h_mm": 15, "nscan": 48}}, "lattice.nscan"),
    ("lattice", {"latice": HEX2}, "latice"),
    ("transform", {"model": {"kind": "constant", "gamma": [0.25, 0], "cross_pol_level": 0.1}}, "model.cross_pol_level"),
    ("transform", {"model": {**SCAN_POLY, "level": 0.5}}, "model.level"),
    ("transform", {"model": {"kind": "seeded_random", "seed": 1, "gamma": [0, 0]}}, "model.gamma"),
    ("transform", {"model": {"kind": "demo", "seed": 1}}, "model.seed"),
    ("transform", {"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": 5, "step": 1}}}, "sweep.freq_ghz.step"),
    ("metrics", {"lattice": {**HEX2, "aperture": {"shape": "hexagon", "rings": 2, "rows": 2}}}, "lattice.aperture.rows"),
    ("metrics", {"lattice": {**HEX2, "aperture": {"shape": "triangle", "rows": 3, "rings": 2}}}, "lattice.aperture.rings"),
    ("metrics", {"lattice": {**HEX2, "aperture": {"shape": "explicit", "indices": [[0, 0]], "n1": [0, 1]}}}, "lattice.aperture.n1"),
    ("metrics", {"lattice": {**HEX2, "aperture": {"shape": "rectangle", "n1": [0, 1], "n2": [0, 1], "n3": [0, 1]}}}, "lattice.aperture.n3"),
    ("metrics", {"excitation": {"taper": {"kind": "uniform", "w0_mm": 17.0}}}, "excitation.taper.w0_mm"),
    ("metrics", {"excitation": {"taper": {"kind": "gaussian", "w0": 17.0}}}, "excitation.taper.w0"),
    ("metrics", {"excitation": {"polarization": "y"}}, "excitation.polarization"),
    ("metrics", {"sweep": {"scan": ["broadside"]}}, "sweep.scan"),
    ("metrics", {"metrics": {"efficency": 0.9}}, "metrics.efficency"),
    ("pattern", {"pattern": {"cut": ["E"]}}, "pattern.cut"),
    ("pattern", {"pattern": {"freq_ghz": {"start": 4, "stop": 5, "points": 2, "unit": "GHz"}}}, "pattern.freq_ghz.unit"),
]


@pytest.mark.parametrize("command, overrides, field", CONFIG_ERRORS)
def test_each_config_error_exits_2_naming_its_field(tmp_path, capsys, command, overrides, field):
    cfg = write_config(tmp_path, **(overrides or {}))
    loaded = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({k: v for k, v in loaded.items() if v is not None} if overrides else [loaded]))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith((f"error: {field}:", f"error: {field} "))


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as ``| head -1`` leaves it once it has its line."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "command, flags",
    [("transform", ["--touchstone", "--gamma"]), ("lattice", [])],  # lattice prints its report before the file
)
def test_a_closed_stdout_stops_no_write(tmp_path, capsys, command, flags):
    cfg = write_config(tmp_path, lattice=HEX2, model={"kind": "demo"})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "want"), *flags]) == 0
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", ClosedPipe())
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "got"), *flags]) == 0
        sys.stdout.close()  # the os.devnull stream the command turned to
    assert capsys.readouterr().err == ""
    want = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert len(want) == (9 if command == "transform" else 1)
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == want
    for name in want:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name


def test_metrics_default_scans(tmp_path):
    cfg = write_config(tmp_path, sweep={"freq_ghz": {"start": 3, "stop": 20, "points": 2}})
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out), "--touchstone"]) == 0
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("vswr.csv", "gain.csv", "coupling.csv"):
        planes = [r.split(",")[1] for r in read_data_lines(out / name)[1:]]
        assert planes == [label for label in ("broadside", "E60", "H60", "D60") for _ in range(2)], name


def test_config_round_trip():
    cfg = {
        "kind": "triangular",
        "lambda_h_mm": 15.0,
        "n_scan": 24,
        "aperture": {"shape": "hexagon", "rings": 2},
    }
    recip, shape = cli._require_lattice({"lattice": cfg})
    basis = recip.basis
    assert basis.kind == "triangular" and recip.n_scan == 24
    assert basis.lambda_h == pytest.approx(15e-3, rel=1e-15)
    assert isinstance(shape, lattice.HexagonAperture) and shape.rings == 2


def test_config_errors_name_field_paths():
    with pytest.raises(cli.ConfigError, match="lattice.lambda_h_mm"):
        cli._require_lattice({"lattice": {"kind": "square"}})
    with pytest.raises(cli.ConfigError, match="lattice.kind"):
        cli._require_lattice({"lattice": {"kind": "diamond", "lambda_h_mm": 15}})
    with pytest.raises(cli.ConfigError, match="lattice.n_scan"):
        cli._require_lattice({"lattice": {"kind": "square", "lambda_h_mm": 15, "n_scan": 7}})
    with pytest.raises(cli.ConfigError, match="lattice.aperture.rings"):
        cli._require_lattice({"lattice": {"kind": "square", "lambda_h_mm": 15, "aperture": {"shape": "hexagon"}}})


def test_all_aperture_shapes_from_config():
    assert isinstance(
        cli._aperture_shape({"shape": "rectangle", "n1": [0, 3], "n2": [1, 2]}),
        lattice.RectangleAperture,
    )
    assert isinstance(cli._aperture_shape({"shape": "triangle", "rows": 4}), lattice.TriangleAperture)
    explicit = cli._aperture_shape({"shape": "explicit", "indices": [[0, 0], [1, 0]]})
    assert explicit.indices == ((0, 0), (1, 0))


@pytest.mark.parametrize(
    "aperture, message",
    # each was reported against the block alone, as "lattice.aperture: cannot unpack ..." or "too many values"
    [
        ({"shape": "rectangle", "n1": 3, "n2": [0, 2]}, r"lattice\.aperture\.n1: expected \[min, max\], got 3"),
        ({"shape": "rectangle", "n1": [0, 2], "n2": [0, 1, 2]}, r"lattice\.aperture\.n2: expected \[min, max\]"),
        ({"shape": "explicit", "indices": [[0, 0, 1]]}, r"lattice\.aperture\.indices\[0\]: expected \[n1, n2\]"),
        ({"shape": "explicit", "indices": [[0, 0], 7]}, r"lattice\.aperture\.indices\[1\]: expected \[n1, n2\], got 7"),
        ({"shape": "explicit", "indices": 4}, r"lattice\.aperture\.indices: expected a list, got 4"),
    ],
    ids=["n1-number", "n2-three-entries", "indices-three-entries", "indices-number-entry", "indices-number"],
)
def test_aperture_from_config_errors_name_fields(tmp_path, capsys, aperture, message):
    with pytest.raises(cli.ConfigError, match=f"^{message}"):
        cli._aperture_shape(aperture)
    cfg = write_config(tmp_path, lattice={**HEX2, "aperture": aperture})
    assert cli.main(["lattice", "--config", str(cfg)]) == 2
    assert re.match(f"error: {message}", capsys.readouterr().err)


@pytest.mark.parametrize(
    "command, overrides, message",
    # each ran as the number its string spells: int() and float() also read underscores, spaces and other scripts' digits
    [
        ("lattice", {"lattice": {**HEX2, "n_scan": "24"}}, "lattice.n_scan: expected an integer, got '24'"),
        ("lattice", {"lattice": {**HEX2, "n_scan": "2_4"}}, "lattice.n_scan: expected an integer, got '2_4'"),
        ("lattice", {"lattice": {**HEX2, "n_scan": "\u0662\u0664"}}, "lattice.n_scan: expected an integer, got '\u0662\u0664'"),
        ("lattice", {"lattice": {**HEX2, "n_scan": " 24 "}}, "lattice.n_scan: expected an integer, got ' 24 '"),
        ("lattice", {"lattice": {**HEX2, "lambda_h_mm": "15"}}, "lattice.lambda_h_mm: expected a finite number, got '15'"),
        ("lattice", {"lattice": {**HEX2, "aperture": {"shape": "hexagon", "rings": "2"}}}, "lattice.aperture.rings: expected "),
        ("transform", {"sweep": {"freq_ghz": {"start": "3", "stop": 20, "points": 4}}}, "sweep.freq_ghz.start: expected "),
        ("transform", {"sweep": {"freq_ghz": {"start": 3, "stop": 20, "points": "4"}}}, "sweep.freq_ghz.points: expected "),
        ("transform", {"sweep": {"freq_ghz": [3, "4.5"]}}, "sweep.freq_ghz: expected "),
        ("transform", {"model": {"kind": "constant", "gamma": ["0.2", 0]}}, "model.gamma: expected "),
        ("transform", {"model": {"kind": "seeded_random", "seed": "5"}}, "model.seed: expected "),
        ("transform", {"model": {"kind": "demo", "band_ghz": ["3", 20]}}, "model.band_ghz: expected "),
        ("metrics", {"metrics": {"efficiency": "0.9"}}, "metrics.efficiency: expected "),
        ("metrics", {"sweep": {"theta_deg": ["30"], "phi_deg": [0]}}, "sweep.theta_deg/phi_deg: expected "),
        ("metrics", {"excitation": {"taper": {"kind": "gaussian", "w0_mm": "17"}}}, "excitation.taper.w0_mm: expected "),
        ("pattern", {"pattern": {"freq_ghz": [9.0], "cuts": ["30"]}}, "pattern.cuts[0]: expected "),
        ("pattern", {"pattern": {"freq_ghz": [9.0], "theta_step_deg": "1"}}, "pattern.theta_step_deg: expected "),
    ],
    ids=[
        "n_scan-digits", "n_scan-underscore", "n_scan-arabic-indic", "n_scan-spaces", "lambda_h_mm", "rings", "freq-start",
        "freq-points", "freq-list", "gamma", "seed", "band_ghz", "efficiency", "theta_deg", "w0_mm", "cut", "theta_step",
    ],
)
def test_numeric_config_fields_take_json_numbers_only(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_model_from_config_each_kind():
    c = cli._require_model({"model": {"kind": "constant", "gamma": [0.2, -0.1]}})
    assert isinstance(c, synthmodel.ConstantModel) and c.gamma0 == 0.2 - 0.1j
    sp = cli._require_model(
        {
            "model": {
                "kind": "scan_poly",
                "band_ghz": [3, 20],
                "alpha": [[3, 0.5, 0], [20, 0.1, 0]],
                "beta": [[3, 0.25, 0], [20, 0.25, 0]],
                "cross_pol_level": 0.5,
            }
        }
    )
    assert isinstance(sp, synthmodel.ScanPolyModel)
    assert sp.alpha[0] == (3e9, 0.5 + 0j)
    sr = cli._require_model({"model": {"kind": "seeded_random", "seed": 11}})
    assert isinstance(sr, synthmodel.SeededRandomModel) and sr.seed == 11
    assert isinstance(cli._require_model({"model": {"kind": "demo"}}), synthmodel.ScanPolyModel)


def test_model_from_config_errors_name_fields():
    with pytest.raises(cli.ConfigError, match="model.kind"):
        cli._require_model({"model": {"kind": "fullwave"}})
    with pytest.raises(cli.ConfigError, match="model.gamma"):
        cli._require_model({"model": {"kind": "constant"}})
    with pytest.raises(cli.ConfigError, match="model.seed"):
        cli._require_model({"model": {"kind": "seeded_random"}})
    # a malformed list was reported against the block alone, as "model: cannot unpack ..."
    knots = [[3, 0.5, 0], [20, 0.1, 0]]
    malformed = [
        ({"kind": "constant", "gamma": 0.5}, r"model\.gamma: expected \[re, im\], got 0\.5"),
        ({"kind": "constant", "gamma": [0.5, 0, 0]}, r"model\.gamma: expected \[re, im\]"),
        ({"kind": "scan_poly", "alpha": [[3, 0.5, 0], [20, 0.1]], "beta": knots}, r"model\.alpha\[1\]: expected \[f_ghz, re, im\]"),
        ({"kind": "scan_poly", "alpha": knots, "beta": [3.0]}, r"model\.beta\[0\]: expected \[f_ghz, re, im\], got 3\.0"),
        ({"kind": "scan_poly", "alpha": 5, "beta": knots}, r"model\.alpha: expected a list, got 5"),
    ]
    for model, message in malformed:
        with pytest.raises(cli.ConfigError, match=f"^{message}"):
            cli._require_model({"model": model})


@pytest.mark.parametrize("band", [[3], [3, 20, 1], [], "ab", 3])
def test_model_band_must_hold_two_numbers(band):
    for kind in ({"kind": "demo"}, {"kind": "seeded_random", "seed": 1}):
        with pytest.raises(cli.ConfigError, match="model.band_ghz"):
            cli._require_model({"model": {**kind, "band_ghz": band}})


@pytest.mark.parametrize("seed", [1, 5, 99])
def test_seeded_random_config_defaults_passive(seed):
    # defaults: level 0.8, cross_pol_level 1.0; these seeds reached 1.36-1.51
    grid = lattice.ReciprocalBasis(lattice.make_basis("triangular", 15e-3), 24)
    model = cli._require_model({"model": {"kind": "seeded_random", "seed": seed}})
    freqs = np.linspace(3e9, 20e9, 18)
    g = {pair: synthmodel.sample_grid(model, grid, freqs, pair).grid for pair in spectral.POL_PAIRS}
    # max over frequency and scan sample of the 2x2 block norm ||Gamma(m)||_2
    blocks = np.stack([np.stack([g["xx"], g["xy"]], -1), np.stack([g["yx"], g["yy"]], -1)], -2)
    assert float(np.linalg.norm(blocks, ord=2, axis=(-2, -1)).max()) <= 0.8 * (1 + 1e-12)


@pytest.mark.parametrize("label", ["E95", "Q7", "T30P"])
def test_pattern_bad_scan_label_exit_2(tmp_path, capsys, label):
    cfg = write_config(tmp_path, pattern={"freq_ghz": [9.0], "scan": label})
    assert cli.main(["pattern", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "pattern.scan" in capsys.readouterr().err
