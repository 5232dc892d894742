"""Batch command-line front end.

Configuration-driven pipelines: lattice reports, synthetic sampling and the
infinite-to-finite transform, metric sweeps over measured or assembled
Touchstone data, array-factor pattern cuts, and Touchstone format
conversion.

Exit codes: 0 success, 2 configuration error, 3 transform-domain error,
4 data or port mismatch, 1 anything else. Identical configuration produces
byte-identical outputs. ``--threads`` is accepted by every command and has
no effect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, excitation, lattice, metrics, snp, spectral, synthmodel
from .constants import PATTERN_SAMPLE_CAP


class ConfigError(ValueError):
    """Configuration file is missing, unreadable, or schema-invalid."""


# --- configuration -------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if not path:
        raise ConfigError("--config is required for this command")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()[:16]


def _parse_frequencies(block, where: str) -> np.ndarray:
    if isinstance(block, dict):
        try:
            start, stop = float(block["start"]), float(block["stop"])
            points = int(block["points"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where}: expected {{start, stop, points}}") from None
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"{where}: start and stop must be finite")
        if points < 1 or stop < start or start <= 0:
            raise ConfigError(f"{where}: need 0 < start <= stop and points >= 1")
        return np.linspace(start * 1e9, stop * 1e9, points)
    if isinstance(block, (list, tuple)) and block:
        try:
            vals = np.array([1e9 * float(v) for v in block])
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: expected a list of numbers") from None
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{where}: frequencies must be finite")
        if np.any(vals <= 0) or np.any(np.diff(vals) <= 0):
            raise ConfigError(f"{where}: frequencies must be positive and increasing")
        return vals
    raise ConfigError(f"{where}: expected an object or a non-empty list")


def _scan_label(label, pol: str, where: str) -> tuple[str, float, float]:
    try:
        return metrics.parse_scan_label(label, pol)
    except metrics.MetricError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _angle_text(value) -> str:
    """``%g`` text of an angle when it parses back to the same float, else the exact repr."""
    angle = float(value)
    short = f"{angle:g}"
    return short if float(short) == angle else repr(angle)


def _sweep_scans(cfg: dict, pol: str) -> list[str]:
    """Scan labels of the sweep block, each checked by :func:`metrics.parse_scan_label`."""
    block = cfg.get("sweep", {})
    if not isinstance(block, dict):
        raise ConfigError("sweep: expected an object")
    if "scans" in block:
        scans = block["scans"]
        if not isinstance(scans, list) or not all(isinstance(s, str) for s in scans):
            raise ConfigError("sweep.scans: expected a list of labels")
        for i, label in enumerate(scans):
            _scan_label(label, pol, f"sweep.scans[{i}]")
        return scans
    if "theta_deg" in block or "phi_deg" in block:
        thetas = block.get("theta_deg", [0.0])
        phis = block.get("phi_deg", [0.0])
        try:
            scans = [f"T{_angle_text(t)}P{_angle_text(p)}" for t in thetas for p in phis]
        except (TypeError, ValueError):
            raise ConfigError("sweep.theta_deg/phi_deg: expected lists of numbers") from None
        for label in scans:
            _scan_label(label, pol, "sweep.theta_deg/phi_deg")
        return scans
    return ["broadside", "E60", "H60", "D60"]


def _sweep_frequencies(cfg: dict) -> np.ndarray:
    block = cfg.get("sweep", {})
    if isinstance(block, dict) and "freq_ghz" in block:
        return _parse_frequencies(block["freq_ghz"], "sweep.freq_ghz")
    return np.linspace(3e9, 20e9, 171)


def _excitation_block(cfg: dict) -> tuple[excitation.TaperSpec, str]:
    block = cfg.get("excitation", {})
    if not isinstance(block, dict):
        raise ConfigError("excitation: expected an object")
    pol = str(block.get("pol", "x")).lower()
    if pol not in snp.POLS:
        raise ConfigError(f"excitation.pol: expected x|y, got {pol!r}")
    tb = block.get("taper", {"kind": "gaussian", "w0_mm": 17.0})
    if not isinstance(tb, dict):
        raise ConfigError("excitation.taper: expected an object")
    kind = tb.get("kind", "gaussian")
    if kind == "uniform":
        taper = excitation.TaperSpec("uniform")
    elif kind == "gaussian":
        try:
            taper = excitation.TaperSpec("gaussian", float(tb.get("w0_mm", 17.0)) * 1e-3)
        except (TypeError, ValueError, excitation.ExcitationError) as exc:
            raise ConfigError(f"excitation.taper: {exc}") from None
    else:
        raise ConfigError(f"excitation.taper.kind: expected uniform|gaussian, got {kind!r}")
    return taper, pol


def _require_lattice(cfg: dict, need_aperture: bool = False):
    if "lattice" not in cfg:
        raise ConfigError("lattice: required")
    basis, n_scan, shape = lattice.lattice_from_config(cfg["lattice"])
    if need_aperture and shape is None:
        raise ConfigError("lattice.aperture: required for this command")
    return basis, n_scan, shape


# --- output helpers -------------------------------------------------------------


def _write_lines(path: Path, rows: list[str], cfg_hash: str) -> None:
    header = [f"# arraykit {__version__}", f"# config_sha256={cfg_hash}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(header + rows) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands ----------------------------------------------------------------


def cmd_lattice(args) -> int:
    cfg = _load_config(args.config)
    basis, n_scan, _ = _require_lattice(cfg)
    recip = lattice.reciprocal_basis(basis, n_scan)
    area = lattice.unit_cell_area(basis)
    ratio = lattice.unit_cell_area(lattice.make_basis("triangular", basis.lambda_h)) / lattice.unit_cell_area(
        lattice.make_basis("square", basis.lambda_h)
    )
    lines = [
        f"lattice: {basis.kind}, lambda_h = {basis.lambda_h * 1e3:g} mm, n_scan = {n_scan}",
        f"a1 = ({basis.a1[0] * 1e3:.6f}, {basis.a1[1] * 1e3:.6f}) mm",
        f"a2 = ({basis.a2[0] * 1e3:.6f}, {basis.a2[1] * 1e3:.6f}) mm",
        f"k1 = ({recip.k1[0]:.6f}, {recip.k1[1]:.6f}) rad/m",
        f"k2 = ({recip.k2[0]:.6f}, {recip.k2[1]:.6f}) rad/m",
        f"unit cell area: {area * 1e6:.5f} mm^2",
        f"area ratio (triangular/square): {ratio:.5f} (+{10 * math.log10(ratio):.3f} dB)",
        "grating-lobe onset:",
    ]
    for theta in (0, 15, 30, 45, 60, 75, 90):
        onset = lattice.grating_lobe_onset(basis, float(theta))
        lines.append(f"  theta_deg={theta:<3d} onset={onset / 1e9:.3f} GHz")
    text = "\n".join(lines)
    print(text)
    if args.out:
        _write_lines(_out_dir(args) / "lattice_report.txt", lines, _config_hash(cfg))
    return 0


def cmd_transform(args) -> int:
    cfg = _load_config(args.config)
    basis, n_scan, shape = _require_lattice(cfg)
    if "model" not in cfg:
        raise ConfigError("model: required for transform")
    model = synthmodel.model_from_config(cfg["model"])
    if args.seed is not None and isinstance(model, synthmodel.SeededRandomModel):
        model = replace(model, seed=args.seed)
    freqs = _sweep_frequencies(cfg)
    lo, hi = model.band
    if freqs[0] < lo or freqs[-1] > hi:
        raise ConfigError(
            f"sweep.freq_ghz: range [{freqs[0] / 1e9:g}, {freqs[-1] / 1e9:g}] GHz "
            f"outside model band [{lo / 1e9:g}, {hi / 1e9:g}] GHz"
        )

    aperture = lattice.enumerate_aperture(shape) if shape is not None else None
    if aperture is not None:
        spectral.check_aperture_fits(aperture, n_scan)

    recip = lattice.reciprocal_basis(basis, n_scan)
    grid = spectral.build_scan_grid(recip)
    grids = {pair: synthmodel.sample_grid(model, grid, freqs, pair) for pair in spectral.POL_PAIRS}

    method = "direct" if args.oracle else "fft"
    sets = {pair: spectral.gamma_to_coupling(g, method) for pair, g in grids.items()}
    if args.oracle:
        delta = max(np.abs(sets[p].coeffs - spectral.gamma_to_coupling(g).coeffs).max() for p, g in grids.items())
        print(f"oracle check: max |direct - fft| = {delta:.3e}")

    out = _out_dir(args)
    cfg_hash = _config_hash(cfg)
    for pair, cset in sets.items():
        path = out / f"coupling_{pair}.csv"
        _write_lines(path, spectral.coupling_csv_rows(cset), cfg_hash)
        print(f"wrote {path}")
    if args.gamma:
        for pair, g in grids.items():
            path = out / f"gamma_{pair}.csv"
            _write_lines(path, spectral.gamma_csv_rows(g), cfg_hash)
            print(f"wrote {path}")
    if args.touchstone:
        if aperture is None:
            raise ConfigError("lattice.aperture: required to assemble a Touchstone file")
        pm = snp.PortMap.lexicographic(aperture)
        net = spectral.assemble_finite_smatrix(sets, aperture, pm)
        path = out / f"finite_array.s{net.port_count}p"
        path.write_text(snp.write_touchstone(net, "ri"))
        print(f"wrote {path} ({net.port_count} ports, {freqs.size} frequencies)")
    return 0


def cmd_metrics(args) -> int:
    cfg = _load_config(args.config)
    basis, n_scan, shape = _require_lattice(cfg, need_aperture=True)
    aperture = lattice.enumerate_aperture(shape)
    taper, pol = _excitation_block(cfg)
    scans = _sweep_scans(cfg, pol)
    mblock = cfg.get("metrics", {})
    if not isinstance(mblock, dict):
        raise ConfigError("metrics: expected an object")
    try:
        efficiency = float(mblock.get("efficiency", 1.0))
    except (TypeError, ValueError):
        raise ConfigError("metrics.efficiency: expected a number") from None
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError(f"metrics.efficiency: expected a value in (0, 1], got {efficiency}")

    snp_path = args.snp or mblock.get("snp")
    if snp_path is None:
        guess = Path(args.out or ".") / f"finite_array.s{2 * len(aperture)}p"
        if not guess.is_file():
            raise ConfigError("metrics.snp (or --snp): path to a Touchstone file is required")
        snp_path = guess
    if not Path(snp_path).is_file():
        raise ConfigError(f"metrics.snp: file not found: {snp_path}")
    net = snp.read_touchstone(snp_path)

    n_elem = len(aperture)
    if net.port_count == 2 * n_elem:
        pm = snp.PortMap.lexicographic(aperture)
    elif net.port_count == n_elem:
        pm = snp.PortMap.lexicographic(aperture, pols=(pol,))
    else:
        raise snp.NetworkError(
            f"port count {net.port_count} matches neither {n_elem} (single-pol) nor "
            f"{2 * n_elem} (dual-pol) for the {n_elem}-element aperture"
        )
    dual = net.port_count == 2 * n_elem

    out = _out_dir(args)
    cfg_hash = _config_hash(cfg)
    common = dict(net=net, port_map=pm, basis=basis, aperture=aperture, taper=taper, pol=pol)
    vs = metrics.sweep(scans=scans, metric="vswr", **common)
    _write_lines(out / "vswr.csv", metrics.vswr_table_rows(vs), cfg_hash)
    print(f"wrote {out / 'vswr.csv'}")
    gn = metrics.sweep(scans=scans, metric="gain", efficiency=efficiency, **common)
    _write_lines(out / "gain.csv", metrics.gain_table_rows(gn), cfg_hash)
    print(f"wrote {out / 'gain.csv'}")
    if dual:
        cp = metrics.sweep(scans=scans, metric="coupling", **common)
        _write_lines(out / "coupling.csv", metrics.coupling_table_rows(cp), cfg_hash)
        print(f"wrote {out / 'coupling.csv'}")
    else:
        print("single-polarization network: orthogonal coupling table skipped")
    if args.gnuplot:
        stub = _gnuplot_stub(["vswr.csv", "gain.csv"] + (["coupling.csv"] if dual else []))
        (out / "plots.gp").write_text(stub)
        print(f"wrote {out / 'plots.gp'}")
    return 0


def _gnuplot_stub(tables: list[str]) -> str:
    """Minimal gnuplot script over the metric tables; plotting stays out of process."""
    lines = [
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set xlabel 'frequency (Hz)'",
        "set key autotitle columnhead outside",
    ]
    for name in tables:
        stem = name.rsplit(".", 1)[0]
        lines += [
            f"set ylabel '{stem}'",
            f"plot '{name}' using 1:4 with lines",
            "pause -1",
        ]
    return "\n".join(lines) + "\n"


def _cut_phi(cut, pol: str, where: str) -> float:
    """Azimuth (degrees) of a pattern cut: a principal plane E|H|D or a finite angle."""
    if str(cut).lower() in ("e", "h", "d"):
        return excitation.plane_phi(cut, pol)
    try:
        phi = float(cut)
    except (TypeError, ValueError):
        phi = math.nan
    if not math.isfinite(phi):
        raise ConfigError(f"{where}: expected E|H|D or a finite azimuth in degrees, got {cut!r}")
    return phi


def cmd_pattern(args) -> int:
    cfg = _load_config(args.config)
    basis, n_scan, shape = _require_lattice(cfg, need_aperture=True)
    aperture = lattice.enumerate_aperture(shape)
    taper, pol = _excitation_block(cfg)
    block = cfg.get("pattern", {})
    if not isinstance(block, dict):
        raise ConfigError("pattern: expected an object")
    freqs = _parse_frequencies(block.get("freq_ghz", [4.0, 9.0, 18.0]), "pattern.freq_ghz")
    cuts = block.get("cuts", ["E", "H", "D"])
    if not isinstance(cuts, list) or not cuts:
        raise ConfigError("pattern.cuts: expected a non-empty list")
    cut_phis = [_cut_phi(cut, pol, f"pattern.cuts[{i}]") for i, cut in enumerate(cuts)]
    try:
        step = float(block.get("theta_step_deg", 1.0))
    except (TypeError, ValueError):
        raise ConfigError("pattern.theta_step_deg: expected a number") from None
    if not (step > 0 and math.isfinite(step)):
        raise ConfigError("pattern.theta_step_deg: must be positive and finite")
    # theta samples x elements; a float, so a step near 0 gives inf instead of overflowing an int
    samples = len(aperture) * (180.0 + step / 2) / step
    if samples > PATTERN_SAMPLE_CAP:
        raise ConfigError(
            f"pattern.theta_step_deg: {step:g} degrees gives about {samples:.3g} theta samples x "
            f"aperture elements per cut, above the limit of {PATTERN_SAMPLE_CAP}"
        )
    _, theta0, phi0 = _scan_label(str(block.get("scan", "broadside")), pol, "pattern.scan")

    pos = lattice.aperture_positions(basis, aperture)
    area = lattice.unit_cell_area(basis)
    theta = np.arange(-90.0, 90.0 + step / 2, step)
    port_map = snp.PortMap.lexicographic(aperture, pols=(pol,))  # port i is aperture element i
    weights = excitation.weight_function(basis, aperture, port_map, taper, pol)(
        excitation.scan_wavevectors(theta0, phi0, freqs)
    )
    pats = [
        metrics.array_factor_pattern(pos, w, float(f), theta, phi, area, label=str(cut))
        for f, w in zip(freqs, weights)
        for cut, phi in zip(cuts, cut_phis)
    ]
    out = _out_dir(args)
    path = out / "pattern.csv"
    _write_lines(path, metrics.pattern_table_rows(pats), _config_hash(cfg))
    print(f"wrote {path}")
    return 0


def cmd_convert(args) -> int:
    net = snp.read_touchstone(args.input)
    text = snp.write_touchstone(net, args.format)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {out} ({net.port_count} ports, {net.frequencies.size} frequencies, {args.format.upper()})")
    return 0


# --- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON configuration file")
    shared.add_argument("--out", help="output directory (default: current)")
    shared.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")

    parser = argparse.ArgumentParser(prog="arraykit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"arraykit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lattice", parents=[shared], help="report lattice constants and grating-lobe onsets")
    tr = sub.add_parser("transform", parents=[shared], help="sample the model and write coupling coefficients")
    tr.add_argument("--gamma", action="store_true", help="also write the sampled gamma grids")
    tr.add_argument("--oracle", action="store_true", help="use the direct double-sum transform path")
    tr.add_argument("--seed", type=int, default=None, help="override the seeded-random model seed")
    tr.add_argument("--touchstone", action="store_true", help="assemble and write the finite-array Touchstone file")
    me = sub.add_parser("metrics", parents=[shared], help="VSWR/coupling/gain sweeps from a Touchstone file")
    me.add_argument("--snp", help="input Touchstone file (default: metrics.snp from config)")
    me.add_argument("--gnuplot", action="store_true", help="also write a gnuplot script stub")
    sub.add_parser("pattern", parents=[shared], help="array-factor pattern cuts")
    cv = sub.add_parser("convert", parents=[shared], help="convert a Touchstone file between formats")
    cv.add_argument("input")
    cv.add_argument("output")
    cv.add_argument("--format", default="ri", choices=["ri", "ma", "db", "RI", "MA", "DB"])
    return parser


_COMMANDS = {
    "lattice": cmd_lattice,
    "transform": cmd_transform,
    "metrics": cmd_metrics,
    "pattern": cmd_pattern,
    "convert": cmd_convert,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, lattice.LatticeError, synthmodel.ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (spectral.ApertureGridError, spectral.GridShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (snp.TouchstoneError, snp.NetworkError, metrics.MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - catch-all contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
