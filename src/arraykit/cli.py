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
from .constants import PATTERN_ROW_CAP, PATTERN_SAMPLE_CAP, TRANSFORM_VALUE_CAP
from .lattice import config_float, config_int


DEFAULT_FREQ_GHZ = {"start": 3, "stop": 20, "points": 171}
# rows per write: one join per batch is faster than a write per row and holds only the batch's text
_WRITE_BATCH_ROWS = 1024


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


def _parse_frequencies(block, where: str, values_per_point: int, set_by: str, cap: int) -> np.ndarray:
    """Frequencies (Hz) of a ``{start, stop, points}`` block or a GHz list.

    ``values_per_point`` is what the command holds per frequency, as the
    fields named in ``set_by`` determine; a sweep whose point count times it
    exceeds ``cap`` is rejected before the frequency array is built.
    """
    if isinstance(block, dict):
        if not {"start", "stop", "points"} <= block.keys():
            raise ConfigError(f"{where}: expected {{start, stop, points}}")
        start, stop = (config_float(block[k], f"{where}.{k}", ConfigError) for k in ("start", "stop"))
        points = config_int(block["points"], f"{where}.points", ConfigError)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"{where}: start and stop must be finite")
        if points < 1 or stop < start or start <= 0:
            raise ConfigError(f"{where}: need 0 < start <= stop and points >= 1")
        _check_work(points, values_per_point, set_by, where, cap)
        return np.linspace(start * 1e9, stop * 1e9, points)
    if isinstance(block, (list, tuple)) and block:
        _check_work(len(block), values_per_point, set_by, where, cap)
        vals = np.array([1e9 * config_float(v, where, ConfigError) for v in block])
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{where}: frequencies must be finite")
        if np.any(vals <= 0) or np.any(np.diff(vals) <= 0):
            raise ConfigError(f"{where}: frequencies must be positive and increasing")
        return vals
    raise ConfigError(f"{where}: expected an object or a non-empty list")


def _check_work(points: int, values_per_point: int, set_by: str, where: str, cap: int) -> None:
    total = points * values_per_point
    if total > cap:
        raise ConfigError(
            f"{where}: {points} frequencies x {values_per_point} values each (set by {set_by}) "
            f"is {total:.3g} values, above the limit of {cap:.0e}"
        )


def _scan_label(label, pol: str, where: str) -> tuple[str, float, float]:
    try:
        return metrics.parse_scan_label(label, pol)
    except metrics.MetricError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _angle_text(value) -> str:
    """``%g`` text of an angle when it parses back to the same float, else the exact repr."""
    angle = config_float(value, "sweep.theta_deg/phi_deg", ConfigError)
    short = f"{angle:g}"
    return short if float(short) == angle else repr(angle)


def _block(cfg: dict, name: str) -> dict:
    """The config object ``name``, empty when absent."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name}: expected an object")
    return block


def _sweep_scans(cfg: dict, pol: str) -> list[str]:
    """Scan labels of the sweep block, each checked by :func:`metrics.parse_scan_label`."""
    block = _block(cfg, "sweep")
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


def _sweep_frequencies(cfg: dict, values_per_point: int, set_by: str) -> np.ndarray:
    freq_ghz = _block(cfg, "sweep").get("freq_ghz", DEFAULT_FREQ_GHZ)
    return _parse_frequencies(freq_ghz, "sweep.freq_ghz", values_per_point, set_by, TRANSFORM_VALUE_CAP)


def _excitation_block(cfg: dict) -> tuple[excitation.TaperSpec, str]:
    block = _block(cfg, "excitation")
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
            taper = excitation.TaperSpec("gaussian", config_float(tb.get("w0_mm", 17.0), "w0_mm", ConfigError) * 1e-3)
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
    """The two header lines, then ``rows``, joined a batch of rows at a time, never as one whole text."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# arraykit {__version__}\n# config_sha256={cfg_hash}\n")
        for start in range(0, len(rows), _WRITE_BATCH_ROWS):
            fh.write("\n".join(rows[start : start + _WRITE_BATCH_ROWS]) + "\n")


def _write_touchstone(path: Path, net: snp.NetworkData, fmt: str) -> None:
    """Write ``net`` record by record; a bad ``fmt`` fails before the file is opened."""
    records = snp.touchstone_records(net, fmt)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(records)


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
    basis, n_scan, shape = _require_lattice(cfg, need_aperture=args.touchstone)
    if "model" not in cfg:
        raise ConfigError("model: required for transform")
    model = synthmodel.model_from_config(cfg["model"])
    if args.seed is not None and isinstance(model, synthmodel.SeededRandomModel):
        model = replace(model, seed=args.seed)
    # bound the 4 sampled grids and, with --touchstone, the dense S before anything is allocated
    ports = 2 * lattice.aperture_size(shape) if args.touchstone else 0
    freqs = _sweep_frequencies(cfg, 4 * n_scan**2 + ports**2, "lattice.n_scan and the aperture")
    lo, hi = model.band
    if freqs[0] < lo or freqs[-1] > hi:
        raise ConfigError(
            f"sweep.freq_ghz: range [{freqs[0] / 1e9:g}, {freqs[-1] / 1e9:g}] GHz "
            f"outside model band [{lo / 1e9:g}, {hi / 1e9:g}] GHz"
        )
    aperture = None
    if shape is not None:
        spectral.check_aperture_fits(shape, n_scan)  # from the shape's parameters, before enumerating it
        aperture = lattice.enumerate_aperture(shape)

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
        net = spectral.assemble_finite_smatrix(sets, aperture)
        path = out / f"finite_array.s{net.port_count}p"
        _write_touchstone(path, net, "ri")
        print(f"wrote {path} ({net.port_count} ports, {freqs.size} frequencies)")
    return 0


def cmd_metrics(args) -> int:
    cfg = _load_config(args.config)
    basis, n_scan, shape = _require_lattice(cfg, need_aperture=True)
    n_elem = lattice.aperture_size(shape)
    taper, pol = _excitation_block(cfg)
    scans = _sweep_scans(cfg, pol)
    mblock = _block(cfg, "metrics")
    efficiency = config_float(mblock.get("efficiency", 1.0), "metrics.efficiency", ConfigError)
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError(f"metrics.efficiency: expected a value in (0, 1], got {efficiency}")

    snp_path = args.snp or mblock.get("snp")
    if snp_path is None:
        guess = Path(args.out or ".") / f"finite_array.s{2 * n_elem}p"
        if not guess.is_file():
            raise ConfigError("metrics.snp (or --snp): path to a Touchstone file is required")
        snp_path = guess
    if not Path(snp_path).is_file():
        raise ConfigError(f"metrics.snp: file not found: {snp_path}")
    net = snp.read_touchstone(snp_path)

    if net.port_count not in (n_elem, 2 * n_elem):
        raise snp.NetworkError(
            f"port count {net.port_count} matches neither {n_elem} (single-pol) nor "
            f"{2 * n_elem} (dual-pol) for the {n_elem}-element aperture"
        )
    dual = net.port_count == 2 * n_elem
    aperture = lattice.enumerate_aperture(shape)  # no larger than the file's port count
    pm = snp.PortMap.lexicographic(aperture) if dual else snp.PortMap.lexicographic(aperture, pols=(pol,))

    out = _out_dir(args)
    cfg_hash = _config_hash(cfg)
    # one sweep feeds every table; net= and scans= stay keywords, which the stage tracer reads
    sweeps = metrics.sweep(net=net, port_map=pm, basis=basis, aperture=aperture, taper=taper, scans=scans, pol=pol)
    tables = {"vswr.csv": metrics.vswr_table_rows(sweeps), "gain.csv": metrics.gain_table_rows(sweeps, efficiency)}
    if dual:
        tables["coupling.csv"] = metrics.coupling_table_rows(sweeps)
    for name, rows in tables.items():
        _write_lines(out / name, rows, cfg_hash)
        print(f"wrote {out / name}")
    if not dual:
        print("single-polarization network: orthogonal coupling table skipped")
    if args.gnuplot:
        stub = _gnuplot_stub(list(tables))
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
        phi = config_float(cut, where, ConfigError)
    except ConfigError:
        phi = math.nan
    if not math.isfinite(phi):
        raise ConfigError(f"{where}: expected E|H|D or a finite azimuth in degrees, got {cut!r}")
    return phi


def cmd_pattern(args) -> int:
    cfg = _load_config(args.config)
    basis, n_scan, shape = _require_lattice(cfg, need_aperture=True)
    n_elem = lattice.aperture_size(shape)
    taper, pol = _excitation_block(cfg)
    block = _block(cfg, "pattern")
    cuts = block.get("cuts", ["E", "H", "D"])
    if not isinstance(cuts, list) or not cuts:
        raise ConfigError("pattern.cuts: expected a non-empty list")
    cut_phis = [_cut_phi(cut, pol, f"pattern.cuts[{i}]") for i, cut in enumerate(cuts)]
    step = config_float(block.get("theta_step_deg", 1.0), "pattern.theta_step_deg", ConfigError)
    if not (step > 0 and math.isfinite(step)):
        raise ConfigError("pattern.theta_step_deg: must be positive and finite")
    # theta samples x elements; a float, so a step near 0 gives inf instead of overflowing an int
    samples = n_elem * (180.0 + step / 2) / step
    if samples > PATTERN_SAMPLE_CAP:
        raise ConfigError(
            f"pattern.theta_step_deg: {step:g} degrees gives about {samples:.3g} theta samples x "
            f"aperture elements per cut, above the limit of {PATTERN_SAMPLE_CAP}"
        )
    # a stop just past 90 and a clip of the last sample keep float drift from leaving [-90, 90]
    theta = np.minimum(np.arange(-90.0, 90.0 + step * 1e-6, step), 90.0)
    # per frequency: one output row per cut and theta sample, and one weight per element
    freqs = _parse_frequencies(
        block.get("freq_ghz", [4.0, 9.0, 18.0]), "pattern.freq_ghz", len(cuts) * theta.size + n_elem,
        "pattern.cuts, pattern.theta_step_deg and the aperture", PATTERN_ROW_CAP,
    )
    _, theta0, phi0 = _scan_label(str(block.get("scan", "broadside")), pol, "pattern.scan")

    aperture = lattice.enumerate_aperture(shape)
    pos = lattice.aperture_positions(basis, aperture)
    area = lattice.unit_cell_area(basis)
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
    out = Path(args.output)
    _write_touchstone(out, net, args.format)
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
