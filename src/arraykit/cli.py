"""Batch command-line front end.

Configuration-driven pipelines: lattice reports, synthetic sampling and the
infinite-to-finite transform, metric sweeps over measured or assembled
Touchstone data, array-factor pattern cuts, and Touchstone format
conversion.

The JSON configuration is read here alone: each fault in it, an unknown
key among them, raises :class:`ConfigError` naming its field, and every
number in it must be a finite JSON number, not a string.

Exit codes: 0 success, 2 configuration error, 3 transform-domain error,
4 data or port mismatch, 1 anything else. Identical configuration produces
byte-identical outputs. ``--threads`` is accepted by every command and has
no effect.

Importing this module runs only it and :mod:`arraykit.constants`. The other
submodules are bound lazily (``importlib.util.LazyLoader``): each one's
body runs at its first attribute access, so ``arraykit --version`` compiles
none of them. ``main`` loads the parsed command's module, from the table
``_COMMANDS``, before it pads the heap: ``lattice`` for ``lattice``,
``synthmodel`` for ``transform``, ``metrics`` for ``metrics`` and
``pattern``, ``snp`` for ``convert``. Their own imports bring in the rest,
and on an error ``main``'s ``except`` clauses load the modules they name.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .constants import C0, DEFAULT_N_SCAN, MEMORY_BUDGET


def _lazy(name: str):
    """This package's submodule ``name``, whose body runs at its first attribute access.

    A submodule already imported is returned as it is, so that each class
    exists once; a new one is put in ``sys.modules`` and on the package, as
    an import would.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


excitation, lattice, metrics, snp, spectral, synthmodel = map(
    _lazy, ("excitation", "lattice", "metrics", "snp", "spectral", "synthmodel")
)

# CPython's built-in SHA-256: hashlib would load OpenSSL's libcrypto (3.4 MB resident) into every command
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # an interpreter built without its own SHA-2 modules
        from hashlib import sha256


DEFAULT_FREQ_GHZ = {"start": 3, "stop": 20, "points": 171}
# glibc's mallopt parameter for the free memory kept at the top of the heap, and the amount kept
_M_TOP_PAD, _HEAP_TOP_PAD = -2, 16 << 20


class ConfigError(ValueError):
    """Configuration file is missing, unreadable, or schema-invalid."""


# --- configuration -------------------------------------------------------------
# The fields of the top level ("") and of each object whose fields do not depend on its kind. model,
# lattice.aperture, excitation.taper and a {start, stop, points} block name theirs where they are read.
_FIELDS = {
    "": "lattice, model, excitation, sweep, metrics, pattern",
    "lattice": "kind, lambda_h_mm, n_scan, aperture",
    "excitation": "pol, taper",
    "sweep": "scans, theta_deg, phi_deg, freq_ghz",
    "metrics": "efficiency, snp",
    "pattern": "freq_ghz, cuts, theta_step_deg, scan",
}


def _known_fields(block: dict, where: str, fields: str) -> None:
    """Raise :class:`ConfigError` naming ``where.key`` for a key of ``block`` that is not one of ``fields``."""
    for key in block:
        if key not in fields.split(", "):
            name = f"{where}.{key}" if where else key
            raise ConfigError(f"{name}: unknown field (expected {fields})")


def _load_config(path: str | None) -> dict:
    if not path:
        raise ConfigError("--config is required for this command")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer of more digits than int() converts
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _known_fields(cfg, "", _FIELDS[""])
    return cfg


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return sha256(canonical).hexdigest()[:16]


def _config_int(value, where: str) -> int:
    """An integer config field, a JSON integer or an integral float; anything else raises :class:`ConfigError` naming ``where``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _config_float(value, where: str) -> float:
    """A numeric config field, a JSON number; a boolean, a string, nan or +-inf raises :class:`ConfigError` naming ``where``."""
    try:
        number = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _config_list(value, where: str, form: str | None = None) -> list:
    """A list config field, of the entries ``form`` names (``"re, im"``) when given; else :class:`ConfigError` naming ``where``."""
    if isinstance(value, (list, tuple)) and (form is None or len(value) == len(form.split(","))):
        return list(value)
    raise ConfigError(f"{where}: expected {'a list' if form is None else f'[{form}]'}, got {value!r}")


def _config_hz(value, where: str) -> float:
    """A frequency field in GHz, as Hz; one that overflows in Hz raises :class:`ConfigError` naming ``where``."""
    hz = 1e9 * _config_float(value, where)
    if math.isinf(hz):
        raise ConfigError(f"{where}: {value!r} GHz overflows in Hz")
    return hz


def _parse_frequencies(block, where: str, price: tuple[int, int], set_by: str) -> np.ndarray:
    """Frequencies (Hz) of a ``{start, stop, points}`` block or a GHz list, strictly increasing.

    ``price`` is ``(fixed bytes, bytes per frequency)`` of the command, as
    the fields named in ``set_by`` determine; a sweep that puts it over
    :data:`MEMORY_BUDGET` is rejected before the frequency array is built.
    """
    if isinstance(block, dict):
        _known_fields(block, where, "start, stop, points")
        if not {"start", "stop", "points"} <= block.keys():
            raise ConfigError(f"{where}: expected {{start, stop, points}}")
        start, stop = (_config_hz(block[k], f"{where}.{k}") for k in ("start", "stop"))
        points = _config_int(block["points"], f"{where}.points")
        if points < 1 or stop < start or start <= 0:
            raise ConfigError(f"{where}: need 0 < start <= stop and points >= 1")
        if points > 1 and stop == start:
            raise ConfigError(f"{where}: {points} points need start < stop")
        _check_budget(price[0] + points * price[1], where, f"{where}.points, {set_by}")
        return np.linspace(start, stop, points)
    if isinstance(block, (list, tuple)) and block:
        _check_budget(price[0] + len(block) * price[1], where, f"its length, {set_by}")
        vals = np.array([_config_hz(v, where) for v in block])
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
    angle = _config_float(value, "sweep.theta_deg/phi_deg")
    short = f"{angle:g}"
    return short if float(short) == angle else repr(angle)


def _block(cfg: dict, name: str) -> dict:
    """The config object ``name``, empty when absent, its keys checked when :data:`_FIELDS` names its fields."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name}: expected an object")
    if name in _FIELDS:
        _known_fields(block, name, _FIELDS[name])
    return block


def _sweep_scans(cfg: dict, pol: str) -> list[tuple[str, float, float]]:
    """The sweep block's scans as ``(label, theta_deg, phi_deg)``, each parsed once by :func:`metrics.parse_scan_label`."""
    block = _block(cfg, "sweep")
    if "scans" in block:
        labels = block["scans"]
        if not (isinstance(labels, list) and labels and all(isinstance(s, str) for s in labels)):
            raise ConfigError("sweep.scans: expected a non-empty list of labels")
        return [_scan_label(label, pol, f"sweep.scans[{i}]") for i, label in enumerate(labels)]
    if "theta_deg" in block or "phi_deg" in block:
        where = "sweep.theta_deg/phi_deg"
        thetas, phis = block.get("theta_deg", [0.0]), block.get("phi_deg", [0.0])
        if not (isinstance(thetas, list) and isinstance(phis, list) and thetas and phis):
            raise ConfigError(f"{where}: expected non-empty lists of numbers")
        return [_scan_label(f"T{_angle_text(t)}P{_angle_text(p)}", pol, where) for t in thetas for p in phis]
    return [metrics.parse_scan_label(label, pol) for label in ("broadside", "E60", "H60", "D60")]


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
        _known_fields(tb, "excitation.taper", "kind")
        taper = excitation.TaperSpec("uniform")
    elif kind == "gaussian":
        _known_fields(tb, "excitation.taper", "kind, w0_mm")
        w0_mm = _config_float(tb.get("w0_mm", 17.0), "excitation.taper.w0_mm")
        try:
            taper = excitation.TaperSpec("gaussian", w0_mm * 1e-3)
        except excitation.ExcitationError as exc:
            raise ConfigError(f"excitation.taper.w0_mm: {exc}") from None
    else:
        raise ConfigError(f"excitation.taper.kind: expected uniform|gaussian, got {kind!r}")
    return taper, pol


def _require_lattice(cfg: dict, need_aperture: bool = False):
    """``(reciprocal basis, aperture shape or None)`` of the ``lattice`` block."""
    if "lattice" not in cfg:
        raise ConfigError("lattice: required")
    d = _block(cfg, "lattice")
    kind = d.get("kind")
    if kind not in lattice.LATTICE_KINDS:
        raise ConfigError(f"lattice.kind: expected square|triangular, got {kind!r}")
    if "lambda_h_mm" not in d:
        raise ConfigError("lattice.lambda_h_mm: required")
    lambda_h = _config_float(d["lambda_h_mm"], "lattice.lambda_h_mm") * 1e-3
    n_scan = _config_int(d.get("n_scan", DEFAULT_N_SCAN), "lattice.n_scan")
    try:
        basis = lattice.make_basis(kind, lambda_h)
    except lattice.LatticeError:  # the kind is valid, so lambda_h is at fault
        msg = f"expected a positive length whose square in m^2 is a normal float, got {d['lambda_h_mm']!r}"
        raise ConfigError(f"lattice.lambda_h_mm: {msg}") from None
    try:
        recip = lattice.ReciprocalBasis(basis, n_scan)
    except lattice.LatticeError as exc:
        raise ConfigError(f"lattice.n_scan: {exc}") from None
    shape = None if d.get("aperture") is None else _aperture_shape(d["aperture"])
    if need_aperture and shape is None:
        raise ConfigError("lattice.aperture: required for this command")
    return recip, shape


def _aperture_shape(d) -> lattice.ApertureShape:
    """The ``lattice.aperture`` block, such as ``{"shape": "hexagon", "rings": 2}``."""
    where = "lattice.aperture"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = d.get("shape")
    try:
        if kind == "rectangle":
            _known_fields(d, where, "shape, n1, n2")
            n1, n2 = (
                [_config_int(v, f"{where}.{key}") for v in _config_list(d[key], f"{where}.{key}", "min, max")]
                for key in ("n1", "n2")
            )
            return lattice.RectangleAperture(*n1, *n2)
        if kind == "hexagon":
            _known_fields(d, where, "shape, rings")
            return lattice.HexagonAperture(_config_int(d["rings"], f"{where}.rings"))
        if kind == "triangle":
            _known_fields(d, where, "shape, rows")
            return lattice.TriangleAperture(_config_int(d["rows"], f"{where}.rows"))
        if kind == "explicit":
            _known_fields(d, where, "shape, indices")
            idx = f"{where}.indices"
            pairs = (_config_list(pair, f"{idx}[{k}]", "n1, n2") for k, pair in enumerate(_config_list(d["indices"], idx)))
            return lattice.ExplicitAperture(tuple((_config_int(i, idx), _config_int(j, idx)) for i, j in pairs))
    except KeyError as exc:
        raise ConfigError(f"{where}.{exc.args[0]}: required for shape {kind!r}") from None
    except lattice.LatticeError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}.shape: expected rectangle|hexagon|triangle|explicit, got {kind!r}")


def _require_model(cfg: dict) -> synthmodel.ModelSpec:
    """The ``model`` block: kind ``constant`` (gamma), ``scan_poly`` (alpha, beta, k_ref, cross_pol_level),
    ``seeded_random`` (seed, smoothness, k_ref, level, cross_pol_level) or ``demo`` (cross_pol_level), each
    with an optional ``band_ghz``; ``alpha`` and ``beta`` are ``[[f_ghz, re, im], ...]`` knot tables."""
    if "model" not in cfg:
        raise ConfigError("model: required for transform")
    d = _block(cfg, "model")
    kind = d.get("kind")

    def num(value, key: str) -> float:
        return _config_float(value, f"model.{key}")

    def knots(key: str) -> tuple:
        where = f"model.{key}"
        rows = (_config_list(k, f"{where}[{i}]", "f_ghz, re, im") for i, k in enumerate(_config_list(d[key], where)))
        return tuple((_config_hz(f, where), complex(num(re, key), num(im, key))) for f, re, im in rows)

    band_ghz = _config_list(d.get("band_ghz", (3.0, 20.0)), "model.band_ghz", "f_min, f_max")
    band = tuple(_config_hz(x, "model.band_ghz") for x in band_ghz)
    default_k_ref = 2 * math.pi * band[1] / C0  # the free-space wavenumber at the top of the band
    try:
        if kind == "constant":
            _known_fields(d, "model", "kind, band_ghz, gamma")
            re, im = (num(v, "gamma") for v in _config_list(d["gamma"], "model.gamma", "re, im"))
            return synthmodel.ConstantModel(complex(re, im), band)
        if kind == "scan_poly":
            _known_fields(d, "model", "kind, band_ghz, alpha, beta, k_ref, cross_pol_level")
            alpha, beta = knots("alpha"), knots("beta")
            k_ref = num(d.get("k_ref", default_k_ref), "k_ref")
            cross = num(d.get("cross_pol_level", 0.0), "cross_pol_level")
            return synthmodel.ScanPolyModel(alpha, beta, k_ref, band, cross)
        if kind == "seeded_random":
            _known_fields(d, "model", "kind, band_ghz, seed, smoothness, k_ref, level, cross_pol_level")
            return synthmodel.SeededRandomModel(
                seed=_config_int(d["seed"], "model.seed"),
                smoothness=_config_int(d.get("smoothness", 3), "model.smoothness"),
                k_ref=num(d.get("k_ref", default_k_ref), "k_ref"),
                band=band,
                level=num(d.get("level", 0.8), "level"),
                cross_pol_level=num(d.get("cross_pol_level", 1.0), "cross_pol_level"),
            )
        if kind == "demo":
            _known_fields(d, "model", "kind, band_ghz, cross_pol_level")
            return synthmodel.demo_model(band, num(d.get("cross_pol_level", 0.5), "cross_pol_level"))
    except KeyError as exc:
        raise ConfigError(f"model.{exc.args[0]}: required for kind {kind!r}") from None
    except synthmodel.ModelError as exc:
        raise ConfigError(f"model: {exc}") from None
    raise ConfigError(f"model.kind: expected constant|scan_poly|seeded_random|demo, got {kind!r}")


# --- memory budget ---------------------------------------------------------------
# Bytes held at once per unit, as tracemalloc measured them ("about") rounded up; each price sums them over
# the sizes its config or input file gives. The fixed part covers the parser, config and small arrays. transform,
# metrics and pattern hold less than they are priced at (one 16-frequency chunk, one scan's rows, one block of theta
# samples); the prices stay as upper bounds, which also refuse runs that would write GBs of text.
_FIXED_BYTES = 1 << 20  # about 0.3 MB
_ELEMENT_BYTES = 512  # per aperture element: its indices, position and port-map entries, about 250 B
_TEXT_ENTRY_BYTES = 256  # per S entry of one record, read or assembled and then formatted as text, about 170 B
_PORT_FREQ_BYTES = 128  # per port and frequency: one scan's weights (about 60 B), and the S rows metrics keeps
_ROW_BYTES = 128  # per CSV row of metrics or pattern, with the values it is formatted from, about 120 B
# frequencies transform samples, inverts and formats at once: one chunk of one pol pair's grid and coupling set
# is held at a time, and the per-call overhead of sampling and the FFT stays negligible
_FREQ_CHUNK = 16


def _check_budget(nbytes: int, where: str, set_by: str) -> None:
    """Raise :class:`ConfigError` naming ``where`` if ``nbytes``, a price from ``set_by``, is over the budget."""
    if nbytes > MEMORY_BUDGET:
        shown = nbytes if nbytes.bit_length() <= 64 else f"more than {1 << 64}"
        msg = f"the run would hold {shown} bytes at once (set by {set_by}), above the budget of {MEMORY_BUDGET}"
        raise ConfigError(f"{where}: {msg}")


def _transform_price(n_scan: int, model: synthmodel.ModelSpec, ports: int) -> tuple[int, int]:
    """``(fixed bytes, bytes per frequency)`` of ``transform``: one pol pair's grids, and one S record of ``ports`` formatted."""
    # per scan point and frequency of one 16-frequency chunk, one pol pair at a time: the chunk of its grid with the
    # model's evaluation temporaries, its coupling set with the inverse FFT's temporaries and one 1024-row chunk's
    # text, and with --touchstone the chunk's coupling windows of the earlier pairs, each as large as the grid's chunk
    # when the aperture spans it: about 115 B at most (traced at N = 128, F = 17 and F = 33, an aperture spanning the
    # grid), 64 B without --touchstone; and 40 B per seeded-random term while sampling. Nothing outlives a chunk, so
    # charging every frequency over-counts longer sweeps. The extra frequency covers a sweep shorter than one chunk
    # (traced peak 80 B per scan point at N = 512, F = 1)
    terms = model.smoothness if isinstance(model, synthmodel.SeededRandomModel) else 0
    per = n_scan**2 * (128 + 40 * terms)
    return _FIXED_BYTES + ports**2 * _TEXT_ENTRY_BYTES + per, per


def _pattern_price(elements: int, cuts: int, thetas: int) -> tuple[int, int]:
    """``(fixed bytes, bytes per frequency)`` of ``pattern``: one cut's phase matrix; rows and weights."""
    fixed = _FIXED_BYTES + elements * (_ELEMENT_BYTES + 40 * thetas)  # the matrix, about 33 B per entry
    return fixed, cuts * thetas * _ROW_BYTES + elements * _PORT_FREQ_BYTES


def _metrics_price(size: int, ports: int, elements: int, scans: int) -> int:
    """Bytes ``metrics`` holds: one record read, then each frequency's kept rows, weights and table rows."""
    freqs = size // (2 * (1 + 2 * ports * ports))  # each of a record's values takes a character and a separator
    per = ports * _PORT_FREQ_BYTES + 3 * scans * _ROW_BYTES
    return _FIXED_BYTES + elements * _ELEMENT_BYTES + 64 * ports**2 + freqs * per  # a record read: about 50 B per entry


# --- output helpers -------------------------------------------------------------


@contextmanager
def _writing(headers: dict[Path, str]) -> Iterator[list]:
    """Open each path of ``headers`` for writing, its header written, and yield the open files in the same order.

    Each file is a temporary file ``.<name>.<pid>.tmp`` beside its path,
    made with its parent directories. Once the body ends, the temporary
    files replace their paths, one after another; a fault before then
    unlinks all of them, so it leaves no new output and any earlier file at
    each path unchanged.
    """
    tmps = []
    try:
        with ExitStack() as stack:
            files = []
            for path, header in headers.items():
                path.parent.mkdir(parents=True, exist_ok=True)
                tmps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
                files.append(stack.enter_context(open(tmps[-1], "w", newline="\n")))
                files[-1].write(header)
            yield files
        for tmp, path in zip(tmps, headers):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: Path, header: str, chunks: Iterable[str]) -> int:
    """Write ``header`` and then each newline-ended chunk to ``path``, all or nothing (:func:`_writing`); return the chunk count."""
    count = 0
    with _writing({path: header}) as (fh,):
        for chunk in chunks:
            fh.write(chunk)
            count += 1
            del chunk  # a chunk can be a whole record's text: drop it before the next is made
    return count


def _say(text: str) -> None:
    """Print a line of a command's report. The files are the product, not these lines: once stdout's reader has
    gone, as ``| head -1`` leaves it, stdout becomes os.devnull, so that no later line nor the final flush fails."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")


def _header(cfg_hash: str) -> str:
    """The two header lines that start every table: the version and the config's hash."""
    return f"# arraykit {__version__}\n# config_sha256={cfg_hash}\n"


def _joined(batches: Iterable[list[str]]) -> Iterator[str]:
    """Each batch of rows as one newline-ended text, joined when it is reached."""
    return map(lambda rows: "\n".join(rows) + "\n", batches)


# --- subcommands ----------------------------------------------------------------


def cmd_lattice(args) -> int:
    cfg = _load_config(args.config)
    recip, _ = _require_lattice(cfg)
    basis, n_scan = recip.basis, recip.n_scan
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
    _say(text)
    if args.out:
        _write_lines(Path(args.out) / "lattice_report.txt", _header(_config_hash(cfg)), [text + "\n"])
    return 0


def cmd_transform(args) -> int:
    """Sample the model and write each pol pair's coupling CSV (and gamma CSV), and the ``.sNp`` with ``--touchstone``.

    Everything the config determines, the budget and the aperture fit is
    checked before any file is opened. :func:`_transform_chunks` then fills
    every output, and the files appear together (:func:`_writing`) before
    any ``wrote`` line is printed.
    """
    cfg = _load_config(args.config)
    recip, shape = _require_lattice(cfg, need_aperture=args.touchstone)
    model = _require_model(cfg)
    if args.seed is not None:
        if not isinstance(model, synthmodel.SeededRandomModel):
            raise ConfigError(f"--seed: model kind {cfg['model']['kind']!r} takes no seed; only 'seeded_random' does")
        try:
            model = replace(model, seed=args.seed)
        except synthmodel.ModelError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    ports = 2 * lattice.aperture_size(shape) if args.touchstone else 0
    freqs = _parse_frequencies(
        _block(cfg, "sweep").get("freq_ghz", DEFAULT_FREQ_GHZ), "sweep.freq_ghz",
        _transform_price(recip.n_scan, model, ports), "lattice.n_scan, the model and the aperture",
    )
    lo, hi = model.band
    if freqs[0] < lo or freqs[-1] > hi:
        raise ConfigError(
            f"sweep.freq_ghz: range [{freqs[0] / 1e9:g}, {freqs[-1] / 1e9:g}] GHz "
            f"outside model band [{lo / 1e9:g}, {hi / 1e9:g}] GHz"
        )
    if shape is not None:
        spectral.check_aperture_fits(shape, recip.n_scan)  # from the shape's parameters, before enumerating it

    out = Path(args.out or ".")
    header = _header(_config_hash(cfg))
    # each pair's coupling CSV, then its gamma CSV: the order of the wrote lines
    kinds = ("coupling", "gamma") if args.gamma else ("coupling",)
    csvs = {(kind, pair): out / f"{kind}_{pair}.csv" for pair in spectral.POL_PAIRS for kind in kinds}
    outputs = dict.fromkeys(csvs.values(), header)
    snp_path = out / f"finite_array.s{ports}p"
    if args.touchstone:
        outputs[snp_path] = ""  # the Touchstone header is the first item of its record stream
    deltas = [0.0]
    with _writing(outputs) as files:
        windows = _transform_chunks(args, model, recip, freqs, shape, dict(zip(csvs, files)), deltas)
        if args.touchstone:
            records = spectral.smatrix_records(windows, lattice.enumerate_aperture(shape))
            files[-1].writelines(snp.touchstone_records(records, "ri"))
        else:
            for _ in windows:
                pass
    for csv in csvs.values():
        _say(f"wrote {csv}")
    if args.oracle:
        _say(f"oracle check: max |direct - fft| = {max(deltas):.3e}")
    if args.touchstone:
        _say(f"wrote {snp_path} ({ports} ports, {freqs.size} frequencies)")
    return 0


def _transform_chunks(args, model, recip, freqs, shape, files: dict, deltas: list) -> Iterator[dict]:
    """The command's only frequency loop: each :data:`_FREQ_CHUNK` frequencies of every pol pair, sampled once.

    Per chunk and pair, the grid's chunk is appended to the gamma CSV with
    ``--gamma``, inverted in one FFT call and appended to the coupling CSV
    (``files`` maps ``(kind, pair)`` to it; the column names go out with
    the first chunk). Yields each chunk's windows that the aperture's S
    reads with ``--touchstone``, else None, so nothing outlives a chunk;
    appends each ``--oracle`` delta to ``deltas``.
    """

    def pair_chunk(lo: int, pair: str):
        g = synthmodel.sample_grid(model, recip, freqs[lo : lo + _FREQ_CHUNK], pair)
        if args.gamma:
            files["gamma", pair].writelines(islice(spectral.csv_chunks(g), int(lo > 0), None))
        cset = spectral.gamma_to_coupling(g)
        if args.oracle:
            deltas.append(float(np.abs(spectral.gamma_to_coupling(g, "direct").coeffs - cset.coeffs).max()))
        del g  # let go of the grid before the coupling rows are formatted
        files["coupling", pair].writelines(islice(spectral.csv_chunks(cset), int(lo > 0), None))
        return spectral.coupling_window(cset, shape) if args.touchstone else None

    for lo in range(0, freqs.size, _FREQ_CHUNK):
        yield {pair: pair_chunk(lo, pair) for pair in spectral.POL_PAIRS}


def cmd_metrics(args) -> int:
    cfg = _load_config(args.config)
    recip, shape = _require_lattice(cfg, need_aperture=True)
    basis, n_elem = recip.basis, lattice.aperture_size(shape)
    taper, pol = _excitation_block(cfg)
    scans = _sweep_scans(cfg, pol)
    mblock = _block(cfg, "metrics")
    efficiency = _config_float(mblock.get("efficiency", 1.0), "metrics.efficiency")
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError(f"metrics.efficiency: expected a value in (0, 1], got {efficiency}")

    if mblock.get("snp") is not None and not isinstance(mblock["snp"], str):
        raise ConfigError(f"metrics.snp: expected a path, got {mblock['snp']!r}")
    snp_path = args.snp or mblock.get("snp")
    if snp_path is None:
        guess = Path(args.out or ".") / f"finite_array.s{2 * n_elem}p"
        if not guess.is_file():
            raise ConfigError("metrics.snp (or --snp): path to a Touchstone file is required")
        snp_path = guess
    if not Path(snp_path).is_file():
        raise ConfigError(f"metrics.snp: file not found: {snp_path}")
    ports = snp.touchstone_port_count(snp_path)
    if ports not in (n_elem, 2 * n_elem):
        raise snp.NetworkError(
            f"port count {ports} matches neither {n_elem} (single-pol) nor "
            f"{2 * n_elem} (dual-pol) for the {n_elem}-element aperture"
        )
    size = Path(snp_path).stat().st_size
    _check_budget(_metrics_price(size, ports, n_elem, len(scans)), str(snp_path), "its size and name, and sweep.scans")
    dual = ports == 2 * n_elem
    aperture = lattice.enumerate_aperture(shape)  # no larger than the file's port count
    pm = snp.PortMap.lexicographic(aperture) if dual else snp.PortMap.lexicographic(aperture, pols=(pol,))
    read = metrics.probed_ports(pm, basis, aperture, pol)
    weights_at = excitation.weight_function(basis, aperture, pm, taper, pol)
    freqs, rows = _read_rows(Path(snp_path), ports, read)

    out = Path(args.out or ".")
    header = _header(_config_hash(cfg))
    # one sweep feeds every table; each table is formatted and written one scan's rows at a time
    sweeps = metrics.sweep_rows(freqs, rows, read, weights_at, scans)
    tables = {"vswr.csv": metrics.vswr_table_blocks(sweeps), "gain.csv": metrics.gain_table_blocks(sweeps, efficiency)}
    if dual:
        tables["coupling.csv"] = metrics.coupling_table_blocks(sweeps)
    for name, blocks in tables.items():
        _write_lines(out / name, header, _joined(blocks))
        _say(f"wrote {out / name}")
    if not dual:
        _say("single-polarization network: orthogonal coupling table skipped")
    if args.gnuplot:
        _write_lines(out / "plots.gp", _gnuplot_stub(list(tables)), ())
        _say(f"wrote {out / 'plots.gp'}")
    return 0


def _read_rows(path: Path, ports: int, read: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (F,) and the S rows ``read`` (F, len(read), P) of a Touchstone file, read record by record."""
    with open(path) as fh:
        records = snp.read_records(fh, ports, read)
        next(records)
        return snp.stack_records(records, (len(read), ports))


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
        return _config_float(cut, where)
    except ConfigError:
        raise ConfigError(f"{where}: expected E|H|D or a finite azimuth in degrees, got {cut!r}") from None


def cmd_pattern(args) -> int:
    cfg = _load_config(args.config)
    recip, shape = _require_lattice(cfg, need_aperture=True)
    basis, n_elem = recip.basis, lattice.aperture_size(shape)
    taper, pol = _excitation_block(cfg)
    block = _block(cfg, "pattern")
    cuts = block.get("cuts", ["E", "H", "D"])
    if not isinstance(cuts, list) or not cuts:
        raise ConfigError("pattern.cuts: expected a non-empty list")
    cut_phis = [_cut_phi(cut, pol, f"pattern.cuts[{i}]") for i, cut in enumerate(cuts)]
    step = _config_float(block.get("theta_step_deg", 1.0), "pattern.theta_step_deg")
    if not step > 0:
        raise ConfigError("pattern.theta_step_deg: must be positive")
    # a stop just past 90 and a clip of the last sample keep float drift from leaving [-90, 90]
    stop = 90.0 + step * 1e-6
    # np.arange's sample count, clamped so that a step near 0 gives a count over any budget, not inf
    thetas = math.ceil(min((stop + 90.0) / step, 1e300))
    price = _pattern_price(n_elem, len(cuts), thetas)
    _check_budget(price[0], "pattern.theta_step_deg", "pattern.theta_step_deg and the aperture")
    theta = np.minimum(np.arange(-90.0, stop, step), 90.0)
    freqs = _parse_frequencies(
        block.get("freq_ghz", [4.0, 9.0, 18.0]), "pattern.freq_ghz", price,
        "pattern.cuts, pattern.theta_step_deg and the aperture",
    )
    _, theta0, phi0 = _scan_label(str(block.get("scan", "broadside")), pol, "pattern.scan")

    aperture = lattice.enumerate_aperture(shape)
    pos = lattice.aperture_positions(basis, aperture)
    area = lattice.unit_cell_area(basis)
    port_map = snp.PortMap.lexicographic(aperture, pols=(pol,))  # port i is aperture element i
    weights = excitation.weight_function(basis, aperture, port_map, taper, pol)(
        excitation.scan_wavevectors(theta0, phi0, freqs)
    )
    pats = (
        metrics.array_factor_pattern(pos, w, float(f), theta, phi, area, label=str(cut))
        for f, w in zip(freqs, weights)
        for cut, phi in zip(cuts, cut_phis)
    )
    # the first pattern before --out is made: a zero excitation is zero at every frequency, so it fails here;
    # the exhausted list iterator lets go of that pattern once it is written
    pats = chain(iter([next(pats)]), pats)
    path = Path(args.out or ".") / "pattern.csv"
    # one pattern (one cut at one frequency) is computed, formatted and written at a time
    _write_lines(path, _header(_config_hash(cfg)), _joined(metrics.pattern_table_blocks(pats)))
    _say(f"wrote {path}")
    return 0


def cmd_convert(args) -> int:
    if not Path(args.input).is_file():
        raise ConfigError(f"convert input: file not found: {args.input}")
    ports = snp.port_count_from_name(args.input)
    out = Path(args.output)
    # an output that would be read back with another port count; a bad input name fails in the read
    if ports is not None and snp.port_count_from_name(out) != ports:
        raise ConfigError(f"{out}: expected an output name ending in .s{ports}p for the {ports}-port input")
    ports = snp.touchstone_port_count(args.input)
    _check_budget(_FIXED_BYTES + ports**2 * _TEXT_ENTRY_BYTES, args.input, "its name")
    with open(args.input) as fh:
        # the header first, so that a bad format or an unreadable header fails before any file is made
        records = snp.touchstone_records(snp.read_records(fh, ports), args.format)
        count = _write_lines(out, next(records), records)
    _say(f"wrote {out} ({ports} ports, {count} frequencies, {args.format.upper()})")
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
    tr.add_argument("--oracle", action="store_true", help="also report the direct double sum's deviation from the FFT path")
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


# each command and the module it runs, whose own imports bring in the rest
_COMMANDS = {
    "lattice": (cmd_lattice, lattice),
    "transform": (cmd_transform, synthmodel),
    "metrics": (cmd_metrics, metrics),
    "pattern": (cmd_pattern, metrics),
    "convert": (cmd_convert, snp),
}


def _keep_heap_slack() -> None:
    """Keep 16 MB of freed heap for reuse instead of returning it to the system at each free.

    The Touchstone record loops free and allocate a few MB of buffers per
    record. By default glibc gives that memory back after every record, and
    the next record faults it in and zeroes it again: that made ``convert``
    of the 128-port benchmark file 12% slower on a 2-vCPU VM. Without glibc
    this does nothing.
    """
    try:
        ctypes.CDLL(None).mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, module = _COMMANDS[args.command]
    vars(module)  # runs the module's body now, so that it is compiled before the heap is padded
    _keep_heap_slack()
    try:
        return command(args)
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
