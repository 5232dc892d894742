"""Output checks that share no code with the program under test.

Each check reads a command's output files with this module's own numpy
readers and compares them with an independent computation: the centered
inverse DFT, the closed-form grating-lobe onset, ``S @ a`` mat-vecs and the
array-factor sum. A check returns a list of failure messages; an empty list
means the output is correct. No check assumes the network is passive.
"""

from __future__ import annotations

import math
import re
import warnings
from pathlib import Path

import numpy as np

from workloads import C0, geometry, port_count, port_of

PAIRS = ("xx", "xy", "yx", "yy")
DB_FLOOR = -200.0
VSWR_CAP = 100.0
_UNIT = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


# --- readers ------------------------------------------------------------------


def _floats(text: str) -> np.ndarray:
    """Whitespace-separated floats; any token that is not a number raises ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, dtype=float, sep=" ")
        except DeprecationWarning:
            raise ValueError("non-numeric token") from None


def _data_lines(path: Path) -> list[str]:
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]


def read_numeric_csv(path: Path, header: str) -> np.ndarray:
    """All-numeric CSV (``#`` comment lines, one header) as a 2-D float array."""
    text = Path(path).read_text()
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    head, _, rows = body.partition("\n")
    if head != header:
        raise ValueError(f"{Path(path).name}: header {head!r}, expected {header!r}")
    ncol = header.count(",") + 1
    vals = _floats(rows.replace(",", " "))
    if vals.size % ncol or rows.count("\n") + 1 != vals.size // ncol:
        raise ValueError(f"{Path(path).name}: ragged or non-numeric rows")
    return vals.reshape(-1, ncol)


def read_table(path: Path, header: str) -> dict[str, list[tuple[float, ...]]]:
    """CSV whose second column is a label: rows grouped by label, numbers as floats."""
    lines = _data_lines(path)
    if not lines or lines[0] != header:
        raise ValueError(f"{Path(path).name}: header {lines[:1]}, expected {header!r}")
    groups: dict[str, list[tuple[float, ...]]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        groups.setdefault(cells[1], []).append((float(cells[0]),) + tuple(float(c) for c in cells[2:]))
    return groups


def iter_touchstone(path: Path, ports: int):
    """Yield (frequency Hz, S (P, P)) records of a v1 file with three or more ports.

    Reads in blocks so a 224 MB file never sits in memory whole.
    """
    per_record = 1 + 2 * ports * ports
    option = None
    pending = np.empty(0)
    with open(path) as fh:
        while True:
            lines = fh.readlines(1 << 24)
            if not lines:
                break
            text = "".join(lines)
            if "!" in text or "#" in text:
                kept = []
                for line in lines:
                    line = line.split("!", 1)[0]
                    if line.lstrip().startswith("#"):
                        if option is not None:
                            raise ValueError("second option line")
                        option = line.split()[1:]
                    else:
                        kept.append(line)
                text = " ".join(kept)
            if option is None:
                raise ValueError("data before the option line")
            vals = np.concatenate([pending, _floats(text)])
            whole = vals.size // per_record * per_record
            pending = vals[whole:]
            for rec in vals[:whole].reshape(-1, per_record):
                yield rec[0] * _UNIT[option[0].lower()], _complex(option[2].lower(), rec[1:].reshape(ports, ports, 2))
    if pending.size:
        raise ValueError(f"{pending.size} values left over after the last whole record")


def _complex(fmt: str, ab: np.ndarray) -> np.ndarray:
    a, b = ab[..., 0], ab[..., 1]
    if fmt == "ri":
        return a + 1j * b
    mag = a if fmt == "ma" else 10.0 ** (a / 20.0)
    return mag * np.exp(1j * np.radians(b))


def read_touchstone(path: Path, ports: int) -> tuple[np.ndarray, np.ndarray]:
    recs = list(iter_touchstone(path, ports))
    return np.array([f for f, _ in recs]), np.array([s for _, s in recs])


# --- shared expectations ------------------------------------------------------


def sweep_freqs(cfg: dict) -> np.ndarray:
    fq = cfg["sweep"]["freq_ghz"]
    return np.linspace(fq["start"] * 1e9, fq["stop"] * 1e9, fq["points"])


def scan_labels(cfg: dict) -> list[str]:
    sweep = cfg["sweep"]
    if "scans" in sweep:
        return list(sweep["scans"])
    return [f"T{float(t):g}P{float(p):g}" for t in sweep["theta_deg"] for p in sweep["phi_deg"]]


def scan_angles(label: str, pol: str) -> tuple[float, float]:
    """(theta, phi) in degrees; E is phi 0 for x-pol, H is phi 90, D is 45."""
    low = label.lower()
    if low == "broadside":
        return 0.0, 0.0
    if low.startswith("t"):
        t, p = low[1:].split("p", 1)
        return float(t), float(p)
    phi = {"e": 0.0, "h": 90.0, "d": 45.0}[low[0]]
    if pol == "y" and low[0] != "d":
        phi = 90.0 - phi
    return float(low[1:]), phi


def taper(cfg: dict, pos: np.ndarray) -> np.ndarray:
    tp = cfg["excitation"]["taper"]
    if tp["kind"] == "uniform":
        return np.ones(len(pos))
    rel = pos - pos.mean(axis=0)
    return np.exp(-(rel**2).sum(axis=1) / (tp["w0_mm"] * 1e-3) ** 2)


def coupling_grids(out: Path, freqs: np.ndarray, n: int) -> tuple[np.ndarray, list[str]]:
    """(4, F, N, N) coupling arrays from the coupling CSVs, with failures."""
    grids = np.full((4, freqs.size, n, n), np.nan, dtype=complex)
    fails = []
    for k, pair in enumerate(PAIRS):
        try:
            rows = read_numeric_csv(out / f"coupling_{pair}.csv", "freq_hz,n1,n2,re,im")
            grids[k] = _grid_from_rows(rows, freqs, n)
        except (OSError, ValueError) as exc:
            fails.append(f"coupling_{pair}.csv: {exc}")
    return grids, fails


def _grid_from_rows(rows: np.ndarray, freqs: np.ndarray, n: int) -> np.ndarray:
    if len(rows) != freqs.size * n * n:
        raise ValueError(f"{len(rows)} rows, expected {freqs.size * n * n}")
    fi = np.searchsorted(freqs, rows[:, 0] * (1 - 1e-12))
    if fi.max() >= freqs.size or np.abs(freqs[fi] - rows[:, 0]).max() > 1e-9 * freqs.max():
        raise ValueError("frequency column does not match the sweep")
    i1 = rows[:, 1].astype(int) + n // 2
    i2 = rows[:, 2].astype(int) + n // 2
    if i1.min() < 0 or i2.min() < 0 or max(i1.max(), i2.max()) >= n:
        raise ValueError("index column outside [-N/2, N/2-1]")
    flat = (fi * n + i1) * n + i2
    if np.unique(flat).size != flat.size:
        raise ValueError("duplicate (freq, index) rows")
    grid = np.empty(freqs.size * n * n, dtype=complex)
    grid[flat] = rows[:, 3] + 1j * rows[:, 4]
    return grid.reshape(freqs.size, n, n)


class DenseFromCoupling:
    """Finite-array S per frequency from coupling grids: S_pq = c_ab(n_p - n_q)."""

    def __init__(self, grids: np.ndarray, cfg: dict):
        _, idx, _ = geometry(cfg)
        ports = sorted(port_of(idx).items(), key=lambda kv: kv[1])
        n1 = np.array([e[0] for (e, _), _ in ports])
        n2 = np.array([e[1] for (e, _), _ in ports])
        pol = np.array([p == "y" for (_, p), _ in ports], dtype=int)
        h = grids.shape[-1] // 2
        self.grids = grids
        self.pair = 2 * pol[:, None] + pol[None, :]
        self.d1 = n1[:, None] - n1[None, :] + h
        self.d2 = n2[:, None] - n2[None, :] + h

    def __len__(self) -> int:
        return self.grids.shape[1]

    def __getitem__(self, f: int) -> np.ndarray:
        return self.grids[:, f][self.pair, self.d1, self.d2]


# --- per-command checks -------------------------------------------------------


def check_lattice(out: Path, cfg: dict) -> list[str]:
    """Onsets equal c |G_min| / (2 pi (1 + sin theta)) within print rounding + 1e-6 rel."""
    try:
        text = (out / "lattice_report.txt").read_text()
    except OSError as exc:
        return [f"lattice_report.txt: {exc}"]
    found = {int(t): float(f) for t, f in re.findall(r"theta_deg=(\d+)\s+onset=([0-9.]+) GHz", text)}
    want = (0, 15, 30, 45, 60, 75, 90)
    if sorted(found) != list(want):
        return [f"lattice_report.txt: onset rows for {sorted(found)}, expected {list(want)}"]
    rows, _, _ = geometry(cfg)
    recip = 2 * math.pi * np.linalg.inv(rows.T)
    ij = np.array([(i, j) for i in range(-4, 5) for j in range(-4, 5) if (i, j) != (0, 0)], dtype=float)
    g_min = np.sqrt(((ij @ recip) ** 2).sum(axis=1)).min()
    fails = []
    for theta in want:
        exact = C0 * g_min / (2 * math.pi * (1 + math.sin(math.radians(theta)))) / 1e9
        if abs(found[theta] - exact) > 5e-4 + 1e-6 * exact:
            fails.append(f"lattice onset at {theta} deg: {found[theta]} GHz, closed form {exact:.6f} GHz")
    return fails


def check_transform(out: Path, cfg: dict, gamma: bool) -> tuple[list[str], np.ndarray]:
    """Coupling CSVs (vs the inverse DFT of the gamma CSVs) and the Touchstone file."""
    freqs = sweep_freqs(cfg)
    n = cfg["lattice"]["n_scan"]
    grids, fails = coupling_grids(out, freqs, n)
    if gamma:
        for k, pair in enumerate(PAIRS):
            try:
                rows = read_numeric_csv(out / f"gamma_{pair}.csv", "freq_hz,m1,m2,re,im")
                g = _grid_from_rows(rows, freqs, n)
            except (OSError, ValueError) as exc:
                fails.append(f"gamma_{pair}.csv: {exc}")
                continue
            ref = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(g, axes=(1, 2))), axes=(1, 2))
            err = np.abs(ref - grids[k]).max()
            if not err <= 1e-12:
                fails.append(f"coupling_{pair}.csv differs from the inverse DFT of gamma_{pair}.csv by {err:.3e}")
    if fails:
        return fails, grids
    ports = port_count(cfg)
    dense = DenseFromCoupling(grids, cfg)
    count = 0
    try:
        for f_hz, s in iter_touchstone(out / f"finite_array.s{ports}p", ports):
            if count >= len(dense) or abs(f_hz - freqs[count]) > 1e-9 * f_hz:
                return [f"finite_array.s{ports}p: unexpected frequency record {f_hz}"], grids
            ref = dense[count]
            err = np.abs(s - ref).max()
            if not err <= 1e-9 * max(1.0, np.abs(ref).max()):
                return [f"finite_array.s{ports}p differs from the coupling CSVs by {err:.3e} at {f_hz:g} Hz"], grids
            count += 1
    except (OSError, ValueError) as exc:
        return [f"finite_array.s{ports}p: {exc}"], grids
    if count != freqs.size:
        fails.append(f"finite_array.s{ports}p: {count} frequency records, expected {freqs.size}")
    return fails, grids


def check_metrics(out: Path, cfg: dict, freqs: np.ndarray, dense) -> list[str]:
    """vswr/gain/coupling tables against b = S a computed here, per scan and frequency.

    ``dense[f]`` gives the (P, P) matrix of frequency index f. The probed port
    may be any element tied for closest to the centroid.
    """
    _, idx, pos = geometry(cfg)
    pol = cfg["excitation"]["pol"]
    ports = port_of(idx)
    order = sorted(idx)
    e_pos = pos[[idx.index(e) for e in order]]
    d2 = ((e_pos - e_pos.mean(axis=0)) ** 2).sum(axis=1)
    cands = np.nonzero(d2 <= d2.min() * (1 + 1e-9) + 1e-30)[0]
    other = "y" if pol == "x" else "x"
    p_co = np.array([ports[(order[c], pol)] for c in cands])
    p_ob = np.array([ports[(order[c], other)] for c in cands])
    labels = scan_labels(cfg)
    angles = np.radians([scan_angles(lab, pol) for lab in labels])
    amp = taper(cfg, e_pos)
    pol_ports = np.array([ports[(e, pol)] for e in order])
    efficiency = cfg.get("metrics", {}).get("efficiency", 1.0)

    gam = np.empty((freqs.size, len(labels), cands.size), dtype=complex)
    cpl = np.empty_like(gam, dtype=float)
    for fi, f in enumerate(freqs):
        kt = (2 * math.pi * f / C0) * np.sin(angles[:, 0])[:, None] * np.column_stack([np.cos(angles[:, 1]), np.sin(angles[:, 1])])
        w = np.zeros((len(ports), len(labels)), dtype=complex)
        w[pol_ports] = amp[:, None] * np.exp(-1j * (e_pos @ kt.T))
        b = dense[fi] @ w
        gam[fi] = (b[p_co] / w[p_co]).T
        cpl[fi] = (np.abs(b[p_ob]) / np.abs(w[p_co])).T

    fails = []
    tables = {}
    for name, header in (
        ("vswr", "freq_hz,plane,theta_deg,vswr,gamma_re,gamma_im"),
        ("gain", "freq_hz,plane,theta_deg,gain_db"),
        ("coupling", "freq_hz,plane,theta_deg,coupling_db"),
    ):
        try:
            tables[name] = read_table(out / f"{name}.csv", header)
        except (OSError, ValueError) as exc:
            fails.append(f"{name}.csv: {exc}")
    if fails:
        return fails
    for label in dict.fromkeys(labels):
        # a repeated label gets its rows repeated, in sweep order
        si, reps = labels.index(label), labels.count(label)
        rows = {k: np.array(t.get(label, [])) for k, t in tables.items()}
        if any(len(r) != reps * freqs.size for r in rows.values()):
            fails.append(f"scan {label}: row counts {[len(r) for r in rows.values()]}, expected {reps * freqs.size}")
            continue
        theta = math.degrees(angles[si, 0])
        f_all = np.tile(freqs, reps)
        for k, r in rows.items():
            if np.abs(r[:, 0] - f_all).max() > 1e-9 * freqs.max() or np.abs(r[:, 1] - theta).max() > 1e-4:
                fails.append(f"{k}.csv scan {label}: frequency or theta column off")
        g = rows["vswr"][:, 3] + 1j * rows["vswr"][:, 4]
        err = np.abs(g[:, None] - np.tile(gam[:, si, :], (reps, 1))).max(axis=0)
        best = int(np.argmin(err))
        ref = np.tile(gam[:, si, best], reps)
        if not np.all(np.abs(g - ref) <= 1e-9 + 1e-8 * np.abs(ref)):
            fails.append(f"vswr.csv scan {label}: active gamma off by {err[best]:.3e}")
        mag = np.abs(g)
        vs = np.where(mag < 1, (1 + mag) / np.where(mag < 1, 1 - mag, 1), VSWR_CAP)
        if not np.allclose(rows["vswr"][:, 2], np.minimum(vs, VSWR_CAP), rtol=1e-8, atol=0):
            fails.append(f"vswr.csv scan {label}: vswr column inconsistent with gamma")
        # compared as power: near |gamma| = 1 the dB value is too steep to compare
        radiated = np.clip(1 - mag**2, 0, None) * efficiency
        if not np.all(np.abs(10 ** (rows["gain"][:, 2] / 10) - radiated) <= 1e-11 + 1e-7 * radiated):
            fails.append(f"gain.csv scan {label}: gain inconsistent with gamma")
        got = np.where(rows["coupling"][:, 2] > DB_FLOOR, 10 ** (rows["coupling"][:, 2] / 20), 0.0)
        want = np.tile(cpl[:, si, best], reps)
        if not np.all(np.abs(got - want) <= 1e-9 + 1e-8 * want):
            fails.append(f"coupling.csv scan {label}: orthogonal coupling off by {np.abs(got - want).max():.3e}")
    extra = set(tables["vswr"]) - set(labels)
    if extra:
        fails.append(f"vswr.csv: unexpected scans {sorted(extra)}")
    return fails


def check_pattern(out: Path, cfg: dict) -> list[str]:
    """pattern.csv against the array-factor sum times the ideal element, in amplitude."""
    block = cfg["pattern"]
    rows_ab, _, pos = geometry(cfg)
    pol = cfg["excitation"]["pol"]
    area = abs(np.linalg.det(rows_ab))
    step = block["theta_step_deg"]
    theta = np.arange(-90.0, 90.0 + step / 2, step)
    w = taper(cfg, pos)
    try:
        table = read_table(out / "pattern.csv", "freq_hz,plane,theta_deg,gain_dbi")
    except (OSError, ValueError) as exc:
        return [f"pattern.csv: {exc}"]
    fails = []
    for cut in block["cuts"]:
        rows = np.array(table.get(cut, []))
        phi = math.radians(scan_angles(f"{cut}0", pol)[1])
        if len(rows) != len(block["freq_ghz"]) * theta.size:
            fails.append(f"pattern.csv cut {cut}: {len(rows)} rows, expected {len(block['freq_ghz']) * theta.size}")
            continue
        for k, f_ghz in enumerate(block["freq_ghz"]):
            part = rows[k * theta.size:(k + 1) * theta.size]
            f = f_ghz * 1e9
            k0 = 2 * math.pi * f / C0
            kt = k0 * np.sin(np.radians(theta))[:, None] * np.array([math.cos(phi), math.sin(phi)])
            af = np.abs(np.exp(1j * (kt @ pos.T)) @ w) / np.abs(w).sum()
            cos_t = np.cos(np.radians(theta))
            element = 4 * math.pi * area * (f / C0) ** 2 * np.where(cos_t < 1e-12, 0.0, cos_t)
            want = np.sqrt(element) * af
            got = np.where(part[:, 2] > DB_FLOOR, 10 ** (part[:, 2] / 20), 0.0)
            if np.abs(part[:, 0] - f).max() > 1e-9 * f or np.abs(part[:, 1] - theta).max() > 1e-6 * 90:
                fails.append(f"pattern.csv cut {cut} at {f_ghz} GHz: frequency or theta column off")
            elif not np.all(np.abs(got - want) <= 1e-9 * want.max() + 1e-8 * want):
                fails.append(f"pattern.csv cut {cut} at {f_ghz} GHz: gain off by {np.abs(got - want).max():.3e}")
    return fails


def check_convert(path: Path, freqs: np.ndarray, s: np.ndarray) -> list[str]:
    """The converted file holds the input network to 1e-9 relative, entry by entry."""
    count = 0
    try:
        for f_hz, got in iter_touchstone(path, s.shape[1]):
            if count >= freqs.size or abs(f_hz - freqs[count]) > 1e-9 * f_hz:
                return [f"{path.name}: unexpected frequency record {f_hz}"]
            err = np.abs(got - s[count])
            if not np.all(err <= 1e-9 * np.abs(s[count]) + 1e-300):
                return [f"{path.name}: entry off by {(err / np.abs(s[count])).max():.3e} relative at {f_hz:g} Hz"]
            count += 1
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    if count != freqs.size:
        return [f"{path.name}: {count} frequency records, expected {freqs.size}"]
    return []
