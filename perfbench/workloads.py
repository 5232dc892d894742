"""Workload definitions, their command sequences and seeded input generation.

Every input the program sees is written here, from the seed alone and
outside any timed region: one JSON config per workload and, for
``measured_io``, a measured-like Touchstone file produced by this module's
own formatter (never by ``arraykit.snp``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C0 = 3.0e8  # the program's engineering constant, m/s
FREQ_GHZ = {"start": 3, "stop": 20, "points": 171}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``kind`` names its end-to-end timing (``<kind>_s``)."""

    kind: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    ports: int
    freqs: int

    @property
    def dense_s_bytes(self) -> int:
        """Working set of the dense complex S array, F * P^2 * 16 bytes."""
        return self.freqs * self.ports**2 * 16


# Why each workload exists is recorded in BENCHMARK.json and predictions.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hex5_dense", ports=182, freqs=171),
        Workload("hex2_scan", ports=38, freqs=171),
        Workload("measured_io", ports=128, freqs=171),
    )
}


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(workload.encode())])


def _lattice(kind: str, aperture: dict) -> dict:
    return {"kind": kind, "lambda_h_mm": 15.0, "n_scan": 24, "aperture": aperture}


def make_config(workload: str, seed: int) -> dict:
    """The workload's config; everything that varies comes from ``seed``."""
    rng = rng_for(seed, workload)
    if workload == "hex5_dense":
        return {
            "lattice": _lattice("triangular", {"shape": "hexagon", "rings": 5}),
            "model": {"kind": "seeded_random", "seed": int(rng.integers(1, 2**31))},
            "excitation": {"taper": {"kind": "gaussian", "w0_mm": 17.0}, "pol": "x"},
            "sweep": {"scans": ["broadside", "E60", "H60", "D60"], "freq_ghz": FREQ_GHZ},
        }
    if workload == "hex2_scan":
        # distinct angles on a 0.1 degree grid: 49 different scans
        thetas = np.sort(rng.choice(600, 7, replace=False)) / 10
        phis = np.sort(rng.choice(900, 7, replace=False)) / 10
        return {
            "lattice": _lattice("triangular", {"shape": "hexagon", "rings": 2}),
            "model": {"kind": "demo", "cross_pol_level": round(float(rng.uniform(0.3, 0.7)), 3)},
            "excitation": {"taper": {"kind": "gaussian", "w0_mm": round(float(rng.uniform(12.0, 22.0)), 2)}, "pol": "x"},
            "sweep": {"theta_deg": thetas.tolist(), "phi_deg": phis.tolist(), "freq_ghz": FREQ_GHZ},
            "pattern": {"freq_ghz": [4, 9, 18], "cuts": ["E", "H", "D"], "theta_step_deg": 0.05},
        }
    if workload == "measured_io":
        thetas = np.round(rng.uniform(10.0, 50.0, 4), 1)
        scans = ["broadside"] + [f"{plane}{t:g}" for plane, t in zip("EHD", thetas)] + [f"T{thetas[3]:g}P{round(float(rng.uniform(0, 90)), 1):g}"]
        return {
            "lattice": _lattice("square", {"shape": "rectangle", "n1": [0, 7], "n2": [0, 7]}),
            "excitation": {"taper": {"kind": "uniform"}, "pol": "y"},
            "sweep": {"scans": scans},
            "metrics": {"efficiency": 0.9},
        }
    raise KeyError(workload)


# --- geometry, from the documented lattice and aperture definitions ----------


def basis(kind: str, lambda_h_mm: float) -> np.ndarray:
    """Rows a1, a2 in meters (square: lambda_h/2 grid; triangular: rotated equilateral)."""
    lam = lambda_h_mm * 1e-3
    if kind == "square":
        return np.array([[lam / 2, 0.0], [0.0, lam / 2]])
    e = lam / math.sqrt(3)
    s, c, r = math.sin(math.pi / 12), math.cos(math.pi / 12), 1 / math.sqrt(2)
    return np.array([[-s * e, c * e], [r * e, r * e]])


def aperture(block: dict) -> list[tuple[int, int]]:
    """Element indices sorted by (n1, n2)."""
    if block["shape"] == "hexagon":
        r = block["rings"]
        return [(i, j) for i in range(-r, r + 1) for j in range(-r, r + 1) if (abs(i) + abs(j) + abs(i + j)) // 2 <= r]
    (a, b), (c, d) = block["n1"], block["n2"]
    return [(i, j) for i in range(a, b + 1) for j in range(c, d + 1)]


def geometry(cfg: dict) -> tuple[np.ndarray, list[tuple[int, int]], np.ndarray]:
    """(basis rows, element indices, element positions) of a config."""
    lat = cfg["lattice"]
    rows = basis(lat["kind"], lat["lambda_h_mm"])
    idx = aperture(lat["aperture"])
    return rows, idx, np.asarray(idx, dtype=float) @ rows


def port_count(cfg: dict) -> int:
    """Dual-pol ports of the config's aperture."""
    return 2 * len(aperture(cfg["lattice"]["aperture"]))


def port_of(idx: list[tuple[int, int]]) -> dict:
    """Lexicographic dual-pol port numbering: x ports by (n1, n2), then y ports."""
    order = sorted(idx)
    return {(e, p): k * len(order) + i for k, p in enumerate("xy") for i, e in enumerate(order)}


# --- the measured-like Touchstone file ---------------------------------------


def measured_network(seed: int, cfg: dict, points: int = 171) -> tuple[np.ndarray, np.ndarray]:
    """Seeded reciprocal-ish, passive (||S||_2 <= 0.9) dual-pol array data.

    Mutual coupling decays with element distance and carries the free-space
    phase; a -50 dB noise floor breaks exact reciprocity as a measurement
    would. Returns (frequencies in Hz, S of shape (F, P, P)).
    """
    rng = rng_for(seed, "measured_io")
    _, idx, pos = geometry(cfg)
    ports = port_of(idx)
    p = len(ports)
    elem = np.empty((p, 2))
    pol = np.empty(p, dtype="U1")
    for (e, pl), k in ports.items():
        elem[k] = pos[idx.index(e)]
        pol[k] = pl
    freqs = np.linspace(3e9, 20e9, points)
    k0 = 2 * math.pi * freqs / C0
    dist = np.sqrt(((elem[:, None, :] - elem[None, :, :]) ** 2).sum(axis=-1))
    cross = pol[:, None] != pol[None, :]
    level = np.where(cross, 0.05, 0.35) * rng.uniform(0.8, 1.2, (p, p))
    level = (level + level.T) / 2
    kd = k0[:, None, None] * dist[None]
    s = level * np.exp(-1j * kd) / (1.0 + kd) ** 1.5
    refl = rng.uniform(0.15, 0.35, p) * np.exp(-1j * (rng.uniform(0, 2 * np.pi, p) + 4e-10 * freqs[:, None]))
    s[:, np.arange(p), np.arange(p)] = refl
    s += 10 ** (-50 / 20) * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)) / math.sqrt(2)
    # ||S||_2 <= sqrt(||S||_1 ||S||_inf): a cheap bound that keeps every record passive
    bound = np.sqrt(np.abs(s).sum(axis=1).max(axis=1) * np.abs(s).sum(axis=2).max(axis=1))
    s *= np.minimum(1.0, 0.9 / bound)[:, None, None]
    return freqs, s


def format_ma_touchstone(freqs: np.ndarray, s: np.ndarray, seed: int) -> str:
    """GHz/MA Touchstone v1 text with comments and eight values per line."""
    f, p, _ = s.shape
    vals = np.empty((f, p, p, 2))
    vals[..., 0] = np.abs(s)
    vals[..., 1] = np.degrees(np.angle(s))
    pair = "%.9e %10.5f"
    row = "\n  ".join(" ".join([pair] * min(4, p - k)) for k in range(0, p, 4))
    record = "%.9f " + "\n  ".join([row] * p) + "  ! end of record %d"
    lines = [
        f"! measured-like {p}-port array data, benchmark seed {seed}",
        "! VNA: swept, IF bandwidth 1 kHz, calibrated to the element ports",
        "# GHz S MA R 50",
    ]
    for fi in range(f):
        lines.append(f"! record {fi + 1} of {f}")
        lines.append(record % (freqs[fi] / 1e9, *vals[fi].ravel().tolist(), fi + 1))
    return "\n".join(lines) + "\n"


def commands(name: str, info: dict, out: Path) -> list[Command]:
    """The workload's CLI command sequence, in order."""
    cfg = ("--config", str(info["config"]), "--out", str(out))
    if name == "hex5_dense":
        threads = str(min(2, os.cpu_count() or 1))
        return [Command("transform", ("transform", *cfg, "--touchstone", "--threads", threads)), Command("metrics", ("metrics", *cfg))]
    if name == "hex2_scan":
        return [
            Command("lattice", ("lattice", *cfg)),
            Command("transform", ("transform", *cfg, "--touchstone", "--gamma")),
            Command("metrics", ("metrics", *cfg)),
            Command("pattern", ("pattern", *cfg)),
        ]
    snp = str(info["snp"])
    return [
        Command("metrics", ("metrics", *cfg, "--snp", snp)),
        Command("convert", ("convert", snp, str(converted(info, out)), "--format", "db")),
    ]


def converted(info: dict, out: Path) -> Path:
    return out / f"converted.s{port_count(info['cfg'])}p"


# --- input generation ---------------------------------------------------------


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work``; return what the checks need."""
    return write_inputs(workload, make_config(workload, seed), seed, work)


def write_inputs(workload: str, cfg: dict, seed: int, work: Path, points: int = 171) -> dict:
    """Write ``cfg`` (and, for measured_io, a ``points``-frequency .sNp) under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    info: dict = {"config": work / "config.json", "cfg": cfg}
    if workload == "measured_io":
        info["snp"] = work / f"measured.s{port_count(cfg)}p"
        freqs, s = measured_network(seed, cfg, points)
        info["snp"].write_text(format_ma_touchstone(freqs, s, seed))
    info["config"].write_text(json.dumps(cfg, indent=1, sort_keys=True))
    return info
