"""Complex port excitations: amplitude taper, scan phase, polarization selection.

Weights follow ``w(R) = taper(R - centroid) * exp(-1j * k_t . R)``: the
Gaussian taper is centered on the aperture centroid to suppress edge
effects, while the linear scan phase uses raw element positions so that
phase is exactly linear in position. The kernel sign matches the forward
infinite-array sum, steering the beam toward +k_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .lattice import LatticeBasis, aperture_positions, centroid
from .snp import PortMap

# principal scan-plane azimuths, degrees, keyed by (plane, excited pol)
_PLANE_PHI = {
    ("e", "x"): 0.0,
    ("h", "x"): 90.0,
    ("e", "y"): 90.0,
    ("h", "y"): 0.0,
    ("d", "x"): 45.0,
    ("d", "y"): 45.0,
}


class ExcitationError(ValueError):
    """Invalid taper, scan, or plan parameters."""


@dataclass(frozen=True)
class TaperSpec:
    """Amplitude taper: "uniform" or "gaussian" with beam waist w0 (m)."""

    kind: str
    w0: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ExcitationError(f"taper kind must be uniform|gaussian, got {self.kind!r}")
        if self.kind == "gaussian" and not (self.w0 is not None and self.w0 > 0):
            raise ExcitationError("gaussian taper requires w0 > 0")


@dataclass(frozen=True)
class ScanSpec:
    """Scan direction (theta from normal, phi azimuth, degrees) at one frequency."""

    theta_deg: float
    phi_deg: float
    frequency: float

    def __post_init__(self):
        if not 0.0 <= self.theta_deg <= 90.0:
            raise ExcitationError(f"theta_deg must be in [0, 90], got {self.theta_deg}")
        if not self.frequency > 0:
            raise ExcitationError(f"frequency must be positive, got {self.frequency}")


@dataclass(frozen=True)
class ExcitationPlan:
    """Complex weight per port index."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        if w.ndim != 1 or w.size == 0 or not np.any(w != 0):
            raise ExcitationError("plan needs at least one nonzero weight")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def gaussian_taper(positions: np.ndarray, w0: float) -> np.ndarray:
    """exp(-|R|^2 / w0^2) per position; positions are relative to the taper center."""
    if not w0 > 0:
        raise ExcitationError(f"w0 must be positive, got {w0}")
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    return np.exp(-(pos**2).sum(axis=1) / w0**2)


def taper_amplitudes(taper: TaperSpec, positions: np.ndarray) -> np.ndarray:
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if taper.kind == "uniform":
        return np.ones(pos.shape[0])
    return gaussian_taper(pos, taper.w0)


def scan_wavevector(scan: ScanSpec) -> np.ndarray:
    """Transverse wavevector k_t = (2*pi*f/c) * sin(theta) * (cos(phi), sin(phi))."""
    return scan_wavevectors(scan.theta_deg, scan.phi_deg, scan.frequency)


def scan_wavevectors(theta_deg: float, phi_deg: float, frequencies) -> np.ndarray:
    """:func:`scan_wavevector` for one direction at each frequency: (..., 2) rad/m."""
    k0 = 2 * math.pi * np.asarray(frequencies, dtype=float) / C0
    st = math.sin(math.radians(theta_deg))
    phi = math.radians(phi_deg)
    return (k0 * st)[..., None] * np.array([math.cos(phi), math.sin(phi)])


def plane_phi(plane: str, pol: str) -> float:
    """Azimuth (degrees) of a named scan plane for the excited polarization.

    E-plane is phi = 0 for x-polarized excitation and phi = 90 for y
    (H-plane swapped accordingly); the D-plane diagonal is phi = 45 for both.
    """
    key = (str(plane).lower(), str(pol).lower())
    if key not in _PLANE_PHI:
        raise ExcitationError(f"unknown plane/pol combination {plane!r}/{pol!r}")
    return _PLANE_PHI[key]


def weight_function(basis: LatticeBasis, aperture, port_map: PortMap, taper: TaperSpec, pol: str):
    """Port weights of the aperture as a function of the scan wavevector.

    Positions, taper amplitudes and pol-port indices are computed once. The
    returned function maps k_t of shape (2,) or (F, 2) to weights of shape
    (P,) or (F, P): ``taper(R_i - centroid) * exp(-1j * k_t . R_i)`` on the
    pol ports and 0 on the ports of the opposite polarization. Every
    aperture element must have a port of the selected polarization.
    """
    pol = str(pol).lower()
    indices = list(aperture)
    if not indices:
        raise ExcitationError("empty aperture")
    pos = aperture_positions(basis, indices)
    amps = taper_amplitudes(taper, pos - centroid(pos))
    ports = [port_map.port_of(idx, pol) for idx in indices]
    n_ports = len(port_map)

    def weights(k_t) -> np.ndarray:
        k = np.asarray(k_t, dtype=float)
        out = np.zeros(k.shape[:-1] + (n_ports,), dtype=complex)
        # one matrix-vector product per k_t: rounds like the single-scan case
        out[..., ports] = amps * np.exp(-1j * (pos @ k[..., None])[..., 0])
        return out

    return weights


def build_plan(
    basis: LatticeBasis,
    aperture,
    port_map: PortMap,
    taper: TaperSpec,
    scan: ScanSpec,
    pol: str,
) -> ExcitationPlan:
    """The :func:`weight_function` weights at one scan direction and frequency."""
    return ExcitationPlan(weight_function(basis, aperture, port_map, taper, pol)(scan_wavevector(scan)))
