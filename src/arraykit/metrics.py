"""Array metrics from scattering matrices and excitation plans.

Active reflection and VSWR, orthogonal-port coupling, normalized gain,
ideal embedded-element gain, array-factor patterns, and batched scan
sweeps with stable CSV schemas. All dB outputs substitute a -200 dB floor
for -inf; reported VSWR is capped at 100 while raw gamma is always carried
alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from .constants import C0, DB_FLOOR, VSWR_CAP
# build_plan is not called here; it stays importable as metrics.build_plan, the name perfbench traces
from .excitation import ExcitationPlan, TaperSpec, build_plan, plane_phi, scan_wavevectors, weight_function  # noqa: F401
from .lattice import LatticeBasis, centermost_index
from .snp import NetworkData, PortMap


# theta samples per block of array_factor's phase matrix: 256 x 19 elements is 78 KB where the whole 3601-sample
# cut took 2.2 MB, and more blocks only add per-call overhead
_AF_THETA_BLOCK = 256


class MetricError(ValueError):
    """Undefined metric request (zero excitation at the probed port, etc.)."""


@dataclass(frozen=True)
class ScanSweep:
    """Active reflection and cross-pol coupling vs frequency for one labeled scan.

    ``coupling`` is the linear ratio |b| at the probed element's opposite-pol
    port over |a| at its probed port; None for a single-polarization network.
    """

    label: str
    theta_deg: float
    frequencies: np.ndarray
    gamma: np.ndarray
    coupling: np.ndarray | None


@dataclass(frozen=True)
class Pattern:
    """Realized-gain cut: theta samples on one azimuth plane at one frequency."""

    frequency: float
    label: str
    phi_deg: float
    theta_deg: np.ndarray
    field: np.ndarray
    gain_dbi: np.ndarray


def _floored_log10(x, scale: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, DB_FLOOR)
    np.log10(x, out=out, where=x > 0)
    return np.maximum(scale * out, DB_FLOOR)


def db10(x) -> np.ndarray:
    """10*log10 with the -200 dB floor."""
    return _floored_log10(x, 10.0)


def db20(x) -> np.ndarray:
    """20*log10 with the -200 dB floor."""
    return _floored_log10(x, 20.0)


def _check_ports(ports: list[int], port_count: int) -> None:
    if not all(0 <= p < port_count for p in ports):
        raise MetricError(f"probed ports {ports} outside the {port_count}-port network")


def _rows(net: NetworkData, ports: list[int]) -> np.ndarray:
    """The S rows (F, len(ports), P) of ``ports``; a port outside the network raises :class:`MetricError`."""
    _check_ports(ports, net.port_count)
    return net.s[:, ports, :]


def _probe(rows: np.ndarray, weights, ports: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Incident wave a (F,) at ``ports[0]`` and outgoing waves ``b_p = sum_q S_pq a_q`` (F, len(ports)).

    ``rows`` holds the S rows of ``ports``, shape (F, len(ports), P).
    ``weights`` is one plan (P,) or per-frequency weights (F, P). A weight
    count other than P and a zero incident wave at ``ports[0]`` raise
    :class:`MetricError`.
    """
    f, _, port_count = rows.shape
    w = np.asarray(weights, dtype=complex)
    if w.shape[-1] != port_count:
        raise MetricError(f"plan covers {w.shape[-1]} ports, network has {port_count}")
    w = np.broadcast_to(w, (f, port_count))
    a = w[:, ports[0]].copy()  # a view would keep the whole (F, P) weights alive while the next scan's are made
    if not np.all(a):
        raise MetricError(f"zero excitation at the probed port {ports[0]}: the metric is undefined")
    return a, np.einsum("fpq,fq->fp", rows, w)


def active_reflection(net: NetworkData, plan: ExcitationPlan, port: int) -> np.ndarray:
    """Active reflection at a port: (sum_q S_pq a_q) / a_p, per frequency."""
    a, b = _probe(_rows(net, [port]), plan.weights, [port])
    return b[:, 0] / a


def vswr(gamma) -> np.ndarray:
    """(1 + |g|) / (1 - |g|); |g| >= 1 reports the 100.0 sentinel."""
    mag = np.abs(np.asarray(gamma))
    with np.errstate(divide="ignore"):
        out = np.where(mag < 1.0, (1.0 + mag) / np.where(mag < 1.0, 1.0 - mag, 1.0), VSWR_CAP)
    return out if out.shape else float(out)


def orthogonal_coupling(
    net: NetworkData,
    port_map: PortMap,
    plan: ExcitationPlan,
    element: tuple[int, int],
    excited_pol: str,
) -> np.ndarray:
    """Coupling (dB) into the orthogonal-pol port of one element.

    20*log10 of the outgoing wave at the element's opposite-polarization
    port over the plan's incident wave at the co-located excited-pol port.
    """
    excited_pol = str(excited_pol).lower()
    other = "y" if excited_pol == "x" else "x"
    ports = [port_map.port_of(element, excited_pol), port_map.port_of(element, other)]
    a, b = _probe(_rows(net, ports), plan.weights, ports)
    return db20(np.abs(b[:, 1]) / np.abs(a))


def normalized_gain(gamma, efficiency: float = 1.0) -> np.ndarray:
    """(1 - |gamma|^2) * efficiency: fraction of incident power radiated."""
    if not 0.0 < efficiency <= 1.0:
        raise MetricError(f"efficiency must be in (0, 1], got {efficiency}")
    mag2 = np.abs(np.asarray(gamma)) ** 2
    out = np.clip(1.0 - mag2, 0.0, None) * efficiency
    return out if out.shape else float(out)


def ideal_embedded_gain(area: float, frequency: float, theta_deg) -> np.ndarray:
    """Ideal embedded element: 10*log10((4*pi*A/lambda^2) * cos(theta)) dBi.

    theta is measured from broadside, 0 to 90 degrees; the broadside peak is
    the cell-area gain 4*pi*A/lambda^2 and theta = 90 floors at -200 dBi.
    """
    if not (area > 0 and frequency > 0):
        raise MetricError("area and frequency must be positive")
    th = np.asarray(theta_deg, dtype=float)
    if np.any(th < 0) or np.any(th > 90):
        raise MetricError("theta_deg must lie in [0, 90]")
    lam = C0 / frequency
    cos_t = np.cos(np.radians(th))
    cos_t = np.where(cos_t < 1e-12, 0.0, cos_t)  # exact floor at theta = 90
    return db10((4 * math.pi * area / lam**2) * cos_t)


def array_factor(positions: np.ndarray, weights: np.ndarray, frequency: float, theta_deg, phi_deg: float) -> np.ndarray:
    """Complex AF(theta) = sum_n w_n * exp(+1j * k_t(theta, phi) . R_n).

    The theta x element phase matrix is formed :data:`_AF_THETA_BLOCK`
    samples at a time, so it is never held whole. Each block's product
    equals those rows of the one-shot ``exp(1j * (k_t @ R.T)) @ w`` bit for
    bit: a block of one row would take another BLAS path, so a single
    leftover sample joins the block before it.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    w = np.asarray(weights, dtype=complex)
    if pos.shape[0] != w.size or pos.shape[0] == 0:
        raise MetricError("positions and weights must be the same nonzero length")
    k0 = 2 * math.pi * frequency / C0
    th = np.radians(np.asarray(theta_deg, dtype=float))
    phi = math.radians(phi_deg)
    kt = (k0 * np.sin(th)[..., None] * np.array([math.cos(phi), math.sin(phi)])).reshape(-1, 2)
    rows = len(kt)
    out = np.empty(rows, dtype=complex)
    for lo in range(0, max(rows - 1, 1), _AF_THETA_BLOCK):
        hi = lo + _AF_THETA_BLOCK if lo + _AF_THETA_BLOCK < rows - 1 else rows
        out[lo:hi] = np.exp(1j * (kt[lo:hi] @ pos.T)) @ w
    return out.reshape(th.shape)[()]


def array_factor_pattern(
    positions: np.ndarray,
    weights: np.ndarray,
    frequency: float,
    theta_deg,
    phi_deg: float,
    cell_area: float,
    label: str = "",
) -> Pattern:
    """Realized-gain cut: ideal embedded element times the normalized |AF|^2.

    ``gain_dbi = ideal_embedded_gain + 20*log10(|AF| / sum|w_n|)``; a single
    unit-weight element reproduces the ideal element exactly. The theta grid
    spans [-90, 90] on the phi cut; negative theta means the (|theta|,
    phi + 180) direction and the element term uses |theta| (cos is even).
    """
    th = np.asarray(theta_deg, dtype=float)
    if np.any(np.abs(th) > 90):
        raise MetricError("pattern theta grid must lie within [-90, 90]")
    af = array_factor(positions, weights, frequency, th, phi_deg)
    norm = np.abs(np.asarray(weights)).sum()
    if norm == 0:
        raise MetricError("zero excitation: every weight is 0, so the pattern is undefined")
    element_dbi = ideal_embedded_gain(cell_area, frequency, np.abs(th))
    gain = np.maximum(element_dbi + db20(np.abs(af) / norm), DB_FLOOR)
    return Pattern(float(frequency), label or f"phi{phi_deg:g}", float(phi_deg), th, af, gain)


# --- scan sweeps ---------------------------------------------------------------


def _angle(text: str, label) -> float:
    try:
        return float(text)
    except ValueError:
        raise MetricError(f"cannot parse scan label {label!r}") from None


def parse_scan_label(label: str, pol: str) -> tuple[str, float, float]:
    """Turn a scan label into (label, theta_deg, phi_deg).

    "broadside" means theta 0; "E60"/"H30"/"D45" combine a principal plane
    letter with the scan angle in degrees; "T<theta>P<phi>" gives both
    angles explicitly. Raises :class:`MetricError` for a label that does not
    parse, a theta outside [0, 90] or a non-finite phi.
    """
    text = str(label).strip()
    low = text.lower()
    if low == "broadside":
        return "broadside", 0.0, 0.0
    if low.startswith("t") and "p" in low:
        t_part, p_part = low[1:].split("p", 1)
        theta, phi = _angle(t_part, label), _angle(p_part, label)
    elif low[:1] in ("e", "h", "d") and low[1:]:
        theta, phi = _angle(low[1:], label), plane_phi(low[0], pol)
    else:
        raise MetricError(f"cannot parse scan label {label!r}")
    if not (0.0 <= theta <= 90.0 and math.isfinite(phi)):
        raise MetricError(f"scan label {label!r}: theta must lie in [0, 90] degrees and phi must be finite")
    return text, theta, phi


def probed_ports(port_map: PortMap, basis: LatticeBasis, aperture, pol: str = "x") -> list[int]:
    """The ports a sweep reads: the centermost element's ``pol`` port, then its other-pol port if mapped.

    The centermost element is :func:`lattice.centermost_index` of ``aperture``.
    """
    element = centermost_index(basis, list(aperture))
    pol = str(pol).lower()
    other = "y" if pol == "x" else "x"
    return [port_map.port_of(element, p) for p in (pol, other) if p in port_map.pols]


def sweep_rows(frequencies: np.ndarray, rows: np.ndarray, read: list[int], weights_at, scans) -> list[ScanSweep]:
    """Evaluate every metric over frequency for each scan, from the S rows a sweep reads.

    ``read`` is :func:`probed_ports` of the sweep's map, aperture and pol,
    ``rows`` their S rows, shape (F, len(read), P), so no other row of S is
    needed, and ``weights_at`` the :func:`excitation.weight_function` of the
    same map, aperture and pol. ``scans`` holds ``(label, theta_deg,
    phi_deg)`` triples as :func:`parse_scan_label` returns them. Each scan's
    (F, P) weights come from one batched call (the linear scan phase is
    frequency dependent), and the outgoing waves are formed once, at the
    probed port and, for a dual-pol map, at its opposite-pol port. An empty
    scan list yields an empty result.
    """
    _check_ports(read, rows.shape[2])
    out: list[ScanSweep] = []
    for label, theta, phi in scans:
        a, b = _probe(rows, weights_at(scan_wavevectors(theta, phi, frequencies)), read)
        coupling = np.abs(b[:, 1]) / np.abs(a) if len(read) == 2 else None
        out.append(ScanSweep(label, theta, frequencies, b[:, 0] / a, coupling))
    return out


def sweep(
    net: NetworkData,
    port_map: PortMap,
    basis: LatticeBasis,
    aperture,
    taper: TaperSpec,
    scans,
    pol: str = "x",
) -> list[ScanSweep]:
    """:func:`sweep_rows` over the rows of ``net`` that :func:`probed_ports` names, for scan labels."""
    aperture = list(aperture)
    read = probed_ports(port_map, basis, aperture, pol)
    rows = _rows(net, read)
    weights_at = weight_function(basis, aperture, port_map, taper, pol)
    return sweep_rows(net.frequencies, rows, read, weights_at, [parse_scan_label(label, pol) for label in scans])


# --- CSV tables -----------------------------------------------------------------


def _table_blocks(header: str, template: str, blocks) -> Iterator[list[str]]:
    """``[header]``, then one list of ``template % row`` lines per block, each formatted when it is reached.

    Each block is a tuple of equal-length columns (lists, or iterators such
    as ``itertools.repeat`` for a constant column) holding one frequency, one
    sweep or one pattern, so no more than a block's values are ever turned
    into Python objects at once, and a consumer that writes each list before
    taking the next holds one block's rows.
    """
    def lines(columns) -> list[str]:
        return list(map(template.__mod__, zip(*columns)))

    # map, unlike a generator, keeps no reference to the block or the list it last produced
    return chain([[header]], map(lines, blocks))


def _sweep_blocks(value_header: str, value_template: str, sweeps: list[ScanSweep], values) -> Iterator[list[str]]:
    """Rows "freq_hz,plane,theta_deg,<value_header>" as :func:`_table_blocks` gives them, one block per sweep.

    ``values(sw)`` gives the value columns, computed when the sweep's block is reached.
    """
    blocks = map(
        lambda sw: (sw.frequencies.tolist(), repeat(sw.label), repeat(sw.theta_deg), *(v.tolist() for v in values(sw))),
        sweeps,
    )
    return _table_blocks("freq_hz,plane,theta_deg," + value_header, "%.9e,%s,%g," + value_template, blocks)


def vswr_table_blocks(sweeps: list[ScanSweep]) -> Iterator[list[str]]:
    """Rows "freq_hz,plane,theta_deg,vswr,gamma_re,gamma_im": the header's list, then one list per sweep."""
    return _sweep_blocks(
        "vswr,gamma_re,gamma_im", "%.9e,%.12e,%.12e", sweeps,
        lambda sw: (np.minimum(vswr(sw.gamma), VSWR_CAP), sw.gamma.real, sw.gamma.imag),
    )


def gain_table_blocks(sweeps: list[ScanSweep], efficiency: float = 1.0) -> Iterator[list[str]]:
    """Rows "freq_hz,plane,theta_deg,gain_db" of ``db10(normalized_gain)``: the header's list, then one list per sweep."""
    return _sweep_blocks("gain_db", "%.9e", sweeps, lambda sw: (db10(normalized_gain(sw.gamma, efficiency)),))


def coupling_table_blocks(sweeps: list[ScanSweep]) -> Iterator[list[str]]:
    """Rows "freq_hz,plane,theta_deg,coupling_db" of ``db20(coupling)``: the header's list, then one list per sweep.

    Sweeps of a single-polarization network raise :class:`MetricError` here, before any row is formatted.
    """
    if any(sw.coupling is None for sw in sweeps):
        raise MetricError("coupling table needs sweeps of a dual-polarization network")
    return _sweep_blocks("coupling_db", "%.9e", sweeps, lambda sw: (db20(sw.coupling),))


def vswr_table_rows(sweeps: list[ScanSweep]) -> list[str]:
    """Rows "freq_hz,plane,theta_deg,vswr,gamma_re,gamma_im" (header included): the lines of :func:`vswr_table_blocks`."""
    return list(chain.from_iterable(vswr_table_blocks(sweeps)))


def gain_table_rows(sweeps: list[ScanSweep], efficiency: float = 1.0) -> list[str]:
    """Rows "freq_hz,plane,theta_deg,gain_db" (header included): the lines of :func:`gain_table_blocks`."""
    return list(chain.from_iterable(gain_table_blocks(sweeps, efficiency)))


def coupling_table_rows(sweeps: list[ScanSweep]) -> list[str]:
    """Rows "freq_hz,plane,theta_deg,coupling_db" (header included): the lines of :func:`coupling_table_blocks`."""
    return list(chain.from_iterable(coupling_table_blocks(sweeps)))


def pattern_table_blocks(patterns: Iterable[Pattern]) -> Iterator[list[str]]:
    """The rows of :func:`pattern_table_rows`: the header's list, then one list per pattern.

    ``patterns`` may be a generator: each pattern is taken and its rows are
    formatted only when the previous list has been consumed, so a writer
    holds one pattern and its rows at a time.
    """
    blocks = map(lambda p: (repeat(p.frequency), repeat(p.label), p.theta_deg.tolist(), p.gain_dbi.tolist()), patterns)
    return _table_blocks("freq_hz,plane,theta_deg,gain_dbi", "%.9e,%s,%g,%.9e", blocks)


def pattern_table_rows(patterns: list[Pattern]) -> list[str]:
    """Rows "freq_hz,plane,theta_deg,gain_dbi" (header included): the lines of :func:`pattern_table_blocks`."""
    return list(chain.from_iterable(pattern_table_blocks(patterns)))
