"""Scan-space sampling and the infinite-to-finite array transform.

The active reflection coefficient of an infinite array, sampled on the
reciprocal grid ``k_t = m1*k1 + m2*k2`` with ``m in [-N/2, N/2-1]``, is a
2-D discrete Fourier transform of the coupling coefficients between one
element and the element at the origin:

    gamma(m1, m2)   = sum_n  c(n1, n2) * exp(-2j*pi*(n1*m1 + n2*m2)/N)
    c(n1, n2)       = (1/N^2) * sum_m gamma(m1, m2) * exp(+2j*pi*(n1*m1 + n2*m2)/N)

Finite-array scattering matrices follow from translation invariance: the
entry between elements p and q depends only on the index difference p - q.

Arrays here use centered indexing: array index ``i`` along a grid axis maps
to the signed integer ``i - N/2``. A finite aperture reads only the index
differences within its spread, so the centred window of a coupling set
(:func:`coupling_window`) gives the same scattering matrix as the whole set.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeBasis, ReciprocalBasis, aperture_spread
from .snp import NetworkData, PortMap, _e12_text, network_from_records

# each pol pair is "ab": a the observed polarization (matrix row), b the excited one (matrix column)
POL_PAIRS = ("xx", "xy", "yx", "yy")
# grid-CSV rows formatted per chunk: at 8192, transform's peak on a rings-2, 171-frequency run rose 39.4 -> 40.8 MB
_CSV_CHUNK_ROWS = 1024


class GridShapeError(ValueError):
    """Grid dimensions inconsistent with the declared scan density."""


class ApertureGridError(ValueError):
    """Aperture spans more than the coupling grid period (would alias)."""


def _check_pair(pol_pair: str) -> str:
    pair = str(pol_pair).lower()
    if pair not in POL_PAIRS:
        raise ValueError(f"pol_pair must be one of {POL_PAIRS}, got {pol_pair!r}")
    return pair


def _freeze_grid(obj, name: str) -> None:
    """Convert ``obj.frequencies`` and the (F, N, N) array ``obj.<name>``, check them and make both read-only."""
    f = np.asarray(obj.frequencies, dtype=float)
    a = np.asarray(getattr(obj, name), dtype=complex)
    if f.ndim != 1 or a.ndim != 3 or a.shape[0] != f.size or a.shape[1] != a.shape[2]:
        raise GridShapeError(f"{name} must be (F, N, N) with F={f.size}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GridShapeError(f"{name} contains non-finite values")
    f.setflags(write=False)
    a.setflags(write=False)
    object.__setattr__(obj, "frequencies", f)
    object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class ActiveGammaGrid:
    """Per-frequency N x N active reflection samples for one pol pair."""

    frequencies: np.ndarray
    grid: np.ndarray  # (F, N, N) complex, axis index i <-> m = i - N/2

    def __post_init__(self):
        _freeze_grid(self, "grid")

    @property
    def n(self) -> int:
        return self.grid.shape[1]


@dataclass(frozen=True)
class CouplingSet:
    """Per-frequency element-to-center coupling coefficients for one pol pair."""

    frequencies: np.ndarray
    coeffs: np.ndarray  # (F, N, N) complex, axis index i <-> n = i - N/2

    def __post_init__(self):
        _freeze_grid(self, "coeffs")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def coefficient(self, f_index: int, n1: int, n2: int) -> complex:
        h = self.n // 2
        if not (-h <= n1 < h and -h <= n2 < h):
            raise IndexError(f"coupling index ({n1}, {n2}) outside [-{h}, {h - 1}]")
        return complex(self.coeffs[f_index, n1 + h, n2 + h])


def _idft2_centered_direct(grid: np.ndarray) -> np.ndarray:
    """Centered inverse 2-D DFT as the literal double sum (oracle path).

    Independent of the FFT route: with ``E[n, m] = exp(2j*pi*n*m/N)`` over the
    centered indices, (1/N^2) * sum_m grid[m1, m2] * exp(2j*pi*(n1*m1 + n2*m2)/N)
    is the matrix product ``E @ grid @ E.T / N^2`` per frequency, evaluated in
    BLAS rather than by a fast transform. For verification, not production.
    """
    n = grid.shape[-1]
    m = np.arange(-(n // 2), n // 2)
    e = np.exp(2j * np.pi * np.outer(m, m) / n)
    out = e @ grid @ e.T
    out /= n * n
    return out


def gamma_to_coupling(g: ActiveGammaGrid, method: str = "fft") -> CouplingSet:
    """Invert sampled active reflection into coupling coefficients.

    ``method`` selects the fast transform ("fft"), which writes every
    output, or the literal double sum in matrix form ("direct"), the oracle
    that checks it; the two agree to better than 1e-10. The FFT is one
    call over every frequency of ``g``, so its temporaries are three
    arrays of the grid's size; a frequency's transform does not depend on
    the others in the call, so inverting a grid a slice of frequencies at a
    time gives the same values bit for bit.
    """
    if g.n % 2 != 0:
        raise GridShapeError(f"grid size must be even, got {g.n}")
    if method == "fft":
        axes = (-2, -1)
        coeffs = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(g.grid, axes=axes), axes=axes), axes=axes)
    elif method == "direct":
        coeffs = _idft2_centered_direct(g.grid)
    else:
        raise ValueError(f"method must be 'fft' or 'direct', got {method!r}")
    return CouplingSet(g.frequencies, coeffs)


def coupling_to_gamma(c: CouplingSet, k_t, basis: LatticeBasis) -> np.ndarray:
    """Active reflection at arbitrary transverse wavevectors, per frequency.

    Evaluates ``sum_n c(n1, n2) * exp(-1j * k_t . (n1*a1 + n2*a2))``; valid
    anywhere in k-space, not only on grid points. ``k_t`` has shape
    ``(..., 2)``; the result has shape ``(F, ...)``.
    """
    k_t = np.asarray(k_t, dtype=float)
    n = c.n
    idx = np.arange(-(n // 2), n // 2, dtype=float)
    # element positions for every (n1, n2), flattened to (N^2, 2)
    pos = idx[:, None, None] * basis.a1[None, None, :] + idx[None, :, None] * basis.a2[None, None, :]
    phase = np.exp(-1j * (pos.reshape(n * n, 2) @ k_t.reshape(-1, 2).T))  # (N^2, K)
    out = c.coeffs.reshape(c.frequencies.size, n * n) @ phase
    return out.reshape(c.frequencies.shape + k_t.shape[:-1])


def reconstruct_gamma_grid(c: CouplingSet, recip: ReciprocalBasis) -> ActiveGammaGrid:
    """Evaluate the forward sum on every scan-grid point of ``recip`` (round-trip check)."""
    if recip.n_scan != c.n:
        raise GridShapeError(f"scan grid N={recip.n_scan} does not match coupling N={c.n}")
    return ActiveGammaGrid(c.frequencies, coupling_to_gamma(c, recip.points, recip.basis))


def parseval_mismatch(g: ActiveGammaGrid, c: CouplingSet) -> float:
    """|mean |gamma|^2 - sum |c|^2| maximized over frequency (identity check)."""
    lhs = (np.abs(g.grid) ** 2).sum(axis=(1, 2)) / (g.n * g.n)
    rhs = (np.abs(c.coeffs) ** 2).sum(axis=(1, 2))
    return float(np.abs(lhs - rhs).max())


def check_aperture_fits(aperture, n_scan: int) -> None:
    """Reject apertures whose index differences escape [-N/2, N/2-1].

    Differences span +-spread per axis, so the spread must stay <= N/2 - 1;
    the inverse transform is periodic with period N and wrapped coupling
    values would be aliases, not physics. ``aperture`` is an aperture shape
    or a list of element indices (see :func:`lattice.aperture_spread`).
    """
    half = n_scan // 2
    spread1, spread2 = aperture_spread(aperture)
    if spread1 > half - 1 or spread2 > half - 1:
        raise ApertureGridError(
            f"aperture index spread ({spread1}, {spread2}) exceeds the coupling grid: "
            f"index differences must stay within [-{half}, {half - 1}] because the "
            f"inverse transform is periodic with period {n_scan}; wrapped values would alias"
        )


def coupling_window(cset: CouplingSet, aperture) -> CouplingSet:
    """The centred part of ``cset`` that the S of ``aperture`` reads, as its own :class:`CouplingSet`.

    Its half-width is the larger index spread of ``aperture`` plus 1, so its
    width N' is the smallest that :func:`check_aperture_fits` accepts and
    every index difference of the aperture stays inside it. A centred set of any even N
    maps index ``i`` to ``n = i - N/2``, so :func:`smatrix_records` gathers
    bit-identical S from the window and from the whole set. The window is a
    copy (or ``cset`` itself when it spans the whole grid), so it keeps no
    reference to the rest of the set; an aperture that does not fit raises
    :class:`ApertureGridError`.
    """
    check_aperture_fits(aperture, cset.n)
    half = max(aperture_spread(aperture)) + 1
    lo, hi = cset.n // 2 - half, cset.n // 2 + half
    if lo == 0:
        return cset
    return CouplingSet(cset.frequencies, cset.coeffs[:, lo:hi, lo:hi].copy())


def smatrix_records(sets: Mapping[str, CouplingSet], aperture, port_map: PortMap | None = None) -> Iterator:
    """The finite-array scattering matrix from coupling coefficients, as a record stream.

    ``sets`` maps pol-pair keys to CouplingSets: either all four of
    xx/xy/yx/yy for a dual-polarized network, or a single co-pol key for a
    single-polarized one. The S entry between port (p, pol A) and port
    (q, pol B) is the (A, B) coupling coefficient at index difference
    ``(n1p - n1q, n2p - n2q)``. A given ``port_map`` must hold exactly one
    port per aperture element and pol; the default is
    :meth:`PortMap.lexicographic`. The stream is that of
    :func:`snp.read_records`: the header ``(port_count, 50.0)``, then one
    ``(frequency, S)`` record per frequency, each S gathered when it is
    reached. Everything is checked before the stream is returned.

    Raises :class:`ApertureGridError` when any index difference falls
    outside [-N/2, N/2-1]: the inverse transform is periodic with period N
    and wrapped values would be aliases, not physics.
    """
    sets = {_check_pair(k): v for k, v in sets.items()}
    pols = tuple(sorted({k[0] for k in sets}))
    if not sets or set(sets) != {a + b for a in pols for b in pols}:
        raise ValueError(
            f"sets must hold one co-pol pair or all four pol pairs, got {sorted(sets)}"
        )
    ref = next(iter(sets.values()))
    for v in sets.values():
        if v.n != ref.n or not np.array_equal(v.frequencies, ref.frequencies):
            raise GridShapeError("all coupling sets must share N and frequencies")
    n = ref.n

    aperture = [(int(i), int(j)) for i, j in aperture]
    if port_map is None:
        port_map = PortMap.lexicographic(aperture, pols=pols)
    ports = {(e, p) for e in aperture for p in pols}
    if len(port_map) != len(aperture) * len(pols) or set(port_map.entries) != ports:
        raise ValueError(
            f"port map ({len(port_map)} ports, pols {port_map.pols}) does not cover exactly "
            f"the {len(aperture)} aperture elements x pols {pols}"
        )

    check_aperture_fits(aperture, n)
    k = len(pols)
    n1, n2 = np.array([e for e, _ in port_map.entries]).T
    code = np.array([pols.index(p) for _, p in port_map.entries])
    half = n // 2
    # one gather per frequency, S[p, q] = stack[k*code_p + code_q, n1_p - n1_q + N/2, n2_p - n2_q + N/2]
    flat = np.ravel_multi_index(
        (k * code[:, None] + code, n1[:, None] - n1 + half, n2[:, None] - n2 + half), (k * k, n, n)
    )
    coeffs = [sets[a + b].coeffs for a in pols for b in pols]

    def records() -> Iterator:
        yield len(port_map), 50.0
        for f, f_hz in enumerate(ref.frequencies.tolist()):
            yield f_hz, np.take(np.stack([c[f] for c in coeffs]), flat)

    return records()


def assemble_finite_smatrix(
    sets: Mapping[str, CouplingSet],
    aperture,
    port_map: PortMap | None = None,
) -> NetworkData:
    """The records of :func:`smatrix_records`, stacked into one :class:`NetworkData`."""
    return network_from_records(smatrix_records(sets, aperture, port_map))


# --- CSV serialization --------------------------------------------------------


def _padded(texts: list[bytes]) -> np.ndarray:
    """The ``texts`` as the rows of one uint8 array, each NUL padded to the longest."""
    a = np.array(texts, dtype="S")
    return a.view(np.uint8).reshape(a.size, a.itemsize)


def _csv_values(data: ActiveGammaGrid | CouplingSet) -> tuple[str, np.ndarray]:
    """The column names line of ``data``'s CSV and its (F, N, N) values."""
    if isinstance(data, ActiveGammaGrid):
        return "freq_hz,m1,m2,re,im\n", data.grid
    return "freq_hz,n1,n2,re,im\n", data.coeffs


def csv_chunks(data: ActiveGammaGrid | CouplingSet) -> Iterator[str]:
    """The CSV text of a gamma grid ("freq_hz,m1,m2,re,im") or a coupling set ("freq_hz,n1,n2,re,im").

    Yields the header line, then the rows "freq_hz,i1 - N/2,i2 - N/2,re,im"
    ``_CSV_CHUNK_ROWS`` at a time, each text newline-ended, so besides
    ``data`` only one chunk's text is held.
    """
    header, values = _csv_values(data)
    n = data.n
    # the "n1,n2," text of each point of one frequency, row-major
    axis = _padded([b"%d," % i for i in range(-(n // 2), n - n // 2)])
    points = np.concatenate((np.repeat(axis, n, axis=0), np.tile(axis, (n, 1))), axis=1)
    comma, newline = np.frombuffer(b",", np.uint8), np.frombuffer(b"\n", np.uint8)
    lead = _padded([b"%.9e," % f_hz for f_hz in data.frequencies.tolist()])
    re, im = values.real.reshape(-1), values.imag.reshape(-1)
    yield header
    for lo in range(0, values.size, _CSV_CHUNK_ROWS):
        hi = min(lo + _CSV_CHUNK_ROWS, values.size)
        at, point = np.divmod(np.arange(lo, hi), n * n)
        yield _e12_text("", [lead[at], points[point], re[lo:hi], comma, im[lo:hi], newline], hi - lo)


def gamma_csv_rows(g: ActiveGammaGrid) -> list[str]:
    """Rows "freq_hz,m1,m2,re,im" (header included): the lines of :func:`csv_chunks`."""
    return [row for chunk in csv_chunks(g) for row in chunk.splitlines()]


def coupling_csv_rows(c: CouplingSet) -> list[str]:
    """Rows "freq_hz,n1,n2,re,im" (header included): the lines of :func:`csv_chunks`."""
    return [row for chunk in csv_chunks(c) for row in chunk.splitlines()]
