"""Analytic infinite-array active-response models.

Stand-ins for a full-wave unit-cell solver: cheap closed forms defined for
every real transverse wavevector (so invisible-region scan samples are well
defined) and every frequency in a declared band. They feed the spectral
transform in tests, demos, and the CLI.

Pol-pair keys follow the S-matrix row/column convention: "ab" means
observed polarization a, excited polarization b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .lattice import ReciprocalBasis
from .spectral import POL_PAIRS, ActiveGammaGrid

_PAIR_STREAM = {pair: i for i, pair in enumerate(POL_PAIRS)}


class ModelError(ValueError):
    """Invalid model parameters or out-of-band evaluation."""


def _check_band(band) -> tuple[float, float]:
    lo, hi = float(band[0]), float(band[1])
    if not (0 < lo < hi):
        raise ModelError(f"band must satisfy 0 < f_min < f_max, got {band}")
    return lo, hi


@dataclass(frozen=True)
class ConstantModel:
    """Scan- and frequency-independent co-pol response; cross-pol is zero."""

    gamma0: complex
    band: tuple[float, float] = (1e9, 100e9)

    def __post_init__(self):
        object.__setattr__(self, "gamma0", complex(self.gamma0))
        object.__setattr__(self, "band", _check_band(self.band))


@dataclass(frozen=True)
class ScanPolyModel:
    """Quadratic-in-|k_t| scan response with frequency profiles.

    Co-pol: ``alpha(f) + beta(f) * (|k_t| / k_ref)^2``.
    Cross-pol: ``cross_pol_level * (k_x * k_y / k_ref^2) * beta(f)`` -- zero
    on the principal planes and strongest toward the diagonal.

    ``alpha`` and ``beta`` are tuples of (frequency_hz, complex value) knots;
    values interpolate linearly (real and imaginary parts) between knots and
    must cover the band edges.
    """

    alpha: tuple[tuple[float, complex], ...]
    beta: tuple[tuple[float, complex], ...]
    k_ref: float
    band: tuple[float, float]
    cross_pol_level: float = 0.0

    def __post_init__(self):
        band = _check_band(self.band)
        object.__setattr__(self, "band", band)
        if not self.k_ref > 0:
            raise ModelError(f"k_ref must be positive, got {self.k_ref}")
        if self.cross_pol_level < 0:
            raise ModelError("cross_pol_level must be >= 0")
        for name in ("alpha", "beta"):
            knots = tuple((float(f), complex(v)) for f, v in getattr(self, name))
            if not knots:
                raise ModelError(f"{name} needs at least one knot")
            freqs = [f for f, _ in knots]
            if sorted(freqs) != freqs:
                raise ModelError(f"{name} knots must be sorted by frequency")
            if len(knots) > 1 and (freqs[0] > band[0] or freqs[-1] < band[1]):
                raise ModelError(f"{name} knots must cover the band {band}")
            object.__setattr__(self, name, knots)

    def _profile(self, knots, f):
        fs = np.array([k[0] for k in knots])
        vs = np.array([k[1] for k in knots])
        if len(knots) == 1:
            return np.broadcast_to(vs[0], np.shape(f)) if np.ndim(f) else vs[0]
        re = np.interp(f, fs, vs.real)
        im = np.interp(f, fs, vs.imag)
        return re + 1j * im

    def alpha_at(self, f):
        return self._profile(self.alpha, f)

    def beta_at(self, f):
        return self._profile(self.beta, f)


@dataclass(frozen=True)
class SeededRandomModel:
    """Deterministic band-limited smooth random field.

    A small sum of complex plane-wave terms in (k_t, f); ``smoothness``
    bounds the number of oscillations across a reciprocal period. With
    ``x = cross_pol_level``, the co-pol amplitudes sum to ``level / (1 + x)``
    in magnitude and the cross-pol ones to ``level * x / (1 + x)``, so
    ``|gamma_co| + |gamma_cross| <= level`` everywhere. That bounds the
    spectral norm of every 2x2 block Gamma(k_t) by ``level``, and with it the
    norm of any finite-array S assembled from these samples: the response
    is passive. Identical specs produce bit-identical samples.
    """

    seed: int
    smoothness: int
    k_ref: float
    band: tuple[float, float]
    level: float = 0.8
    cross_pol_level: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "band", _check_band(self.band))
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")
        if self.smoothness < 1:
            raise ModelError("smoothness must be >= 1")
        if not self.k_ref > 0:
            raise ModelError(f"k_ref must be positive, got {self.k_ref}")
        if not 0 < self.level <= 1:
            raise ModelError("level must be in (0, 1]")
        if self.cross_pol_level < 0:
            raise ModelError("cross_pol_level must be >= 0")

    def _terms(self, pol_pair: str):
        rng = np.random.default_rng([int(self.seed), _PAIR_STREAM[pol_pair]])
        n = self.smoothness
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        share = self.cross_pol_level if pol_pair in ("xy", "yx") else 1.0
        amps *= self.level * share / ((1.0 + self.cross_pol_level) * np.abs(amps).sum())
        # spatial scales of order smoothness periods across a reciprocal cell
        u = rng.uniform(-1.0, 1.0, size=(n, 2)) * (math.pi * n / self.k_ref)
        v = rng.uniform(0.0, float(n), size=n)
        return amps, u, v


ModelSpec = ConstantModel | ScanPolyModel | SeededRandomModel


def _require_in_band(model: ModelSpec, freqs: np.ndarray):
    lo, hi = model.band
    bad = ~((lo <= freqs) & (freqs <= hi))
    if np.any(bad):
        f = freqs.flat[np.argmax(bad)]
        raise ModelError(f"frequency {f:.6g} Hz outside model band [{lo:.6g}, {hi:.6g}]")


def eval_gamma(model: ModelSpec, pol_pair: str, k_t, f):
    """Model response at transverse wavevector(s) k_t and frequency f.

    ``k_t`` may be a single (2,) vector or any (..., 2) stack; the result
    matches the leading shape. ``f`` is one frequency or a 1-D array of F
    frequencies, which puts a leading F axis on the result.
    """
    pair = str(pol_pair).lower()
    if pair not in POL_PAIRS:
        raise ModelError(f"pol_pair must be one of {POL_PAIRS}, got {pol_pair!r}")
    freqs = np.asarray(f, dtype=float)
    if freqs.ndim > 1:
        raise ModelError(f"frequencies must be a scalar or a 1-D array, got shape {freqs.shape}")
    _require_in_band(model, freqs)
    kt = np.asarray(k_t, dtype=float)
    scalar = kt.ndim == 1
    kt = np.atleast_2d(kt)
    # frequency axis first, broadcast over the k_t stack
    fk = freqs.reshape(freqs.shape + (1,) * (kt.ndim - 1))

    if isinstance(model, ConstantModel):
        val = model.gamma0 if pair in ("xx", "yy") else 0.0
        out = np.full(freqs.shape + kt.shape[:-1], val, dtype=complex)
    elif isinstance(model, ScanPolyModel):
        if pair in ("xx", "yy"):
            q = (kt**2).sum(axis=-1) / model.k_ref**2
            # alpha added in place, so the product is the only F x N^2 array held
            out = np.multiply(model.beta_at(fk), q, dtype=complex)
            out += model.alpha_at(fk)
        else:
            q = kt[..., 0] * kt[..., 1] / model.k_ref**2
            out = model.cross_pol_level * q * model.beta_at(fk)
        out = np.asarray(out, dtype=complex)
    elif isinstance(model, SeededRandomModel):
        amps, u, v = model._terms(pair)
        lo, hi = model.band
        tau = (fk - lo) / (hi - lo)
        phases = np.tensordot(kt, u.T, axes=([-1], [0])) + 2 * math.pi * v * tau[..., None]
        out = (amps * np.exp(1j * phases)).sum(axis=-1)
    else:
        raise ModelError(f"unknown model type {type(model).__name__}")
    return out[..., 0][()] if scalar else out


def sample_grid(model: ModelSpec, recip: ReciprocalBasis, frequencies, pol_pair: str) -> ActiveGammaGrid:
    """Fill every scan-grid point of ``recip`` (visible or not) at each frequency, in one model evaluation."""
    freqs = np.asarray(frequencies, dtype=float)
    return ActiveGammaGrid(freqs, eval_gamma(model, pol_pair, recip.points, freqs))


def demo_model(band: tuple[float, float] = (3e9, 20e9), cross_pol_level: float = 0.5) -> ScanPolyModel:
    """Default demonstration response.

    Broadside VSWR stays under 2:1 from 4 GHz up and rises toward 3:1 at the
    3 GHz band edge; scan mismatch grows quadratically toward 60 degrees and
    cross-pol peaks on the diagonal plane. A demonstration shape only.
    """
    lo, hi = _check_band(band)
    k_ref = 2 * math.pi * hi / C0
    alpha = ((lo, 0.5 + 0j), (min(lo * 4 / 3, hi), 0.32 + 0j), (hi, 0.10 + 0j))
    beta = ((lo, 0.25 + 0j), (hi, 0.25 + 0j))
    return ScanPolyModel(alpha=alpha, beta=beta, k_ref=k_ref, band=(lo, hi), cross_pol_level=cross_pol_level)

