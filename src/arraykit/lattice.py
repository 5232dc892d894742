"""Planar lattice geometry for phased arrays.

Direct and reciprocal bases for square and triangular grids, element
placement, aperture truncation, and grating-lobe onset prediction.

Vectors are numpy arrays of shape (2,): meters for positions, rad/m for
wavevectors. Element indices are plain ``(n1, n2)`` integer tuples; an
element sits at ``n1*a1 + n2*a2``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .constants import C0, DEFAULT_N_SCAN

SQUARE = "square"
TRIANGULAR = "triangular"
LATTICE_KINDS = (SQUARE, TRIANGULAR)

_REL_TOL = 1e-12
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


class LatticeError(ValueError):
    """Invalid lattice parameters or configuration."""


def _frozen_vec(x: float, y: float) -> np.ndarray:
    v = np.array([x, y], dtype=float)
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class LatticeBasis:
    """Canonical direct lattice basis of one kind; a1, a2 in meters.

    ``lambda_h`` is the free-space wavelength at the highest grating-lobe-free
    frequency; it sets the cell scale for both lattice kinds. The vectors
    a1, a2 follow from ``kind`` and ``lambda_h`` (see :func:`make_basis`),
    so bases compare and hash by ``(kind, lambda_h)``.
    """

    kind: str
    lambda_h: float
    a1: np.ndarray = field(init=False, compare=False)
    a2: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        lambda_h = self.lambda_h
        # the cell area, of order lambda_h**2, must neither underflow to 0 nor overflow
        if not (isinstance(lambda_h, (int, float)) and lambda_h > 0 and _TINY < lambda_h * lambda_h < _HUGE):
            raise LatticeError(f"lambda_h must be positive with a square in the normal float range, got {lambda_h!r}")
        if self.kind == SQUARE:
            h = lambda_h / 2
            a1, a2 = _frozen_vec(h, 0.0), _frozen_vec(0.0, h)
        elif self.kind == TRIANGULAR:
            e = lambda_h / math.sqrt(3)
            s, c = math.sin(math.pi / 12), math.cos(math.pi / 12)
            r = 1 / math.sqrt(2)
            a1, a2 = _frozen_vec(-s * e, c * e), _frozen_vec(r * e, r * e)
        else:
            raise LatticeError(f"unknown lattice kind {self.kind!r}")
        object.__setattr__(self, "lambda_h", float(lambda_h))
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def cell_matrix(self) -> np.ndarray:
        """2x2 matrix with a1 and a2 as columns."""
        return np.column_stack([self.a1, self.a2])


@dataclass(frozen=True)
class ReciprocalBasis:
    """Scan-space basis k1, k2 (rad/m) with sampling density n_scan.

    Satisfies ``[k1; k2] [a1 a2] = (2*pi/n_scan) * I``; the full-period
    reciprocal primitive vectors are ``n_scan*k1`` and ``n_scan*k2``.
    """

    k1: np.ndarray
    k2: np.ndarray
    n_scan: int

    @property
    def row_matrix(self) -> np.ndarray:
        """2x2 matrix with k1 and k2 as rows."""
        return np.vstack([self.k1, self.k2])


def make_basis(kind: str, lambda_h: float) -> LatticeBasis:
    """Build the canonical square or triangular lattice basis.

    Parameters
    ----------
    kind : str
        ``"square"`` or ``"triangular"``.
    lambda_h : float
        Wavelength (m) of the highest grating-lobe-free frequency.

    Returns
    -------
    LatticeBasis
        Square: a1 = (lambda_h/2)*(1, 0), a2 = (lambda_h/2)*(0, 1).
        Triangular: a1 = (lambda_h/sqrt(3))*(-sin(pi/12), cos(pi/12)),
        a2 = (lambda_h/sqrt(3))*(1/sqrt(2), 1/sqrt(2)); the pi/12 rotation
        is part of the canonical definition and is kept verbatim so the
        closed-form reciprocal vectors apply.
    """
    return LatticeBasis(kind, lambda_h)


def unit_cell_area(basis: LatticeBasis) -> float:
    """Unit cell area |a1 x a2| in square meters."""
    return abs(float(basis.a1[0] * basis.a2[1] - basis.a1[1] * basis.a2[0]))


def aperture_positions(basis: LatticeBasis, indices) -> np.ndarray:
    """Stack element positions into an (n, 2) array, preserving order."""
    idx = np.asarray(list(indices), dtype=float)
    if idx.size == 0:
        return np.zeros((0, 2))
    return idx @ np.vstack([basis.a1, basis.a2])


def reciprocal_basis(basis: LatticeBasis, n_scan: int) -> ReciprocalBasis:
    """Reciprocal scan basis ``[k1; k2] = (2*pi/n_scan) * [a1 a2]^-1``.

    ``n_scan`` must be even and >= 2; the scan grid index ranges assume an
    even point count per dimension. Closed forms for the canonical bases:
    square ``(4*pi/(N*lambda_h)) * I``; triangular rows
    ``(4*pi/(N*lambda_h)) * (-1/sqrt(2), 1/sqrt(2))`` and
    ``(4*pi/(N*lambda_h)) * (cos(pi/12), sin(pi/12))``.
    """
    if not isinstance(n_scan, int) or isinstance(n_scan, bool):
        raise LatticeError(f"n_scan must be an integer, got {n_scan!r}")
    if n_scan < 2 or n_scan % 2 != 0:
        raise LatticeError(f"n_scan must be even and >= 2, got {n_scan}")
    cell = basis.cell_matrix
    rows = (2 * math.pi / n_scan) * np.linalg.inv(cell)
    scale = 2 * math.pi / n_scan
    err = np.abs(rows @ cell - scale * np.eye(2)).max()
    if err > _REL_TOL * scale:
        raise LatticeError(f"reciprocal basis identity violated by {err:.3e}")
    k1 = _frozen_vec(rows[0, 0], rows[0, 1])
    k2 = _frozen_vec(rows[1, 0], rows[1, 1])
    return ReciprocalBasis(k1, k2, n_scan)


# --- aperture shapes ---------------------------------------------------------


@dataclass(frozen=True)
class RectangleAperture:
    n1_min: int
    n1_max: int
    n2_min: int
    n2_max: int

    def __post_init__(self):
        if self.n1_max < self.n1_min or self.n2_max < self.n2_min:
            raise LatticeError("rectangle aperture has empty index range")


@dataclass(frozen=True)
class HexagonAperture:
    """``rings`` shells of lattice nearest neighbors around the origin."""

    rings: int

    def __post_init__(self):
        if self.rings < 0:
            raise LatticeError("hexagon rings must be >= 0")


@dataclass(frozen=True)
class TriangleAperture:
    """Rows 0..rows-1 of a corner-anchored triangular patch: n1, n2 >= 0, n1+n2 < rows."""

    rows: int

    def __post_init__(self):
        if self.rows < 1:
            raise LatticeError("triangle rows must be >= 1")


@dataclass(frozen=True)
class ExplicitAperture:
    indices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise LatticeError("explicit aperture is empty")
        if len(set(self.indices)) != len(self.indices):
            raise LatticeError("explicit aperture contains duplicate indices")


ApertureShape = RectangleAperture | HexagonAperture | TriangleAperture | ExplicitAperture


def enumerate_aperture(shape: ApertureShape) -> list[tuple[int, int]]:
    """Element indices of an aperture, sorted lexicographically by (n1, n2).

    A hexagon of r rings holds 1 + 3*r*(r+1) elements; ring membership uses
    the hex distance (|n1| + |n2| + |n1+n2|)/2, whose unit shell is the six
    nearest neighbors of the triangular grid.
    """
    if isinstance(shape, RectangleAperture):
        return [
            (n1, n2)
            for n1 in range(shape.n1_min, shape.n1_max + 1)
            for n2 in range(shape.n2_min, shape.n2_max + 1)
        ]
    if isinstance(shape, HexagonAperture):
        r = shape.rings
        return [
            (n1, n2)
            for n1 in range(-r, r + 1)
            for n2 in range(-r, r + 1)
            if (abs(n1) + abs(n2) + abs(n1 + n2)) // 2 <= r
        ]
    if isinstance(shape, TriangleAperture):
        return [
            (n1, n2)
            for n1 in range(shape.rows)
            for n2 in range(shape.rows - n1)
        ]
    if isinstance(shape, ExplicitAperture):
        return sorted(shape.indices)
    raise LatticeError(f"unknown aperture shape {shape!r}")


def aperture_size(shape: ApertureShape) -> int:
    """Element count of an aperture shape, from its parameters without enumerating it."""
    if isinstance(shape, RectangleAperture):
        return (shape.n1_max - shape.n1_min + 1) * (shape.n2_max - shape.n2_min + 1)
    if isinstance(shape, HexagonAperture):
        return 1 + 3 * shape.rings * (shape.rings + 1)
    if isinstance(shape, TriangleAperture):
        return shape.rows * (shape.rows + 1) // 2
    if isinstance(shape, ExplicitAperture):
        return len(shape.indices)
    raise LatticeError(f"unknown aperture shape {shape!r}")


def aperture_spread(aperture) -> tuple[int, int]:
    """Index spread (max - min) along n1 and along n2.

    ``aperture`` is an :data:`ApertureShape`, whose spread follows from its
    parameters without enumerating it, or a list of element indices.
    """
    if isinstance(aperture, RectangleAperture):
        return aperture.n1_max - aperture.n1_min, aperture.n2_max - aperture.n2_min
    if isinstance(aperture, HexagonAperture):
        return 2 * aperture.rings, 2 * aperture.rings
    if isinstance(aperture, TriangleAperture):
        return aperture.rows - 1, aperture.rows - 1
    if isinstance(aperture, ExplicitAperture):
        aperture = aperture.indices
    n1 = [int(i) for i, _ in aperture]
    n2 = [int(j) for _, j in aperture]
    return max(n1) - min(n1), max(n2) - min(n2)


def centroid(positions: np.ndarray) -> np.ndarray:
    """Mean of an (n, 2) position array."""
    return np.asarray(positions, dtype=float).mean(axis=0)


def centermost_index(basis: LatticeBasis, indices) -> tuple[int, int]:
    """Aperture index closest to the aperture centroid (lexicographic tiebreak)."""
    idx = list(indices)
    pos = aperture_positions(basis, idx)
    d2 = ((pos - centroid(pos)) ** 2).sum(axis=1)
    best = min(range(len(idx)), key=lambda i: (d2[i], idx[i]))
    return idx[best]


# --- grating lobes -----------------------------------------------------------


def grating_lobe_onset(basis: LatticeBasis, scan_theta: float) -> float:
    """Lowest frequency (Hz) at which a grating lobe enters visible space.

    A lobe of a nonzero reciprocal vector G is visible when
    ``|k_t - G| <= k0`` with ``|k_t| = k0*sin(theta)``. Over all scan
    azimuths ``|k_t - G| >= |G| - k0*sin(theta)``, with equality when k_t is
    parallel to G, so the worst case is ``f = c*|G_min| / (2*pi*(1 + sin(theta)))``
    for the shortest G. Both canonical bases, which :class:`LatticeBasis`
    enforces, have ``|G_min| = 4*pi/lambda_h`` (square edge lambda_h/2,
    triangular edge lambda_h/sqrt(3) at 60 degrees), so
    ``f = 2*c / (lambda_h*(1 + sin(theta)))``.
    """
    if not 0.0 <= scan_theta <= 90.0:
        raise LatticeError(f"scan_theta must be in [0, 90] degrees, got {scan_theta}")
    return 2 * C0 / (basis.lambda_h * (1 + math.sin(math.radians(scan_theta))))


# --- JSON configuration ------------------------------------------------------


def config_int(value, where: str, error: type[ValueError] = LatticeError) -> int:
    """An integer config field; a boolean or a non-integral number raises ``error`` naming ``where``."""
    fraction = isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fraction):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise error(f"{where}: expected an integer, got {value!r}")


def config_float(value, where: str, error: type[ValueError] = LatticeError) -> float:
    """A numeric config field; a boolean or a non-number raises ``error`` naming ``where``."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise error(f"{where}: expected a number, got {value!r}")


def shape_from_config(d: dict, where: str = "aperture") -> ApertureShape:
    """Parse an aperture block like {"shape": "hexagon", "rings": 2}."""
    if not isinstance(d, dict):
        raise LatticeError(f"{where}: expected an object")
    kind = d.get("shape")
    try:
        if kind == "rectangle":
            (a, b), (c, e) = d["n1"], d["n2"]
            n1 = [config_int(v, f"{where}.n1") for v in (a, b)]
            n2 = [config_int(v, f"{where}.n2") for v in (c, e)]
            return RectangleAperture(*n1, *n2)
        if kind == "hexagon":
            return HexagonAperture(config_int(d["rings"], f"{where}.rings"))
        if kind == "triangle":
            return TriangleAperture(config_int(d["rows"], f"{where}.rows"))
        if kind == "explicit":
            idx = f"{where}.indices"
            return ExplicitAperture(tuple((config_int(i, idx), config_int(j, idx)) for i, j in d["indices"]))
    except KeyError as exc:
        raise LatticeError(f"{where}.{exc.args[0]}: required for shape {kind!r}") from None
    except (TypeError, ValueError) as exc:
        msg = str(exc)  # config_int errors already name their field
        raise LatticeError(msg if msg.startswith(where) else f"{where}: {msg}") from None
    raise LatticeError(f"{where}.shape: expected rectangle|hexagon|triangle|explicit, got {kind!r}")


def lattice_from_config(d: dict, where: str = "lattice") -> tuple[LatticeBasis, int, ApertureShape | None]:
    """Parse {"kind", "lambda_h_mm", "n_scan", "aperture"} into lattice objects.

    Returns (basis, n_scan, aperture-or-None). Raises :class:`LatticeError`
    naming the offending field path.
    """
    if not isinstance(d, dict):
        raise LatticeError(f"{where}: expected an object")
    kind = d.get("kind")
    if kind not in LATTICE_KINDS:
        raise LatticeError(f"{where}.kind: expected square|triangular, got {kind!r}")
    if "lambda_h_mm" not in d:
        raise LatticeError(f"{where}.lambda_h_mm: required")
    lambda_h = config_float(d["lambda_h_mm"], f"{where}.lambda_h_mm") * 1e-3
    n_scan = config_int(d.get("n_scan", DEFAULT_N_SCAN), f"{where}.n_scan")
    if n_scan < 2 or n_scan % 2:
        raise LatticeError(f"{where}.n_scan: expected an even integer >= 2, got {n_scan!r}")
    basis = make_basis(kind, lambda_h)
    shape = None
    if "aperture" in d and d["aperture"] is not None:
        shape = shape_from_config(d["aperture"], where=f"{where}.aperture")
    return basis, n_scan, shape
