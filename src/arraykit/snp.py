"""Touchstone v1 S-parameter files and multiport network algebra.

Covers the v1.0/v1.1 dialect only: an option line ``# <unit> S <fmt> R <z>``,
``!`` comments, RI/MA/DB value formats, the 2-port S11 S21 S12 S22 column
order, and row-major matrices with continuation lines for 3+ ports. Files
carrying a v2 ``[Version]`` keyword are rejected. Y/Z/H/G parameter types are
out of scope. Noise-parameter records trailing 2-port data are skipped with
a warning.

Touchstone I/O is streamed. :func:`parse_touchstone` takes the text or any
iterable of its lines (:func:`read_touchstone` passes the open file) and
turns the tokens of every data line into one float array, which numpy grows
in place; reading a file never holds its text or its line list. S is held
once: a parsed S is a strided view of that array, each record's frequency
interleaved before its entries, and MA/DB pairs are converted to RI in
place. Reading peaks at about 1.5 times S. :func:`touchstone_records` yields
the header and then one formatted record at a time, so a caller writing the
records to a file holds S plus one record; :func:`write_touchstone` joins
them into one string.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

POLS = ("x", "y")

_UNIT_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("ri", "ma", "db")
_SNP_EXT = re.compile(r"\.s(\d+)p$", re.IGNORECASE)


class TouchstoneError(ValueError):
    """Malformed or unsupported Touchstone content."""


class NetworkError(ValueError):
    """Inconsistent network data or port bookkeeping."""


@dataclass(frozen=True)
class NetworkData:
    """Frequency-domain scattering matrices for a P-port network.

    ``frequencies`` is a strictly increasing array of Hz; ``s`` has shape
    (F, P, P) with ``s[f, i, j]`` the wave out of port i per unit wave into
    port j; ``z_ref`` is the single real reference impedance. Both arrays
    are read-only; ``s`` need not be contiguous (a parsed ``s`` is a view of
    the file's values, with the frequencies interleaved between records).
    """

    frequencies: np.ndarray
    s: np.ndarray
    z_ref: float = 50.0

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if f.ndim != 1 or f.size == 0:
            raise NetworkError("frequencies must be a non-empty 1-D array")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise NetworkError("frequencies must be positive and strictly increasing")
        if s.ndim != 3 or s.shape[0] != f.size or s.shape[1] != s.shape[2] or s.shape[1] < 1:
            raise NetworkError(f"s must have shape (F, P, P) matching {f.size} frequencies, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise NetworkError("s contains non-finite entries")
        if not self.z_ref > 0:
            raise NetworkError(f"z_ref must be positive, got {self.z_ref}")
        f.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "z_ref", float(self.z_ref))

    @property
    def port_count(self) -> int:
        return self.s.shape[1]


@dataclass(frozen=True)
class PortMap:
    """Bijection between 0-based port indices and (element index, polarization)."""

    entries: tuple[tuple[tuple[int, int], str], ...]

    def __post_init__(self):
        norm = []
        for element, pol in self.entries:
            pol = str(pol).lower()
            if pol not in POLS:
                raise NetworkError(f"polarization must be one of {POLS}, got {pol!r}")
            norm.append(((int(element[0]), int(element[1])), pol))
        index = {key: port for port, key in enumerate(norm)}
        if len(index) != len(norm):
            raise NetworkError("port map entries must be unique")
        object.__setattr__(self, "entries", tuple(norm))
        object.__setattr__(self, "_index", index)

    @classmethod
    def lexicographic(cls, indices, pols=POLS) -> "PortMap":
        """Canonical ordering: sort by (pol, n1, n2) with x before y."""
        idx = sorted((int(i), int(j)) for i, j in indices)
        return cls(tuple((e, p) for p in sorted(str(p).lower() for p in pols) for e in idx))

    def __len__(self) -> int:
        return len(self.entries)

    def port_of(self, element: tuple[int, int], pol: str) -> int:
        key = ((int(element[0]), int(element[1])), str(pol).lower())
        try:
            return self._index[key]
        except KeyError:
            raise NetworkError(f"no port for element {element} pol {pol!r}") from None

    @property
    def pols(self) -> tuple[str, ...]:
        return tuple(sorted({p for _, p in self.entries}))


# --- Touchstone parsing ------------------------------------------------------


def _parse_option_line(line: str) -> tuple[float, str, float]:
    """Return (frequency scale, value format, z_ref) from a '#' option line."""
    unit_scale, fmt, z_ref = _UNIT_SCALE["ghz"], "ma", 50.0
    tokens = line[1:].lower().split()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in _UNIT_SCALE:
            unit_scale = _UNIT_SCALE[tok]
        elif tok in _FORMATS:
            fmt = tok
        elif tok == "s":
            pass
        elif tok in ("y", "z", "h", "g"):
            raise TouchstoneError(f"unsupported parameter type {tok.upper()!r}; only S-parameters are handled")
        elif tok == "r":
            if i + 1 >= len(tokens):
                raise TouchstoneError("option line 'R' without an impedance value")
            try:
                z_ref = float(tokens[i + 1])
            except ValueError:
                raise TouchstoneError(f"bad reference impedance {tokens[i + 1]!r}") from None
            i += 1
        else:
            raise TouchstoneError(f"unrecognized option token {tok!r}")
        i += 1
    return unit_scale, fmt, z_ref


def parse_touchstone(lines: str | Iterable[str], port_count: int) -> NetworkData:
    """Parse Touchstone v1 content into a :class:`NetworkData`.

    Parameters
    ----------
    lines : str or iterable of str
        File content, or its lines (an open text file will do; line ends
        and ``!`` comments are stripped). The port count is not inferable
        from v1 content and must be supplied (``.sNp`` naming convention).
    port_count : int
        Number of ports P; each frequency record carries 2*P*P values.

    Raises
    ------
    TouchstoneError
        Missing/malformed option line, v2 keywords, unsupported parameter
        type, non-monotone frequencies, or a value count that does not fill
        whole P x P records.
    """
    if port_count < 1:
        raise TouchstoneError(f"port_count must be >= 1, got {port_count}")
    if isinstance(lines, str):
        # split where a text file's lines end (\n, \r\n, lone \r), so a string parses as its file does
        lines = lines.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    p = port_count
    per_record = 1 + 2 * p * p
    option = None
    tokens: list[str] = []  # the data line being converted

    def data_tokens() -> Iterator[list[str]]:
        nonlocal option, tokens
        for raw in lines:
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                raise TouchstoneError(f"Touchstone v2 keyword {line.split()[0]!r} is not supported (v1 only)")
            if line.startswith("#"):
                if option is not None:
                    raise TouchstoneError("multiple option lines")
                option = _parse_option_line(line)
                continue
            if option is None:
                raise TouchstoneError("data encountered before the '#' option line")
            tokens = line.split()
            yield tokens

    # tokens are converted in file order, so a bad token is reported before any later line is read
    try:
        values = np.fromiter(map(float, itertools.chain.from_iterable(data_tokens())), dtype=float)
    except TouchstoneError:
        raise
    except ValueError:
        for tok in tokens:
            try:
                float(tok)
            except ValueError:
                raise TouchstoneError(f"non-numeric data token {tok!r}") from None
        raise
    if option is None:
        raise TouchstoneError("missing '#' option line")
    unit_scale, fmt, z_ref = option
    n_rec = values.size // per_record
    heads = values[::per_record]  # one frequency per started record

    f_hz = heads * unit_scale
    if p == 2:
        # 2-port noise-parameter section: frequency restarts below S data
        restart = np.flatnonzero(heads[1:] < f_hz[:-1] / unit_scale)
        if restart.size:
            warnings.warn("ignoring trailing noise-parameter data in 2-port file", stacklevel=2)
            n_rec = int(restart[0]) + 1
            heads = heads[:n_rec]
    down = np.flatnonzero(np.diff(f_hz[:n_rec]) <= 0)
    if down.size:
        raise TouchstoneError(f"frequencies not strictly increasing at {float(f_hz[down[0] + 1])} Hz")
    if n_rec < heads.size:
        raise TouchstoneError(
            f"frequency record at {float(heads[n_rec])!r} has fewer than {2 * p * p} S values"
        )
    if n_rec == 0:
        raise TouchstoneError("no frequency records found")

    pairs = values[: n_rec * per_record].reshape(n_rec, per_record)[:, 1:]
    if fmt != "ri":
        # (magnitude or dB, degrees) -> (real, imaginary) in place, through one temporary
        a, b = pairs[:, 0::2], pairs[:, 1::2]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are left to NetworkData's check
            if fmt == "db":
                np.power(10.0, np.divide(a, 20.0, out=a), out=a)
            ang = np.radians(b)
            np.multiply(a, np.sin(ang, out=b), out=b)
            np.multiply(a, np.cos(ang, out=ang), out=a)
        del ang  # freed before NetworkData's finiteness check allocates its own temporaries
    s = pairs.view(complex).reshape(n_rec, p, p)
    if p == 2:
        s = s.transpose(0, 2, 1)  # the v1 two-port quirk: S11 S21 S12 S22
    return NetworkData(f_hz[:n_rec], s, z_ref)


def port_count_from_name(path: str | Path) -> int | None:
    """The N of a file name ending in ``.sNp`` (any case), else None."""
    m = _SNP_EXT.search(Path(path).name)
    return int(m.group(1)) if m else None


def read_touchstone(path: str | Path) -> NetworkData:
    """Read a ``.sNp`` file line by line; the port count comes from the extension."""
    path = Path(path)
    ports = port_count_from_name(path)
    if ports is None:
        raise TouchstoneError(f"cannot infer port count from file name {path.name!r} (expected .sNp)")
    with open(path) as fh:
        return parse_touchstone(fh, ports)


def _value_columns(s: np.ndarray, fmt: str) -> np.ndarray:
    """The two written columns of each S entry, shape ``s.shape + (2,)``."""
    vals = np.empty(s.shape + (2,))
    if fmt == "ri":
        vals[..., 0], vals[..., 1] = s.real, s.imag
    else:
        mag = np.abs(s)
        if fmt == "ma":
            vals[..., 0] = mag
        else:
            with np.errstate(divide="ignore"):
                vals[..., 0] = np.where(mag > 0, 20.0 * np.log10(mag), -1000.0)
        vals[..., 1] = np.degrees(np.angle(s))
    return vals


def touchstone_records(net: NetworkData, fmt: str = "ri") -> Iterator[str]:
    """Touchstone v1 text as an iterator: the two header lines, then one record per item.

    Values are written with 13 significant digits so that a parse of the
    output reproduces every S entry to better than 1e-9 relative in all
    three formats; frequencies are written exactly (shortest round-trip
    float representation). Rows wrap at four S values per line for 3+ ports.
    Every item ends with a newline. ``fmt`` is checked before the iterator
    is returned; the value columns are then computed one record at a time.
    """
    fmt = fmt.lower()
    if fmt not in _FORMATS:
        raise TouchstoneError(f"format must be one of {_FORMATS}, got {fmt!r}")
    p = net.port_count
    # one line for 1- and 2-port records, else each matrix row wrapped at four pairs
    widths = [p * p] if p <= 2 else [min(4, p - start) for start in range(0, p, 4)] * p
    record = "%r " + "\n  ".join(" ".join(["%.12e %.12e"] * w) for w in widths) + "\n"
    s = net.s.transpose(0, 2, 1) if p == 2 else net.s  # the v1 two-port quirk: S11 S21 S12 S22

    def items() -> Iterator[str]:
        yield f"! {p}-port S-parameter data\n# Hz S {fmt.upper()} R {net.z_ref:.9g}\n"
        for f_hz, rec in zip(net.frequencies.tolist(), s):
            yield record % (f_hz, *_value_columns(rec, fmt).ravel().tolist())

    return items()


def write_touchstone(net: NetworkData, fmt: str = "ri") -> str:
    """Serialize to Touchstone v1 text: the items of :func:`touchstone_records`, joined."""
    return "".join(touchstone_records(net, fmt))


# --- network algebra ---------------------------------------------------------


def terminate_port(net: NetworkData, k: int, gamma_load: complex) -> NetworkData:
    """Absorb port k into a load with reflection coefficient gamma_load.

    The remaining (P-1)-port scattering matrix is
    ``S'_ij = S_ij + S_ik * G * S_kj / (1 - G * S_kk)``; surviving ports are
    renumbered preserving their order. With a matched load (G = 0) this is
    exactly row/column deletion.
    """
    p = net.port_count
    if not 0 <= k < p:
        raise NetworkError(f"port {k} out of range for {p}-port network")
    if p < 2:
        raise NetworkError("cannot terminate the only port of a 1-port network")
    g = complex(gamma_load)
    s = net.s
    den = 1.0 - g * s[:, k, k]
    bad = np.abs(den) <= 1e-12
    if np.any(bad):
        f_bad = net.frequencies[np.argmax(bad)]
        raise NetworkError(
            f"singular termination at port {k}, {f_bad:.6g} Hz: |1 - gamma*S_kk| <= 1e-12"
        )
    if g == 0:
        s_new = s
    else:
        s_new = s + (g * s[:, :, k][:, :, None] * s[:, k, :][:, None, :]) / den[:, None, None]
    keep = [i for i in range(p) if i != k]
    return NetworkData(net.frequencies, s_new[np.ix_(range(len(net.frequencies)), keep, keep)], net.z_ref)


# --- CSV rows ----------------------------------------------------------------


def _table_rows(header: str, template: str, blocks) -> list[str]:
    """``header`` then one ``template % row`` line per row.

    Each block is a tuple of equal-length columns (lists, or
    ``itertools.repeat`` for a constant column) holding one frequency or one
    sweep, so no more than a block's values are ever turned into Python
    objects at once.
    """
    rows = [header]
    for columns in blocks:
        rows += map(template.__mod__, zip(*columns))
    return rows
