"""Touchstone v1 S-parameter files and multiport network algebra.

Covers the v1.0/v1.1 dialect only: an option line ``# <unit> S <fmt> R <z>``,
``!`` comments, RI/MA/DB value formats, the 2-port S11 S21 S12 S22 column
order, and row-major matrices with continuation lines for 3+ ports. Files
carrying a v2 ``[Version]`` keyword are rejected. Y/Z/H/G parameter types are
out of scope. Noise-parameter records trailing 2-port data are skipped with
a warning.

Touchstone I/O goes one record at a time. :func:`read_records` is the one
reader: it takes the text or any iterable of its lines (an open file will
do) and yields the header ``(port_count, z_ref)`` and then each record's
frequency and (P, P) S, converting every token and checking each record as
it arrives, so it never holds the text, its line list or more than one
record of values. :func:`parse_touchstone` stacks those records into a
:class:`NetworkData`, which holds S once. :func:`touchstone_records` formats
a record stream, or a :class:`NetworkData`, one record at a time: converting
a file holds one record, and writing an assembled network one frequency's
S. :func:`touchstone_port_count` checks a file's size against its ``.sNp``
name before any record buffer is sized from that name.
"""

from __future__ import annotations

import collections
import itertools
import math
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
        if not np.all(np.isfinite(f)):
            raise NetworkError("frequencies must be finite")
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


def read_records(lines: str | Iterable[str], port_count: int) -> Iterator:
    """Touchstone v1 content as a record stream, converted one record at a time.

    The first item is the header ``(port_count, z_ref)``; every further item
    is one record, ``(frequency in Hz, S)`` with S a (P, P) complex array.
    ``lines`` is the text or any iterable of its lines (an open text file
    will do; line ends and ``!`` comments are stripped). The port count is
    not inferable from v1 content and must be supplied (``.sNp`` naming
    convention). Tokens are converted in file order into one buffer of
    ``2*P*P`` values per record, and each record is checked as it arrives,
    so a consumer that keeps part of each record holds no more than that.

    Raises
    ------
    TouchstoneError
        Missing/malformed option line, v2 keywords, unsupported parameter
        type, a non-numeric token, non-monotone frequencies, a final record
        short of ``2*P*P`` values, or no record at all.
    NetworkError
        A reference impedance or a first frequency that is not positive, or
        a frequency or S entry that is not finite.
    """
    if port_count < 1:
        raise TouchstoneError(f"port_count must be >= 1, got {port_count}")
    if isinstance(lines, str):
        # split where a text file's lines end (\n, \r\n, lone \r), so a string parses as its file does
        lines = lines.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return _records(lines, port_count)


def _records(lines: Iterable[str], p: int) -> Iterator:
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

    def bad_token() -> str | None:
        """The first token of the current line that is not a number."""
        for tok in tokens:
            try:
                float(tok)
            except ValueError:
                return tok
        return None

    # tokens are converted in file order, so a bad token is reported before any later line is read
    values = map(float, itertools.chain.from_iterable(data_tokens()))
    n = 2 * p * p
    count, prev = 0, 0.0
    try:
        head = next(values, None)
        if option is None:
            raise TouchstoneError("missing '#' option line")
        unit_scale, fmt, z_ref = option
        if not z_ref > 0:
            raise NetworkError(f"z_ref must be positive, got {z_ref}")
        yield p, z_ref
        while head is not None:
            if p == 2 and count and head < prev / unit_scale:
                # 2-port noise-parameter section: frequency restarts below S data
                warnings.warn("ignoring trailing noise-parameter data in 2-port file", stacklevel=2)
                collections.deque(values, maxlen=0)  # still converted, so a bad token there is reported
                break
            try:
                rec = np.fromiter(values, dtype=float, count=n)
            except TouchstoneError:
                raise
            except ValueError:
                if bad_token() is not None:
                    raise
                raise TouchstoneError(f"frequency record at {head!r} has fewer than {n} S values") from None
            f_hz = head * unit_scale
            if not math.isfinite(f_hz):
                raise NetworkError(f"frequency record at {head!r} has a frequency that is not finite in Hz")
            if not f_hz > prev:
                if count:
                    raise TouchstoneError(f"frequencies not strictly increasing at {f_hz} Hz")
                raise NetworkError("frequencies must be positive and strictly increasing")
            if fmt != "ri":
                # (magnitude or dB, degrees) -> (real, imaginary) in place, through one temporary
                a, b = rec[0::2], rec[1::2]
                with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are caught below
                    if fmt == "db":
                        np.power(10.0, np.divide(a, 20.0, out=a), out=a)
                    ang = np.radians(b)
                    np.multiply(a, np.sin(ang, out=b), out=b)
                    np.multiply(a, np.cos(ang, out=ang), out=a)
            if not np.isfinite(rec).all():
                raise NetworkError("s contains non-finite entries")
            s = rec.view(complex).reshape(p, p)
            yield f_hz, s.T if p == 2 else s  # the v1 two-port quirk: S11 S21 S12 S22
            count, prev = count + 1, f_hz
            head = next(values, None)
    except (TouchstoneError, NetworkError):
        raise
    except ValueError:
        tok = bad_token()
        if tok is None:
            raise
        raise TouchstoneError(f"non-numeric data token {tok!r}") from None
    if not count:
        raise TouchstoneError("no frequency records found")


def stack_records(records: Iterable, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies (F,) and the arrays of ``(frequency, array)`` records stacked, (F, *shape), complex.

    The stack is allocated once and grown in place as records arrive, so
    stacking holds it plus the record being copied.
    """
    freqs: list[float] = []

    def arrays() -> Iterator[np.ndarray]:
        for f_hz, a in records:
            freqs.append(f_hz)
            yield a

    stacked = np.fromiter(arrays(), dtype=np.dtype((complex, shape)))
    return np.array(freqs), stacked


def network_from_records(records: Iterable) -> NetworkData:
    """Stack a record stream (see :func:`read_records`) into one :class:`NetworkData`, holding S once."""
    records = iter(records)
    p, z_ref = next(records)
    return NetworkData(*stack_records(records, (p, p)), z_ref)


def parse_touchstone(lines: str | Iterable[str], port_count: int) -> NetworkData:
    """Parse Touchstone v1 content into a :class:`NetworkData`: the records of :func:`read_records`, stacked."""
    return network_from_records(read_records(lines, port_count))


def port_count_from_name(path: str | Path) -> int | None:
    """The N of a file name ending in ``.sNp`` (any case), else None."""
    m = _SNP_EXT.search(Path(path).name)
    return int(m.group(1)) if m else None


def touchstone_port_count(path: str | Path) -> int:
    """The port count P of a ``.sNp`` file, from its name, once its size can hold one record.

    A record is a frequency and ``2*P*P`` values, each at least one
    character and a separator, so a file under ``2 * (1 + 2*P*P)`` bytes
    is rejected before a record buffer sized from its name is allocated.
    """
    path = Path(path)
    ports = port_count_from_name(path)
    if ports is None:
        raise TouchstoneError(f"cannot infer port count from file name {path.name!r} (expected .sNp)")
    size, least = path.stat().st_size, 2 * (1 + 2 * ports * ports)
    if size < least:
        raise TouchstoneError(
            f"{path}: {size} bytes cannot hold one {ports}-port record, which needs at least {least} bytes"
        )
    return ports


def read_touchstone(path: str | Path) -> NetworkData:
    """Read a ``.sNp`` file line by line; the port count comes from the extension."""
    ports = touchstone_port_count(path)
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


def touchstone_records(net: NetworkData | Iterable, fmt: str = "ri") -> Iterator[str]:
    """Touchstone v1 text as an iterator: the two header lines, then one record per item.

    ``net`` is a :class:`NetworkData` or a record stream, such as those of
    :func:`read_records` and :func:`spectral.smatrix_records`; a stream's
    records are formatted as they arrive. Values are written with 13
    significant digits so that a parse of the output reproduces every S
    entry to better than 1e-9 relative in all three formats; frequencies are
    written exactly (shortest round-trip float representation). Rows wrap at
    four S values per line for 3+ ports. Every item ends with a newline.
    ``fmt`` is checked before the iterator is returned.
    """
    fmt = fmt.lower()
    if fmt not in _FORMATS:
        raise TouchstoneError(f"format must be one of {_FORMATS}, got {fmt!r}")
    if isinstance(net, NetworkData):
        records = itertools.chain([(net.port_count, net.z_ref)], zip(net.frequencies.tolist(), net.s))
    else:
        records = iter(net)

    def items() -> Iterator[str]:
        p, z_ref = next(records)
        # one line for 1- and 2-port records, else each matrix row wrapped at four pairs
        widths = [p * p] if p <= 2 else [min(4, p - start) for start in range(0, p, 4)] * p
        record = "%r " + "\n  ".join(" ".join(["%.12e %.12e"] * w) for w in widths) + "\n"
        yield f"! {p}-port S-parameter data\n# Hz S {fmt.upper()} R {z_ref:.9g}\n"
        for f_hz, s in records:
            # the v1 two-port quirk: S11 S21 S12 S22
            yield record % (f_hz, *_value_columns(s.T if p == 2 else s, fmt).ravel().tolist())

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
