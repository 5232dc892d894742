"""Touchstone v1 S-parameter files and multiport network algebra.

Covers the v1.0/v1.1 dialect only: an option line ``# <unit> S <fmt> R <z>``,
``!`` comments, RI/MA/DB value formats, the 2-port S11 S21 S12 S22 column
order, and row-major matrices with continuation lines for 3+ ports. Files
carrying a v2 ``[Version]`` keyword are rejected. Y/Z/H/G parameter types are
out of scope. Noise-parameter records trailing 2-port data are skipped with
a warning.

Touchstone I/O goes one record at a time. :func:`read_records` is the one
reader: it takes the text, an open text file or any iterable of its lines,
and yields the header ``(port_count, z_ref)`` and then each record's
frequency and (P, P) S, converting every token and checking each record as
it arrives, so it never holds a line list or more than one record of
values. Every input takes one path: after the option line, whole lines are
converted a few KiB of text at a time, one numpy call per batch; a batch
with a token that is not a number is read again line by line and token by
token, so every error, and the order of errors, is what the lines read one
at a time give. The reference impedance must be finite and positive.
:func:`parse_touchstone` stacks those records into a :class:`NetworkData`,
which holds S once. :func:`touchstone_records` formats a record stream, or
a :class:`NetworkData`, one record at a time: converting a file holds one
record, and writing an assembled network one frequency's S.
:func:`touchstone_port_count` checks a file's size against its ``.sNp``
name before any record buffer is sized from that name.
"""

from __future__ import annotations

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


def _checked_z_ref(z_ref) -> float:
    """A reference impedance as a float, once it is positive and finite."""
    if not z_ref > 0:
        raise NetworkError(f"z_ref must be positive, got {z_ref}")
    if z_ref == math.inf:
        raise NetworkError(f"z_ref must be finite, got {z_ref}")
    return float(z_ref)


@dataclass(frozen=True)
class NetworkData:
    """Frequency-domain scattering matrices for a P-port network.

    ``frequencies`` is a strictly increasing array of Hz; ``s`` has shape
    (F, P, P) with ``s[f, i, j]`` the wave out of port i per unit wave into
    port j; ``z_ref`` is the single real reference impedance, finite and
    positive. Both arrays are read-only; ``s`` need not be contiguous, but a
    parsed ``s`` is one fresh C-contiguous stack of the file's records
    (:func:`stack_records`).
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
        z_ref = _checked_z_ref(self.z_ref)
        f.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "z_ref", z_ref)

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
    tokens = iter(line[1:].lower().split())
    for tok in tokens:
        if tok in _UNIT_SCALE:
            unit_scale = _UNIT_SCALE[tok]
        elif tok in _FORMATS:
            fmt = tok
        elif tok in ("y", "z", "h", "g"):
            raise TouchstoneError(f"unsupported parameter type {tok.upper()!r}; only S-parameters are handled")
        elif tok == "r":
            value = next(tokens, None)
            if value is None:
                raise TouchstoneError("option line 'R' without an impedance value")
            try:
                z_ref = float(value)
            except ValueError:
                raise TouchstoneError(f"bad reference impedance {value!r}") from None
        elif tok != "s":
            raise TouchstoneError(f"unrecognized option token {tok!r}")
    return unit_scale, fmt, z_ref


def _str_lines(text: str) -> Iterator[str]:
    """The lines of a str, split at LF, CRLF and lone CR as a text file opened by default splits them."""
    text, at = text.replace("\r\n", "\n").replace("\r", "\n"), 0
    while at < len(text):
        end = text.find("\n", at) + 1 or len(text)
        yield text[at:end]
        at = end


def read_records(lines: str | Iterable[str], port_count: int) -> Iterator:
    """Touchstone v1 content as a record stream, converted one record at a time.

    The first item is the header ``(port_count, z_ref)``; every further item
    is one record, ``(frequency in Hz, S)`` with S a (P, P) complex array.
    ``lines`` is the text, an open text file, or any other iterable of its
    lines, with or without their line ends; ``!`` comments run to the end of
    their line. The port count is not inferable from v1 content and must be
    supplied (``.sNp`` naming convention). Each record's frequency and
    ``2*P*P`` values go into one fresh buffer, and each record is checked as
    it arrives, so a consumer that keeps part of each record holds no more
    than that.

    Every input is read the same way, by its own lines: a file's as its
    ``newline=`` setting splits them, an iterable's as given, and a ``str``
    split at LF, CRLF and lone CR, as a text file opened by default splits
    them, so it parses as the same bytes read from such a file. The lines
    up to the option line are read one at a time; after it, whole lines are
    gathered into batches of a few KiB of text, and each batch, its ``!``
    comments cut, is converted by one numpy call, which reads numbers
    exactly as ``float`` does. A batch holding a token that is not a
    number, as any option line or v2 keyword is, is read again line by line
    and token by token, carrying over the record it fills, so every error,
    and the order of errors, is that of reading the lines one at a time.

    Raises
    ------
    TouchstoneError
        Missing/malformed option line, v2 keywords, unsupported parameter
        type, a non-numeric token, non-monotone frequencies, a final record
        short of ``2*P*P`` values, or no record at all.
    NetworkError
        A reference impedance that is not finite and positive, a first
        frequency that is not positive, or a frequency or S entry that is
        not finite.
    """
    if port_count < 1:
        raise TouchstoneError(f"port_count must be >= 1, got {port_count}")
    return _records(_str_lines(lines) if isinstance(lines, str) else lines, port_count)


_BLOCK_CHARS = 4096  # characters of whole lines converted at a time; 16 KiB adds a record to a 64-port read's peak


def _leading_numbers(tokens: list[str]) -> list[float]:
    """The values of ``tokens`` up to the first that is not a number."""
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            break
    return values


def _batch_values(batch: list[str]) -> np.ndarray | None:
    """The values of a batch of whole lines, or None if one of its tokens is not a number.

    An option line or a v2 keyword starts with such a token (``#`` or ``[``), so a batch holding
    either is read line by line as well. The lines are joined with a space, as a line need not end
    with a line end.
    """
    text = " ".join(batch)
    if "!" in text:
        text = " ".join(line.split("!", 1)[0] for line in batch)
    try:
        return np.array(text.split(), dtype=float)
    except ValueError:
        return None


def _records(lines: Iterable[str], p: int) -> Iterator:
    option = None

    def line_values(lines: Iterable[str]) -> Iterator[list[float]]:
        """The values of each data line in turn; a bad token is raised once the values before it are taken."""
        nonlocal option
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
            values = _leading_numbers(tokens)
            yield values
            if len(values) < len(tokens):
                raise TouchstoneError(f"non-numeric data token {tokens[len(values)]!r}")

    def batch_values(batch: list[str]) -> Iterator:
        """A batch's values in one array, or line by line when one of its tokens is not a number."""
        values = _batch_values(batch)
        yield from line_values(batch) if values is None else (values,)

    def value_chunks() -> Iterator:
        """The values in input order: line by line up to the option line, then a batch of whole lines at a time."""
        rest = iter(lines)
        for line in rest:
            yield from line_values((line,))
            if option is not None:
                break
        batch, size = [], 0
        for line in rest:
            batch.append(line)
            size += len(line)
            if size >= _BLOCK_CHARS:
                yield from batch_values(batch)
                batch, size = [], 0
        yield from batch_values(batch)

    n = 2 * p * p
    chunks = (v for v in value_chunks() if len(v))
    first = next(chunks, None)  # the header follows the first value, or the end of a content without one
    if option is None:
        raise TouchstoneError("missing '#' option line")
    unit_scale, fmt, z_ref = option
    yield p, _checked_z_ref(z_ref)
    if first is not None:
        chunks = itertools.chain([first], chunks)
    count, prev, got = 0, 0.0, 0
    for chunk in chunks:
        at = 0
        while at < len(chunk):
            if not got:  # a record starts
                head = float(chunk[at])
                if p == 2 and count and head < prev / unit_scale:
                    # 2-port noise-parameter section: frequency restarts below S data
                    warnings.warn("ignoring trailing noise-parameter data in 2-port file", stacklevel=2)
                    for _ in chunks:  # still converted, so a bad token there is reported
                        pass
                    return
                rec = np.empty(1 + n)
            take = min(1 + n - got, len(chunk) - at)
            rec[got : got + take] = chunk[at : at + take]
            got, at = got + take, at + take
            if got <= n:  # the record is not full yet
                continue
            got = 0
            f_hz = head * unit_scale
            if not math.isfinite(f_hz):
                raise NetworkError(f"frequency record at {head!r} has a frequency that is not finite in Hz")
            if not f_hz > prev:
                if count:
                    raise TouchstoneError(f"frequencies not strictly increasing at {f_hz} Hz")
                raise NetworkError("frequencies must be positive and strictly increasing")
            s = rec[1:]
            if fmt != "ri":
                # (magnitude or dB, degrees) -> (real, imaginary) in place, through one temporary
                a, b = s[0::2], s[1::2]
                with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are caught below
                    if fmt == "db":
                        np.power(10.0, np.divide(a, 20.0, out=a), out=a)
                    ang = np.radians(b)
                    np.multiply(a, np.sin(ang, out=b), out=b)
                    np.multiply(a, np.cos(ang, out=ang), out=a)
            if not np.isfinite(s).all():
                raise NetworkError("s contains non-finite entries")
            s = s.view(complex).reshape(p, p)
            yield f_hz, s.T if p == 2 else s  # the v1 two-port quirk: S11 S21 S12 S22
            count, prev = count + 1, f_hz
    if got:
        raise TouchstoneError(f"frequency record at {head!r} has fewer than {n} S values")
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
    """Read a ``.sNp`` file record by record (see :func:`read_records`); the port count comes from the extension."""
    ports = touchstone_port_count(path)
    with open(path) as fh:
        return parse_touchstone(fh, ports)


# --- exact '%.12e' text --------------------------------------------------------------
# A value v with 10**e <= |v| < 10**(e + 1), |e| <= 99, times the correctly rounded 10**(12 - e) is m, within
# 2.3e-3 of the exact |v| * 10**(12 - e) (two roundings of 2**-53 relative below 1e13). So when m lies in
# [1e12, 1e13) and is not within 0.01 of a half, rint(m) is the correctly rounded 13-digit mantissa that
# '%.12e' prints. Any other value is written by '%.12e' itself.

_E12_WIDTH = 20  # bytes of the longest '%.12e' text of a finite double, as '-2.225073858507e-308'
_E12_CHUNK = 1024  # rows laid out at a time by _e12_text
_POW10 = np.array([float(f"1e{k}") for k in range(-87, 112)])  # 10**(12 - e) at index j = 99 - e


def _words(*choices: bytes) -> np.ndarray:
    """Every 4-byte word whose i-th byte is one of ``choices[i]``, as uint32, the first byte varying slowest."""
    columns = np.meshgrid(*(np.frombuffer(c, np.uint8) for c in choices), indexing="ij")
    return np.stack(columns, axis=-1).view(np.uint32).ravel()


# The text is written as five 4-byte words: the sign, lead digit, point and second digit; two groups of four
# digits; the last three digits and "e"; the exponent's sign, its two digits and a NUL. The tables are built
# from arrays: joining 10 000 bytes objects would raise every command's peak memory by about 1 MB.
_DIGITS = b"0123456789"
_LEAD = _words(b"\0-", _DIGITS, b".", _DIGITS)
_FOUR = _words(_DIGITS, _DIGITS, _DIGITS, _DIGITS)
_THREE_E = _words(_DIGITS, _DIGITS, _DIGITS, b"e")
_EXPONENT = np.concatenate(  # by j = 99 - e: +99 down to +00, then -01 to -99
    (_words(b"+", _DIGITS[::-1], _DIGITS[::-1], b"\0"), _words(b"-", _DIGITS, _DIGITS, b"\0")[1:])
)


def _e12_fields(values: np.ndarray, fields: np.ndarray) -> None:
    """Write ``'%.12e' % v`` of each float64 ``v`` of ``values`` (n,) into its row of ``fields`` (n, 20) uint8.

    Each row's bytes must be contiguous. A text shorter than 20 bytes is NUL padded, so dropping
    every NUL of the rows leaves the texts in order. The scratch arrays take 43 B per value.
    """
    k = values.shape[0]
    a, e, m = np.empty((3, k))
    j, q = np.empty((2, k), np.int64)
    ok, zero, tmp = np.empty((3, k), bool)
    words = fields.view(np.uint32)
    # log10(0) is -inf and its index cast is clipped below; a value that is not finite fails the checks
    with np.errstate(divide="ignore", invalid="ignore"):
        np.abs(values, out=a)
        np.floor(np.log10(a, out=e), out=e)
        np.copyto(j, np.subtract(99.0, e, out=e), casting="unsafe")
        # an exponent beyond +-99 takes the scale of +-99, which puts m outside [1e12, 1e13) below
        _POW10.take(j, out=m, mode="clip")
        np.multiply(m, a, out=m)
        np.equal(a, 0.0, out=zero)
        r = np.rint(m, out=a)
        # ok: m in [1e12, 1e13) and rint(m) < 1e13, or a zero; and |m - rint(m)| < 0.49
        np.greater_equal(m, 1e12, out=ok)
        ok |= zero
        ok &= np.less(r, 1e13, out=tmp)
        ok &= np.less(np.abs(np.subtract(m, r, out=m), out=m), 0.49, out=tmp)
    left = np.logical_not(ok, out=ok)  # the values left to '%.12e'
    np.copyto(r, 0.0, where=left)  # and written as 0 first
    np.copyto(q, r, casting="unsafe")
    # r = AB CDEF GHIJ KLM, written as the words "[-]A.B", "CDEF", "GHIJ", "KLMe"; e and m hold digit groups now
    rest, group = e.view(np.int64), m.view(np.int64)
    for word, table, size in ((3, _THREE_E, 1000), (2, _FOUR, 10_000), (1, _FOUR, 10_000)):
        np.floor_divide(q, size, out=rest)
        words[:, word] = table[np.subtract(q, np.multiply(rest, size, out=group), out=group)]
        q, rest = rest, q
    q += np.multiply(np.signbit(values, out=tmp), 100, out=group)
    words[:, 0] = _LEAD[q]
    np.copyto(j, 99, where=zero)
    words[:, 4] = _EXPONENT.take(j, mode="clip")
    if left.any():
        rows = np.flatnonzero(left)
        texts = np.array([b"%.12e" % x for x in values[rows].tolist()], dtype=f"S{_E12_WIDTH}")
        fields[rows] = texts.view(np.uint8).reshape(-1, _E12_WIDTH)


def _e12_text(head: str, columns: list[np.ndarray], rows: int) -> str:
    """``head``, then the ``columns`` side by side row by row, as ASCII text with every NUL byte dropped.

    A float64 column (rows,) is written as the ``'%.12e'`` text of each value; a uint8 column
    (rows, w), or (w,) for the same bytes in every row, is copied. The rows are laid out
    ``_E12_CHUNK`` at a time in one buffer, so besides the text only one chunk's bytes are held.
    """
    widths = [_E12_WIDTH if c.dtype == np.float64 else c.shape[-1] for c in columns]
    step = min(rows, _E12_CHUNK)
    buf = np.empty((step, sum(widths)), np.uint8)
    pieces = [head]
    for lo in range(0, rows, step):
        chunk, at = buf[: min(step, rows - lo)], 0
        for column, width in zip(columns, widths):
            if column.dtype == np.float64:
                _e12_fields(column[lo : lo + step], chunk[:, at : at + width])
            else:
                chunk[:, at : at + width] = column if column.ndim == 1 else column[lo : lo + step]
            at += width
        pieces.append(chunk.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


def _value_columns(s: np.ndarray, fmt: str) -> np.ndarray:
    """The two written columns of each S entry, in written order once raveled."""
    if fmt == "ri":
        return np.ascontiguousarray(s, dtype=complex).view(float)
    mag = np.abs(s)
    if fmt == "db":
        with np.errstate(divide="ignore"):
            mag = np.where(mag > 0, 20.0 * np.log10(mag), -1000.0)
    return np.stack((mag, np.degrees(np.angle(s))), axis=-1)


def touchstone_records(net: NetworkData | Iterable, fmt: str = "ri") -> Iterator[str]:
    """Touchstone v1 text as an iterator: the two header lines, then one record per item.

    ``net`` is a :class:`NetworkData` or a record stream, such as those of
    :func:`read_records` and :func:`spectral.smatrix_records`; a stream's
    records are formatted as they arrive. Values are written with 13
    significant digits, exactly as ``'%.12e'`` writes them, so that a parse
    of the output reproduces every S entry to better than 1e-9 relative in
    all three formats; frequencies are written exactly (shortest round-trip
    float representation), and so is ``z_ref``: its ``%.9g`` text when that
    reads back as the same float, else its repr. Rows wrap at four S values
    per line for 3+ ports. Every item ends with a newline. ``fmt`` is checked before the iterator
    is returned, and a stream's ``z_ref`` that is not positive and finite raises
    :class:`NetworkError` at the first ``next``, before any text.
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
        z_ref = _checked_z_ref(z_ref)
        # one line for 1- and 2-port records, else each matrix row wrapped at four pairs
        widths = [p * p] if p <= 2 else [min(4, p - start) for start in range(0, p, 4)] * p
        seps = np.full(2 * p * p, b" ", dtype="S3")
        seps[np.cumsum(widths) * 2 - 1] = b"\n  "
        seps[-1] = b"\n"
        seps = seps.view(np.uint8).reshape(-1, 3)
        z_text = f"{z_ref:.9g}"
        z_text = z_text if float(z_text) == z_ref else repr(z_ref)
        yield f"! {p}-port S-parameter data\n# Hz S {fmt.upper()} R {z_text}\n"
        for f_hz, s in records:
            # the v1 two-port quirk: S11 S21 S12 S22
            values = _value_columns(s.T if p == 2 else s, fmt).ravel()
            yield _e12_text("%r " % f_hz, [values, seps], values.size)

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
