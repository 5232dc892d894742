import cmath
import itertools
import json
import math
import random
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arraykit import cli, snp

DATA = Path(__file__).parent / "data"


def random_network(ports: int, nfreq: int = 4, seed: int = 0) -> snp.NetworkData:
    rng = np.random.default_rng(seed)
    s = 0.7 * (rng.standard_normal((nfreq, ports, ports)) + 1j * rng.standard_normal((nfreq, ports, ports)))
    f = np.linspace(1e9, 10e9, nfreq)
    return snp.NetworkData(f, s / max(1.0, np.abs(s).max()), 50.0)


# --- reference implementations: the per-value loops the vectorised code replaced --


def _reference_to_complex(fmt: str, a: float, b: float) -> complex:
    if fmt == "ri":
        return complex(a, b)
    if fmt == "ma":
        return a * cmath.exp(1j * math.radians(b))
    return 10.0 ** (a / 20.0) * cmath.exp(1j * math.radians(b))


def _reference_parse(text: str, port_count: int) -> snp.NetworkData:
    if port_count < 1:
        raise snp.TouchstoneError(f"port_count must be >= 1, got {port_count}")
    option = None
    values: list[float] = []
    for raw in text.splitlines():
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            raise snp.TouchstoneError(f"Touchstone v2 keyword {line.split()[0]!r} is not supported (v1 only)")
        if line.startswith("#"):
            if option is not None:
                raise snp.TouchstoneError("multiple option lines")
            option = snp._parse_option_line(line)
            continue
        if option is None:
            raise snp.TouchstoneError("data encountered before the '#' option line")
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise snp.TouchstoneError(f"non-numeric data token {tok!r}") from None
    if option is None:
        raise snp.TouchstoneError("missing '#' option line")
    unit_scale, fmt, z_ref = option

    p = port_count
    per_record = 1 + 2 * p * p
    freqs: list[float] = []
    mats: list[np.ndarray] = []
    pos = 0
    while pos < len(values):
        f_raw = values[pos]
        if p == 2 and freqs and f_raw < freqs[-1] / unit_scale:
            warnings.warn("ignoring trailing noise-parameter data in 2-port file", stacklevel=2)
            break
        if pos + per_record > len(values):
            raise snp.TouchstoneError(
                f"frequency record at {f_raw!r} has fewer than {2 * p * p} S values"
            )
        rec = values[pos + 1 : pos + per_record]
        pos += per_record
        s = np.empty((p, p), dtype=complex)
        pairs = [(rec[2 * k], rec[2 * k + 1]) for k in range(p * p)]
        if p == 2:
            order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        else:
            order = [(i, j) for i in range(p) for j in range(p)]
        for (i, j), (a, b) in zip(order, pairs):
            s[i, j] = _reference_to_complex(fmt, a, b)
        f_hz = f_raw * unit_scale
        if freqs and f_hz <= freqs[-1]:
            raise snp.TouchstoneError(f"frequencies not strictly increasing at {f_hz} Hz")
        freqs.append(f_hz)
        mats.append(s)
    if not freqs:
        raise snp.TouchstoneError("no frequency records found")
    return snp.NetworkData(np.array(freqs), np.array(mats), z_ref)


def _reference_write(net: snp.NetworkData, fmt: str = "ri") -> str:
    fmt = fmt.lower()

    def pair(v: complex) -> str:
        if fmt == "ri":
            return f"{v.real:.12e} {v.imag:.12e}"
        mag, ang = abs(v), math.degrees(cmath.phase(v))
        if fmt == "ma":
            return f"{mag:.12e} {ang:.12e}"
        db = 20.0 * math.log10(mag) if mag > 0 else -1000.0
        return f"{db:.12e} {ang:.12e}"

    p = net.port_count
    lines = [f"! {p}-port S-parameter data", f"# Hz S {fmt.upper()} R {net.z_ref:.9g}"]
    for f_hz, s in zip(net.frequencies, net.s):
        if p == 1:
            lines.append(f"{float(f_hz)!r} {pair(s[0, 0])}")
        elif p == 2:
            quirk = (s[0, 0], s[1, 0], s[0, 1], s[1, 1])
            lines.append(f"{float(f_hz)!r} " + " ".join(pair(v) for v in quirk))
        else:
            for i in range(p):
                row = [pair(s[i, j]) for j in range(p)]
                for start in range(0, p, 4):
                    chunk = " ".join(row[start : start + 4])
                    prefix = f"{float(f_hz)!r} " if i == 0 and start == 0 else "  "
                    lines.append(prefix + chunk)
    return "\n".join(lines) + "\n"


def oracle_network(ports: int, nfreq: int, seed: int) -> snp.NetworkData:
    """Random network with exact zeros, pure reals/imaginaries and a few large entries."""
    net = random_network(ports, nfreq, seed)
    s = np.array(net.s)
    flat = s.reshape(-1)
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(flat.size, size=min(flat.size, 12), replace=False)
    for k, idx in enumerate(picks):
        flat[idx] = [0.0, -0.0, 0.3, -0.7j, 1e-9 + 2e-9j, 0.999 - 0.01j][k % 6]
    return snp.NetworkData(net.frequencies, s, net.z_ref)


def assert_written_numbers_close(new: str, ref: str):
    """Same layout, and every number within the fixed float64 write tolerance."""
    new_lines, ref_lines = new.splitlines(), ref.splitlines()
    assert new_lines[:2] == ref_lines[:2]
    assert [len(l.split()) for l in new_lines] == [len(l.split()) for l in ref_lines]
    assert [l[:2] for l in new_lines] == [l[:2] for l in ref_lines]
    got = np.array(" ".join(new_lines[2:]).split(), dtype=float)
    want = np.array(" ".join(ref_lines[2:]).split(), dtype=float)
    err = np.abs(got - want)
    small = np.abs(want) < 1e-1
    assert np.all((err <= 1e-11 * np.abs(want)) | (small & (err <= 1e-12)))


def assert_parsed_matches_reference(new: snp.NetworkData, ref: snp.NetworkData, fmt: str):
    assert new.frequencies.tobytes() == ref.frequencies.tobytes()
    assert new.z_ref == ref.z_ref
    if fmt == "ri":
        assert new.s.tobytes() == ref.s.tobytes()
    else:
        assert np.all(np.abs(new.s - ref.s) <= 1e-14 * np.abs(ref.s))


# --- parsing -----------------------------------------------------------------


def test_parse_one_port_ri():
    net = snp.parse_touchstone("# GHz S RI R 50\n1.0 0.5 0.0\n", 1)
    assert net.frequencies.tolist() == [1e9]
    assert net.s[0, 0, 0] == 0.5 + 0j
    assert net.z_ref == 50.0


def test_parse_ma_entry_90deg():
    net = snp.parse_touchstone("# hz s ma r 50\n100.0 1.0 90.0\n", 1)
    assert net.s[0, 0, 0] == pytest.approx(1j, abs=1e-15)


def test_parse_db_entry():
    net = snp.parse_touchstone("# Hz S DB R 50\n100.0 -6.0206 0.0\n", 1)
    assert net.s[0, 0, 0] == pytest.approx(0.5 + 0j, abs=1e-5)


def test_option_line_defaults():
    # bare '#' means GHz, S, MA, 50 ohms
    net = snp.parse_touchstone("#\n2.0 0.5 0.0\n", 1)
    assert net.frequencies[0] == 2e9
    assert net.z_ref == 50.0
    assert net.s[0, 0, 0] == pytest.approx(0.5)


def test_parse_tolerates_whitespace_comments_blank_lines():
    text = "! leading comment\n\n#  MHz  S  RI  R  75\n\n  5.0\t0.25 0.0 ! trailing\n\n"
    net = snp.parse_touchstone(text, 1)
    assert net.frequencies[0] == 5e6
    assert net.z_ref == 75.0
    assert net.s[0, 0, 0] == 0.25


def test_golden_two_port_ordering():
    net = snp.read_touchstone(DATA / "golden_2port.s2p")
    assert net.port_count == 2
    assert net.frequencies.tolist() == [1e9, 2e9]
    s = net.s[0]
    assert s[0, 0] == pytest.approx(0.10 * cmath.exp(0j), abs=1e-12)
    assert s[1, 0] == pytest.approx(0.90 * cmath.exp(-1j * math.pi / 4), abs=1e-12)
    assert s[0, 1] == pytest.approx(0.002 * cmath.exp(1j * math.radians(30)), abs=1e-12)
    assert s[1, 1] == pytest.approx(0.15 * cmath.exp(1j * math.radians(10)), abs=1e-12)


def test_three_port_row_major_with_continuation_lines():
    # 9 complex values split across lines; row-major S11 S12 ... S33
    vals = [f"{0.01 * k:.3f} 0.0" for k in range(9)]
    text = "# GHz S RI R 50\n1.0 " + " ".join(vals[:3]) + "\n" + " ".join(vals[3:6]) + "\n" + " ".join(vals[6:]) + "\n"
    net = snp.parse_touchstone(text, 3)
    expected = 0.01 * np.arange(9).reshape(3, 3)
    np.testing.assert_allclose(net.s[0].real, expected, atol=1e-12)
    np.testing.assert_allclose(net.s[0].imag, 0, atol=1e-15)


def test_parse_rejects_v2_keyword():
    with pytest.raises(snp.TouchstoneError, match="v2"):
        snp.parse_touchstone("[Version] 2.0\n# GHz S RI R 50\n1 0 0\n", 1)


def test_parse_rejects_yzhg_types():
    for t in "YZHG":
        with pytest.raises(snp.TouchstoneError, match="parameter type"):
            snp.parse_touchstone(f"# GHz {t} RI R 50\n1 0 0\n", 1)


def test_parse_rejects_missing_option_line():
    with pytest.raises(snp.TouchstoneError, match="option"):
        snp.parse_touchstone("1.0 0.5 0.0\n", 1)


def test_parse_rejects_non_monotone_frequencies():
    text = "# GHz S RI R 50\n2.0 0.1 0.0\n1.0 0.2 0.0\n"
    with pytest.raises(snp.TouchstoneError, match="increasing"):
        snp.parse_touchstone(text, 1)


def test_parse_rejects_short_record():
    with pytest.raises(snp.TouchstoneError, match="fewer"):
        snp.parse_touchstone("# GHz S RI R 50\n1.0 0.1 0.0 0.2\n", 2)


def test_noise_section_ignored_with_warning():
    text = (
        "# GHz S MA R 50\n"
        "1.0 0.1 0 0.9 -45 0.002 30 0.15 10\n"
        "2.0 0.1 0 0.9 -45 0.002 30 0.15 10\n"
        "! noise parameters\n"
        "1.5 2.3 0.5 10.0 0.2\n"
    )
    with pytest.warns(UserWarning, match="noise"):
        net = snp.parse_touchstone(text, 2)
    assert len(net.frequencies) == 2


# --- writing and round trips -------------------------------------------------


@pytest.mark.parametrize("fmt", ["ri", "ma", "db"])
@pytest.mark.parametrize("ports", [1, 2, 3, 4, 9])
def test_round_trip_all_formats(fmt, ports):
    net = random_network(ports, seed=ports * 7 + len(fmt))
    back = snp.parse_touchstone(snp.write_touchstone(net, fmt), ports)
    assert back.frequencies.tolist() == net.frequencies.tolist()
    np.testing.assert_allclose(back.s, net.s, rtol=1e-9, atol=1e-30)
    assert back.z_ref == net.z_ref


def test_write_zero_network_ri():
    net = snp.NetworkData([1e9], np.zeros((1, 1, 1), complex), 50.0)
    data_line = snp.write_touchstone(net, "ri").splitlines()[-1]
    assert data_line.split()[1:] == ["0.000000000000e+00", "0.000000000000e+00"]


def test_write_zero_magnitude_db_round_trips():
    net = snp.NetworkData([1e9], np.zeros((1, 1, 1), complex), 50.0)
    back = snp.parse_touchstone(snp.write_touchstone(net, "db"), 1)
    assert abs(back.s[0, 0, 0]) < 1e-30


def test_write_two_port_emits_quirk_order():
    s = np.array([[[0.11, 0.12], [0.21, 0.22]]], dtype=complex)
    net = snp.NetworkData([1e9], s, 50.0)
    nums = snp.write_touchstone(net, "ri").splitlines()[-1].split()
    reals = [float(nums[k]) for k in (1, 3, 5, 7)]
    assert reals == [0.11, 0.21, 0.12, 0.22]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), ports=st.integers(1, 6), fmt=st.sampled_from(["ri", "ma", "db"]))
def test_round_trip_property(seed, ports, fmt):
    net = random_network(ports, nfreq=3, seed=seed)
    back = snp.parse_touchstone(snp.write_touchstone(net, fmt), ports)
    np.testing.assert_allclose(back.s, net.s, rtol=1e-9, atol=1e-30)


# --- exact '%.12e' text ---------------------------------------------------------


def e12_texts(values) -> list[str]:
    """The text the formatting kernel writes for each value, read back from its NUL padded field."""
    values = np.asarray(values, dtype=float)
    fields = np.full((values.size, snp._E12_WIDTH), 0xFF, np.uint8)  # a byte left unwritten fails to decode
    snp._e12_fields(values, fields)
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in fields]


def e12_edge_values() -> list[float]:
    """Zeros, the extremes of the double range, the ends of the two-digit exponents, and 14-digit ties."""
    edges = [0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max, 1e99, 1e-99, 1e100, 1e-100]
    edges += [10000000000000.5, 9999999999999.5, 0.5, 1.0, 10.0, 1000.0]
    for k in range(-101, 101):
        # 9.9999999999995e{k} carries into the next decade; each "...5" is halfway between two 13-digit texts
        for text in ("9.9999999999995", "1.0000000000005", "1.2345678901235", "5.0000000000005", "1"):
            v = float(f"{text}e{k}")
            edges += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    return edges + [-v for v in edges]


def test_e12_fields_match_percent_format_on_edge_values():
    values = e12_edge_values()
    assert e12_texts(values) == ["%.12e" % v for v in values]


def test_e12_fields_match_percent_format_over_every_two_digit_exponent():
    rng = np.random.default_rng(12)
    values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-110, 111, 100_000)
    assert e12_texts(values) == ["%.12e" % v for v in values.tolist()]


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=400), scaled=st.floats(-1e6, 1e6))
def test_e12_fields_match_percent_format_on_any_finite_double(bits, scaled):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = np.append(values[np.isfinite(values)], scaled)
    assert e12_texts(values) == ["%.12e" % v for v in values.tolist()]


def reference_records(net: snp.NetworkData, fmt: str) -> str:
    """Touchstone text from the per-record '%' template that formatted every value through Python."""
    p = net.port_count
    widths = [p * p] if p <= 2 else [min(4, p - start) for start in range(0, p, 4)] * p
    record = "%r " + "\n  ".join(" ".join(["%.12e %.12e"] * w) for w in widths) + "\n"
    text = f"! {p}-port S-parameter data\n# Hz S {fmt.upper()} R {net.z_ref:.9g}\n"
    for f_hz, s in zip(net.frequencies.tolist(), net.s):
        s = s.T if p == 2 else s  # S11 S21 S12 S22
        mag = np.abs(s)
        if fmt == "db":
            with np.errstate(divide="ignore"):
                mag = np.where(mag > 0, 20.0 * np.log10(mag), -1000.0)
        columns = np.stack((s.real, s.imag) if fmt == "ri" else (mag, np.degrees(np.angle(s))), axis=-1)
        text += record % (f_hz, *columns.ravel().tolist())
    return text


@pytest.mark.parametrize("fmt", ["ri", "ma", "db"])
@pytest.mark.parametrize("ports", [1, 2, 3, 38])
def test_records_match_the_percent_template(ports, fmt):
    net = random_network(ports, nfreq=5, seed=ports + 11)
    s = np.array(net.s)
    # 0 is -1000 dB; -0.0 - 0.0j has the angle -180; the tiny and huge entries need three-digit exponents
    special = [0.0, complex(-0.0, -0.0), 1e-120 - 1e120j, 1e120, complex(-0.0, 1e-120)]
    s.reshape(-1)[np.linspace(0, s.size - 1, len(special)).astype(int)] = special
    net = snp.NetworkData(net.frequencies, s, net.z_ref)
    assert snp.write_touchstone(net, fmt) == reference_records(net, fmt)


# --- agreement with the reference loops ----------------------------------------


@pytest.mark.parametrize("fmt", ["ri", "ma", "db"])
@pytest.mark.parametrize("ports, nfreq", [(1, 7), (2, 7), (3, 5), (5, 4), (128, 6)])
def test_write_and_parse_match_reference(ports, nfreq, fmt):
    # 128 ports x 6 records is 24576 data lines
    net = oracle_network(ports, nfreq, seed=ports + len(fmt))
    new, ref = snp.write_touchstone(net, fmt), _reference_write(net, fmt)
    if fmt == "ri":
        assert new == ref
    else:
        assert_written_numbers_close(new, ref)
    assert_parsed_matches_reference(snp.parse_touchstone(ref, ports), _reference_parse(ref, ports), fmt)


def rewrap(text: str, rng: random.Random, newline: str) -> str:
    """The same header and tokens, with random values per line, comments, tabs and blank lines."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith(("!", "#"))]
    tokens = " ".join(line for line in lines if not line.startswith(("!", "#"))).split()
    out = list(header)
    pos = 0
    while pos < len(tokens):
        if rng.random() < 0.2:
            out.append(rng.choice(["! 1.0 2.0 # [Version] comment", "", " \t ", "!"]))
        n = rng.randint(1, 9)
        sep = lambda: rng.choice([" ", "\t", "   ", " \t "])
        line = rng.choice(["", " ", "\t"]) + "".join(tok + sep() for tok in tokens[pos : pos + n])
        if rng.random() < 0.3:
            line += "! trailing 9.9e9 ! x"
        out.append(line)
        pos += n
    return newline.join(out) + newline


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    ports=st.sampled_from([1, 2, 3, 5]),
    fmt=st.sampled_from(["ri", "ma", "db"]),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_any_layout_parses_like_canonical(seed, ports, fmt, newline):
    canonical = snp.write_touchstone(random_network(ports, nfreq=3, seed=seed), fmt)
    want = snp.parse_touchstone(canonical, ports)
    got = snp.parse_touchstone(rewrap(canonical, random.Random(seed), newline), ports)
    assert got.frequencies.tobytes() == want.frequencies.tobytes()
    assert got.s.tobytes() == want.s.tobytes()
    assert got.z_ref == want.z_ref


# --- error paths of the parser on large files -----------------------------------


def one_port_lines(nfreq: int) -> list[str]:
    """A 1-port RI file, one record per line, as a list of lines."""
    return ["# GHz S RI R 50"] + [f"{1 + 0.001 * k!r} 0.25 -0.5" for k in range(nfreq)]


def _bad_token_after_first_chunk():
    lines = one_port_lines(25_000)
    lines[21_234] = "21.234 0.25 0.5x"
    return lines, 1, "non-numeric data token '0.5x'"


def _bad_token_before_second_option_line():
    lines = one_port_lines(10)
    lines[3] = "1.002 bogus 0.0"
    return lines + ["# MHz S RI R 50"], 1, "non-numeric data token 'bogus'"


def _records_not_filled():
    text = snp.write_touchstone(random_network(128, nfreq=6, seed=4), "ri")
    return text.splitlines()[:-1], 128, "frequency record at 10000000000.0 has fewer than 32768 S values"


def _not_increasing():
    lines = one_port_lines(25_000)
    lines[20_101] = lines[20_100]
    f_hz = float(lines[20_100].split()[0]) * 1e9
    return lines, 1, f"frequencies not strictly increasing at {f_hz} Hz"


@pytest.mark.parametrize(
    "make", [_bad_token_after_first_chunk, _bad_token_before_second_option_line, _records_not_filled, _not_increasing]
)
def test_parse_errors_match_reference_and_exit_4(make, tmp_path, capsys):
    lines, ports, message = make()
    text = "\n".join(lines) + "\n"
    with pytest.raises(snp.TouchstoneError) as new:
        snp.parse_touchstone(text, ports)
    with pytest.raises(snp.TouchstoneError) as ref:
        _reference_parse(text, ports)
    assert str(new.value) == str(ref.value) == message
    src = tmp_path / f"bad.s{ports}p"
    src.write_text(text)
    with pytest.raises(snp.TouchstoneError) as from_file:
        snp.read_touchstone(src)
    assert str(from_file.value) == message
    assert cli.main(["convert", str(src), str(tmp_path / f"out.s{ports}p")]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "make", [_bad_token_after_first_chunk, _bad_token_before_second_option_line, _records_not_filled, _not_increasing]
)
def test_parse_errors_exit_4_through_metrics_snp(make, tmp_path, capsys):
    lines, ports, message = make()
    src = tmp_path / f"bad.s{ports}p"
    src.write_text("\n".join(lines) + "\n")
    # one element single-pol for the 1-port files, an 8 x 8 rectangle dual-pol for the 128-port one
    last = 0 if ports == 1 else 7
    rect = {"shape": "rectangle", "n1": [0, last], "n2": [0, last]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lattice": {"kind": "square", "lambda_h_mm": 15.0, "aperture": rect},
        "excitation": {"taper": {"kind": "uniform"}},
        "sweep": {"scans": ["broadside"]},
    }))
    out = tmp_path / "o"
    assert cli.main(["metrics", "--config", str(cfg), "--out", str(out), "--snp", str(src)]) == 4
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_noise_section_after_first_chunk_matches_reference():
    net = random_network(2, nfreq=20_500, seed=8)
    text = snp.write_touchstone(net, "ma") + "! noise parameters\n1.5 2.3 0.5 10.0 0.2\n2.5 2.4 0.6 11.0 0.3\n"
    with pytest.warns(UserWarning, match="noise"):
        got = snp.parse_touchstone(text, 2)
    with pytest.warns(UserWarning, match="noise"):
        want = _reference_parse(text, 2)
    assert_parsed_matches_reference(got, want, "ma")
    assert got.frequencies.size == net.frequencies.size


def test_noise_section_read_from_file_matches_string(tmp_path):
    net = random_network(2, nfreq=20_500, seed=9)
    path = tmp_path / "noisy.s2p"
    path.write_text(snp.write_touchstone(net, "db") + "! noise parameters\n1.5 2.3 0.5 10.0 0.2\n")
    with pytest.warns(UserWarning, match="noise"):
        from_file = snp.read_touchstone(path)
    with pytest.warns(UserWarning, match="noise"):
        from_text = snp.parse_touchstone(path.read_text(), 2)
    assert from_file.frequencies.tobytes() == from_text.frequencies.tobytes()
    assert from_file.s.tobytes() == from_text.s.tobytes()


# --- streamed reading and writing ------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "# GHz S RI R 50\n1.0 0.5 0.0 ! note\x0c2.0 0.25 0.0\n3.0 0.125 0.0\n",
        "# GHz S RI R 50\n1.0 0.5 0.0 ! note\x0b2.0 0.25 0.0\n3.0 0.125 0.0\n",
        "# GHz S RI R 50\r1.0 0.5 0.0 ! note\r2.0 0.25 0.0\r3.0 0.125 0.0\r",
        "# GHz S RI R 50\r\n1.0 0.5 0.0 ! note\r\n2.0 0.25 0.0\r\n3.0 0.125 0.0\r\n",
    ],
    ids=["ff_in_comment", "vt_in_comment", "lone_cr", "crlf"],
)
def test_string_splits_lines_as_a_file_does(text, tmp_path):
    path = tmp_path / "net.s1p"
    path.write_bytes(text.encode())
    from_file, from_text = snp.read_touchstone(path), snp.parse_touchstone(text, 1)
    assert from_text.frequencies.tobytes() == from_file.frequencies.tobytes()
    assert from_text.s.tobytes() == from_file.s.tobytes()


@pytest.mark.parametrize("fmt", ["ri", "ma", "db"])
@pytest.mark.parametrize("ports", [1, 2, 3, 5, 128])
def test_parse_from_open_file_equals_string(ports, fmt, tmp_path):
    text = snp.write_touchstone(oracle_network(ports, nfreq=4, seed=ports), fmt)
    want = snp.parse_touchstone(text, ports)
    path = tmp_path / f"net.s{ports}p"
    path.write_text(text)
    for got in (snp.read_touchstone(path), snp.parse_touchstone(text, ports), snp.parse_touchstone(iter(text.splitlines()), ports)):
        assert got.frequencies.tobytes() == want.frequencies.tobytes()
        assert got.s.tobytes() == want.s.tobytes()
        assert got.z_ref == want.z_ref


def test_clean_input_never_reaches_the_token_path(tmp_path, monkeypatch):
    # 40 records of 3 ports, a comment on every data line: several 4096-character batches
    text = snp.write_touchstone(oracle_network(3, nfreq=40, seed=5), "ri")
    lines = [line if line[:1] in "!#" else line + " ! row" for line in text.splitlines()]
    want = snp.parse_touchstone(lines, 3)
    assert want.frequencies.size == 40

    def token_path(tokens):
        raise AssertionError(f"read token by token: {tokens}")

    monkeypatch.setattr(snp, "_leading_numbers", token_path)
    got = [snp.parse_touchstone(form, 3) for form in ("\n".join(lines), lines, [line + "\n" for line in lines])]
    for newline in ("\n", "\r\n"):
        path = tmp_path / "clean.s3p"
        path.write_bytes("".join(line + newline for line in lines).encode())
        for opened in (None, "", "\n"):
            with open(path, newline=opened) as fh:
                got.append(snp.parse_touchstone(fh, 3))
    for net in got:
        assert net.frequencies.tobytes() == want.frequencies.tobytes()
        assert net.s.tobytes() == want.s.tobytes()


@pytest.mark.parametrize("fmt", ["ri", "ma", "db"])
@pytest.mark.parametrize("ports", [1, 2, 3, 38])
def test_records_join_to_text_and_convert_writes_it(ports, fmt, tmp_path):
    net = oracle_network(ports, nfreq=5, seed=ports + 3)
    text = snp.write_touchstone(net, fmt)
    records = list(snp.touchstone_records(net, fmt))
    assert "".join(records) == text
    assert len(records) == 1 + 5 and all(r.endswith("\n") for r in records)
    src, dst = tmp_path / f"in.s{ports}p", tmp_path / f"out.s{ports}p"
    src.write_text(text)
    assert cli.main(["convert", str(src), str(dst), "--format", fmt]) == 0
    assert dst.read_bytes() == snp.write_touchstone(snp.read_touchstone(src), fmt).encode()


def test_records_reject_a_bad_format_before_any_file_is_opened():
    with pytest.raises(snp.TouchstoneError, match="format"):
        snp.touchstone_records(random_network(1), "xy")  # not a lazy error at the first item


def _convert_peak_records(tmp_path, ports, nfreq, seed):
    """Peak traced bytes of `convert` from each format to DB, in units of one record's values."""
    net = random_network(ports, nfreq=nfreq, seed=seed)
    record = (1 + 2 * ports * ports) * 8  # one record's values
    peaks = {}
    for fmt in ("ri", "ma", "db"):
        src, dst = tmp_path / f"in.s{ports}p", tmp_path / f"out.s{ports}p"
        src.write_text(snp.write_touchstone(net, fmt))
        # each record is read, then formatted (columns, Python floats, text) and written, before the next
        tracemalloc.start()
        try:
            assert cli.main(["convert", str(src), str(dst), "--format", "db"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[fmt] = peak / record
    return peaks


def test_streamed_convert_peak_memory_is_a_few_records(tmp_path):
    peaks = _convert_peak_records(tmp_path, 32, 24, seed=6)
    for fmt, peak in peaks.items():
        assert peak <= 20, f"{fmt}: peak {peak:.1f} records, S is 24 records"


def test_read_and_convert_peak_memory_is_bounded_by_s(tmp_path):
    # about 4.0 MB of text for 1.6 MB of S; the streamed convert holds a few records, not S
    peaks = _convert_peak_records(tmp_path, 64, 24, seed=5)
    for fmt, peak in peaks.items():
        assert peak <= 20, f"{fmt}: peak {peak:.1f} records, S is 24 records"


def test_metrics_snp_read_peak_memory_is_the_probed_rows_and_a_few_records(tmp_path):
    ports, nfreq = 64, 24
    net = random_network(ports, nfreq=nfreq, seed=7)
    record = (1 + 2 * ports * ports) * 8
    read = [21, 53]  # an element's x and y ports, as metrics keeps them
    rows = nfreq * len(read) * ports * 16
    for fmt in ("ri", "ma", "db"):
        src = tmp_path / f"in.s{ports}p"
        src.write_text(snp.write_touchstone(net, fmt))
        tracemalloc.start()
        try:
            freqs, kept = cli._read_rows(src, ports, read)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert freqs.tobytes() == net.frequencies.tobytes() and kept.shape == (nfreq, 2, ports)
        # the kept rows grow in place, by up to half their size at a time; S would be 24 records
        assert peak <= 1.5 * rows + 4 * record, f"{fmt}: peak {peak / record:.1f} records, rows {rows / record:.1f}"


NOISE = "! noise parameters\n1.5 2.3 0.5 10.0 0.2\n2.5 2.4 0.6 11.0 0.3\n"


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    ports=st.sampled_from([1, 2, 3, 5]),
    fmt=st.sampled_from(["ri", "ma", "db"]),
    noise=st.booleans(),
)
@example(seed=3, ports=2, fmt="ma", noise=True)
def test_streamed_records_stack_to_the_reference_parse(seed, ports, fmt, noise):
    noise = noise and ports == 2
    text = snp.write_touchstone(oracle_network(ports, nfreq=4, seed=seed), fmt) + (NOISE if noise else "")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = snp.read_records(text, ports)
        header = next(records)
        got = [(f_hz, s.copy()) for f_hz, s in records]
        stacked = snp.parse_touchstone(text, ports)
        want = _reference_parse(text, ports)
    # one noise warning each from the stream, the stack and the reference
    warned = ["ignoring trailing noise-parameter data in 2-port file"] * (3 if noise else 0)
    assert [str(w.message) for w in caught] == warned
    assert header == (ports, want.z_ref)
    assert all(type(f_hz) is float and s.shape == (ports, ports) for f_hz, s in got)
    streamed = snp.NetworkData(np.array([f for f, _ in got]), np.stack([s for _, s in got]), header[1])
    assert_parsed_matches_reference(streamed, want, fmt)
    assert stacked.frequencies.tobytes() == streamed.frequencies.tobytes()
    assert stacked.s.tobytes() == streamed.s.tobytes()


def test_records_are_checked_as_they_arrive():
    # a fault in the third record: the first two records come out before it is reported
    lines = ["# GHz S RI R 50", "1.0 0.5 0.0", "2.0 0.25 0.0", "3.0 nan 0.0", "4.0 bogus 0.0"]
    records = snp.read_records(lines, 1)
    assert next(records) == (1, 50.0)
    assert [f for f, _ in itertools.islice(records, 2)] == [1e9, 2e9]
    with pytest.raises(snp.NetworkError, match="non-finite"):
        next(records)
    # a non-finite entry anywhere in a record fails it, whichever rows a caller keeps
    with pytest.raises(snp.NetworkError, match="non-finite"):
        snp.parse_touchstone("# GHz S RI R 50\n1.0 0.1 0 0.2 0 0.3 0 0.4 inf\n", 2)
    with pytest.raises(snp.NetworkError, match="positive"):
        snp.parse_touchstone("# GHz S RI R 50\n0.0 0.1 0\n", 1)
    for text in ("nan 0.1 0\n2.0 0.1 0\n", "1.0 0.1 0\ninf 0.1 0\n", "1e300 0.1 0\n"):
        with pytest.raises(snp.NetworkError, match="not finite in Hz"):
            snp.parse_touchstone("# GHz S RI R 50\n" + text, 1)
    with pytest.raises(snp.NetworkError, match="z_ref"):
        next(snp.read_records("# GHz S RI R -50\n1.0 0.1 0\n", 1))
    with pytest.raises(snp.TouchstoneError, match="no frequency records"):
        snp.parse_touchstone("# GHz S RI R 50\n! nothing\n", 1)


@pytest.mark.parametrize("z_text, written", [("50", "50"), ("75.123456789012", "75.123456789012")])
def test_z_ref_survives_read_write_read(z_text, written, tmp_path):
    text = f"# GHz S RI R {z_text}\n1.0 0.1 0.2\n"
    net = snp.parse_touchstone(text, 1)
    assert snp.write_touchstone(net).splitlines()[1] == f"# Hz S RI R {written}"
    assert snp.parse_touchstone(snp.write_touchstone(net), 1).z_ref == net.z_ref == float(z_text)
    src, dst = tmp_path / "in.s1p", tmp_path / "out.s1p"
    src.write_text(text)
    assert cli.main(["convert", str(src), str(dst), "--format", "ma"]) == 0
    assert snp.read_touchstone(dst).z_ref == float(z_text)


def test_infinite_z_ref_is_rejected(tmp_path, capsys):
    text = "# GHz S RI R inf\n1.0 0.1 0.2\n"
    with pytest.raises(snp.NetworkError, match="z_ref must be finite, got inf"):
        snp.parse_touchstone(text, 1)
    with pytest.raises(snp.NetworkError, match="z_ref must be finite, got inf"):
        snp.NetworkData([1e9], np.zeros((1, 1, 1), complex), z_ref=math.inf)
    src, dst = tmp_path / "in.s1p", tmp_path / "out.s1p"
    src.write_text(text)
    assert cli.main(["convert", str(src), str(dst)]) == 4
    assert "z_ref must be finite, got inf" in capsys.readouterr().err
    assert not dst.exists()


@pytest.mark.parametrize("z_ref, msg", [(math.inf, "finite"), (-5.0, "positive"), (0.0, "positive"), (math.nan, "positive")])
def test_written_z_ref_is_checked_before_any_text(z_ref, msg):
    # a caller's own record stream: "R inf" or "R -5" in the header would make a file that read_records rejects
    items = snp.touchstone_records(iter([(1, z_ref), (1e9, np.zeros((1, 1)))]))
    with pytest.raises(snp.NetworkError, match=f"z_ref must be {msg}"):
        next(items)


def test_touchstone_port_count_checks_the_file_size(tmp_path):
    path = tmp_path / "x.s3p"
    path.write_text("#\n1 " + " ".join(["0"] * 18))  # the shortest 3-port file: 19 values in 39 bytes
    assert snp.touchstone_port_count(path) == 3
    assert snp.read_touchstone(path).s.shape == (1, 3, 3)
    path.write_text("#\n1 0 0\n")
    with pytest.raises(snp.TouchstoneError, match=f"{path}: 8 bytes cannot hold one 3-port record"):
        snp.touchstone_port_count(path)
    with pytest.raises(snp.TouchstoneError, match="cannot infer port count"):
        snp.touchstone_port_count(tmp_path / "x.txt")


# --- block reading against line-by-line reading ------------------------------------

# tokens that float() reads (underscores, Unicode digits, inf/nan, overflow) or rejects; '#' and '[' inside a token
EDGE_TOKENS = ["1_0", "1__0", "١٢", "１.５", "inf", "-Infinity", "nan", "1e400", "-0", "+.5e+3",
               "0x10", "1e", ".", "bogus", "1#2", "[1]"]
SEPARATORS = [" ", "  ", "\t", " \x0c ", "\x0b", "\x1f", "\u2028", "\xa0", "\r"]
COMMENT_TEXT = st.text(alphabet="ab 12.e#[!\t\r\x0c\x0b\x85", max_size=12)


@st.composite
def touchstone_texts(draw) -> tuple[str, int]:
    """A v1 file with LF line ends and lone CRs: drawn tokens, comments and stray keyword lines, laid out at random."""
    ports = draw(st.sampled_from([1, 2, 3]))
    fmt = draw(st.sampled_from(["RI", "MA", "DB"]))
    templates = st.sampled_from(["%r", "%.3e", "%g", "%+.6f"])
    value = st.builds(lambda template, v: template % v, templates, st.floats(-2, 2))
    tokens = []
    for k in range(draw(st.integers(0, 4))):
        tokens += [f"{1.0 + k:g}"] + [draw(value) for _ in range(2 * ports * ports)]
    if ports == 2 and draw(st.booleans()):  # a noise section: its frequency restarts below the S data
        tokens += ["0.5", "2.3", "0.5", "10.0", "0.2", "0.75", "2.4", "0.6", "11", "0.3"]
    for _ in range(draw(st.integers(0, 2))):
        if tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(EDGE_TOKENS + ["0.5", "1"]))
    lines = ["! drawn file", f"# GHz S {fmt} R 50"]
    if draw(st.integers(0, 19)) == 0:  # data before the option line
        lines.insert(0, "1 2 3")
    at = 0
    while at < len(tokens):
        roll = draw(st.integers(0, 19))
        if roll == 0:
            lines.append(draw(st.sampled_from(["# MHz S RI R 50", "[Version] 2.0", " \t[Number of Ports] 2"])))
        elif roll <= 3:
            lines.append(draw(st.sampled_from(["", " \t", "!"])) + "! " + draw(COMMENT_TEXT))
        take = len(tokens) - at if roll == 19 else draw(st.integers(1, 9))  # sometimes all that is left on one line
        line = draw(st.sampled_from(["", " ", "\t"]))
        line += "".join(tok + draw(st.sampled_from(SEPARATORS)) for tok in tokens[at : at + take])
        if draw(st.booleans()):
            line += "! " + draw(COMMENT_TEXT)
        lines.append(line)
        at += take
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n! last\n"])), ports


def read_outcome(lines, ports):
    """Every item ``read_records`` yields, bit for bit, then the exception it raises, and the warnings."""
    items = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for item in snp.read_records(lines, ports):
                items.append(item if not items else (type(item[0]), repr(item[0]), item[1].shape, item[1].tobytes()))
        except (snp.TouchstoneError, snp.NetworkError) as exc:
            items.append((type(exc), str(exc)))
    return items, [str(w.message) for w in caught]


@settings(max_examples=300, deadline=None)
@given(
    drawn=touchstone_texts(),
    block=st.integers(1, 64),
    newline=st.sampled_from(["\n", "\r\n"]),
    opened=st.sampled_from([None, "", "\n"]),
)
def test_block_reading_matches_line_by_line_reading(drawn, block, newline, opened):
    text, ports = drawn
    # a lone CR ends a line read with universal newlines (opened with None or ""), not one opened with "\n"
    universal_lines, lf_lines = text.replace("\r", "\n").split("\n"), text.split("\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snp, "_batch_values", lambda batch: None)  # the reference: every line read token by token
        universal = read_outcome(iter(universal_lines), ports)
        lf_only = read_outcome(iter(lf_lines), ports)
    raw = text.replace("\n", newline)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(snp, "_BLOCK_CHARS", block)
        path = Path(tmp) / f"drawn.s{ports}p"
        path.write_bytes(raw.encode("utf-8"))
        with open(path, encoding="utf-8", newline=opened) as fh:
            assert read_outcome(fh, ports) == (lf_only if opened == "\n" else universal)
        assert read_outcome(raw, ports) == universal
        # lists of lines without line ends, as the reference reads them, and with them
        for lines, want in ((universal_lines, universal), (lf_lines, lf_only)):
            assert read_outcome(lines, ports) == want
            assert read_outcome([line + newline for line in lines], ports) == want


# --- NetworkData validation ---------------------------------------------------


def test_network_data_validation():
    with pytest.raises(snp.NetworkError):
        snp.NetworkData([2e9, 1e9], np.zeros((2, 1, 1), complex))
    with pytest.raises(snp.NetworkError):
        snp.NetworkData([0.0], np.zeros((1, 1, 1), complex))
    with pytest.raises(snp.NetworkError):
        snp.NetworkData([1e9], np.zeros((1, 2, 3), complex))
    with pytest.raises(snp.NetworkError):
        snp.NetworkData([1e9], np.zeros((1, 1, 1), complex), z_ref=0.0)
    with pytest.raises(snp.NetworkError):
        snp.NetworkData([1e9], np.full((1, 1, 1), np.nan, complex))
    with pytest.raises(snp.NetworkError, match="finite"):
        snp.NetworkData([np.nan, 2e9], np.zeros((2, 1, 1), complex))


# --- termination -------------------------------------------------------------


def test_terminate_matched_equals_submatrix():
    net = random_network(4, seed=3)
    out = snp.terminate_port(net, 2, 0.0)
    keep = [0, 1, 3]
    np.testing.assert_array_equal(out.s, net.s[np.ix_(range(4), keep, keep)])


def test_terminate_open_symmetric_two_port():
    s = 0.3 - 0.4j
    mats = np.array([[[0, s], [s, 0]]], dtype=complex)
    net = snp.NetworkData([1e9], mats, 50.0)
    out = snp.terminate_port(net, 1, 1.0)
    assert out.port_count == 1
    assert out.s[0, 0, 0] == pytest.approx(s * s, abs=1e-12)


def test_terminate_all_but_one_diagonal():
    diag = np.diag([0.1 + 0.2j, 0.3, -0.5j]).reshape(1, 3, 3)
    net = snp.NetworkData([1e9], diag, 50.0)
    out = snp.terminate_port(snp.terminate_port(net, 2, 0.7 - 0.1j), 1, -0.4)
    assert out.s[0, 0, 0] == pytest.approx(0.1 + 0.2j, abs=1e-15)


def test_terminate_preserves_reciprocity():
    rng = np.random.default_rng(11)
    s = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    s = 0.3 * (s + s.transpose(0, 2, 1))
    net = snp.NetworkData(np.linspace(1e9, 3e9, 3), s, 50.0)
    out = snp.terminate_port(net, 1, 0.6 + 0.2j)
    np.testing.assert_allclose(out.s, out.s.transpose(0, 2, 1), atol=1e-12)


def test_terminate_singular_load_raises_with_context():
    mats = np.array([[[1.0 + 0j]], [[0.5 + 0j]]], dtype=complex).reshape(2, 1, 1)
    s = np.zeros((2, 2, 2), complex)
    s[:, 0, 0] = [1.0, 0.5]
    net = snp.NetworkData([1e9, 2e9], s, 50.0)
    with pytest.raises(snp.NetworkError, match="1e\\+09"):
        snp.terminate_port(net, 0, 1.0)


def test_terminate_bad_port_index():
    net = random_network(2)
    with pytest.raises(snp.NetworkError):
        snp.terminate_port(net, 5, 0.0)


# --- port maps -----------------------------------------------------------------


def test_port_map_lexicographic():
    pm = snp.PortMap.lexicographic([(1, 0), (0, 0)])
    assert pm.entries == (
        ((0, 0), "x"),
        ((1, 0), "x"),
        ((0, 0), "y"),
        ((1, 0), "y"),
    )
    assert pm.port_of((1, 0), "y") == 3


def test_port_map_lookup_matches_entry_order():
    pm = snp.PortMap((((2, 1), "Y"), ((0, 0), "x"), ((np.int64(2), 1), "x"), ((0, 0), "y")))
    assert [pm.port_of(e, p) for e, p in pm.entries] == list(range(len(pm)))
    assert pm.port_of((np.int32(2), 1), "X") == 2
    with pytest.raises(snp.NetworkError, match="no port for element"):
        pm.port_of((1, 1), "x")
    same = snp.PortMap(pm.entries)
    assert same == pm and hash(same) == hash(pm)
    assert repr(pm) == f"PortMap(entries={pm.entries!r})"


def test_port_map_rejects_duplicates_and_bad_pol():
    with pytest.raises(snp.NetworkError):
        snp.PortMap((((0, 0), "x"), ((0, 0), "x")))
    with pytest.raises(snp.NetworkError):
        snp.PortMap((((0, 0), "v"),))
