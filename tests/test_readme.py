"""README's library table names only what the package really has, and its full configuration runs."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

from arraykit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_table() -> dict[str, list[tuple[str, list[str]]]]:
    """Module -> [(listed name, backticked names in the parentheses after it)] from the table rows."""
    rows = {}
    for line in README.read_text().splitlines():
        m = re.match(r"\| `(arraykit\.\w+)` \| (.*) \|$", line)
        if not m:
            continue
        entries, depth = [], 0
        # backticked spans, parentheses outside them
        for tick, opening, closing in re.findall(r"`([^`]+)`|(\()|(\))", m.group(2)):
            if opening or closing:
                depth += 1 if opening else -1
            elif depth == 0:
                entries.append((tick.split("(")[0], []))
            elif entries:
                entries[-1][1].append(tick)
        rows[m.group(1)] = entries
    return rows


TABLE = library_table()


def test_table_lists_every_module():
    assert sorted(TABLE) == sorted(
        f"arraykit.{m}" for m in ("lattice", "snp", "spectral", "excitation", "synthmodel", "metrics", "constants", "cli")
    )


@pytest.mark.parametrize("module", sorted(TABLE))
def test_listed_names_and_members_exist(module):
    mod = importlib.import_module(module)
    for name, members in TABLE[module]:
        if module == "arraykit.cli" and name == "arraykit":
            # the command token; its parenthesised names are module functions
            assert all(hasattr(mod, m) for m in members), members
            continue
        assert hasattr(mod, name), f"{module}.{name}"
        obj = getattr(mod, name)
        if isinstance(obj, type):
            fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
            missing = [m for m in members if not (hasattr(obj, m) or m in fields)]
            assert not missing, f"{module}.{name} lacks {missing}"


def full_configuration() -> dict:
    block = re.search(r"A full configuration:\n\n```json\n(.*?)\n```", README.read_text(), re.S).group(1)
    return json.loads(block)


def test_full_configuration_runs_every_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(full_configuration()))
    out = tmp_path / "out"
    for argv in (["lattice"], ["transform", "--touchstone"], ["metrics"], ["pattern"]):
        assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 0, argv
    assert {"finite_array.s38p", "vswr.csv", "gain.csv", "coupling.csv", "pattern.csv"} <= {p.name for p in out.iterdir()}


def test_full_configuration_hash():
    # the SHA-256 of its canonical JSON, as every output's config_sha256 header line carries it
    assert cli._config_hash(full_configuration()) == "81d3f080075023df"
