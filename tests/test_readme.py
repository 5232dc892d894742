"""README's library table names only what the package really has."""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

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
