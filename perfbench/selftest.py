"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that inputs depend on the seed alone, that every output check
rejects a one-value corruption of its file, and that span self times add
up to each traced command's wall time. The program runs on shrunken
configs here, so the whole file takes well under a minute. Exits 1 if any
test fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run
import tracer
import workloads

WORK = run.WORK / "selftest"


def small_config(name: str, seed: int) -> tuple[dict, int]:
    """The workload's config cut down to a few ports and frequencies."""
    cfg = workloads.make_config(name, seed)
    lat = cfg["lattice"]
    if name == "measured_io":
        lat["aperture"] = {"shape": "rectangle", "n1": [0, 1], "n2": [0, 2]}
        return cfg, 6
    lat["aperture"]["rings"] = 1
    cfg["sweep"]["freq_ghz"] = {"start": 3, "stop": 20, "points": 6}
    if name == "hex2_scan":
        cfg["sweep"]["theta_deg"] = [0.0, 30.0, 30.0]  # a repeated scan is valid input
        cfg["sweep"]["phi_deg"] = [0.0, 45.0]
        cfg["pattern"]["theta_step_deg"] = 1.0
    return cfg, 0


def run_small(launcher: run.Launcher, name: str, seed: int = 3) -> tuple[dict, Path]:
    """Generate shrunken inputs and run the workload's commands untraced."""
    work = WORK / name
    cfg, points = small_config(name, seed)
    info = workloads.write_inputs(name, cfg, seed, work / "inputs", points or 171)
    out = work / "out"
    out.mkdir(parents=True)
    for cmd in workloads.commands(name, info, out):
        _, _, rc, _ = launcher.run(run.cli_argv(cmd.argv), time.perf_counter() + 120, work / "stderr.txt")
        assert rc == 0, f"{name} {cmd.kind} exited {rc}: {(work / 'stderr.txt').read_text()}"
    return info, out


def corrupt(path: Path, pick, column: int) -> None:
    """Add 0.01 to one number: field ``column`` of the first data line ``pick`` accepts."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line and line[0] not in "#!" and pick(line))
    sep = "," if "," in lines[i] else None
    cells = lines[i].split(sep)
    key, eq, value = cells[column].rpartition("=")
    cells[column] = key + eq + repr(float(value) + 0.01)
    lines[i] = (sep or " ").join(cells)
    path.write_text("\n".join(lines) + "\n")


def middle(path: Path):
    """Predicate for the middle data line of ``path``."""
    lines = [l for l in path.read_text().splitlines() if l and l[0] not in "#!" and not l.startswith(("freq", " "))]
    target = lines[len(lines) // 2]
    return lambda line: line == target


def coupling_row(line: str) -> bool:
    """A coupling row at index (0, 1), which every aperture of two or more elements uses."""
    cells = line.split(",")
    return len(cells) == 5 and cells[1:3] == ["0", "1"]


# (workload, command that wrote the file, file name, line predicate factory, column)
CORRUPTIONS = (
    ("hex2_scan", "lattice", "lattice_report.txt", lambda p: (lambda l: "theta_deg=30" in l), 1),
    ("hex2_scan", "transform", "gamma_yy.csv", middle, 4),
    ("hex2_scan", "transform", "coupling_xy.csv", lambda p: coupling_row, 3),
    ("hex2_scan", "transform", "finite_array.s14p", middle, 2),
    ("hex2_scan", "metrics", "vswr.csv", middle, 4),
    ("hex2_scan", "metrics", "gain.csv", middle, 3),
    ("hex2_scan", "metrics", "coupling.csv", lambda p: (lambda l: l.split(",")[1] == "T30P45"), 3),
    ("hex2_scan", "pattern", "pattern.csv", lambda p: (lambda l: l.split(",")[2:3] == ["0"]), 3),
    ("hex5_dense", "transform", "coupling_yx.csv", lambda p: coupling_row, 4),
    ("hex5_dense", "transform", "finite_array.s14p", middle, 1),
    ("hex5_dense", "metrics", "gain.csv", middle, 3),
    ("measured_io", "metrics", "vswr.csv", middle, 5),
    ("measured_io", "convert", "converted.s12p", middle, 2),
)


def test_benchmark_json_names_the_reported_metrics(launcher):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.GATED)
    reported = [(m, unit) for m, _, _, unit in run.PER_LAYER] + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == reported
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_inputs_depend_on_seed_only(launcher):
    for name in workloads.WORKLOADS:
        files = []
        for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
            info = workloads.generate(name, seed, WORK / f"seed-{name}-{tag}")
            files.append({p.name: p.read_bytes() for p in info["config"].parent.iterdir()})
        assert files[0] == files[1], f"{name}: same seed gave different inputs"
        assert all(files[0][k] != files[2][k] for k in files[0]), f"{name}: another seed left an input unchanged"


def test_checks_reject_one_value_corruptions(launcher):
    outputs = {name: run_small(launcher, name) for name in workloads.WORKLOADS}
    for name, (info, out) in outputs.items():
        fails = run.verify(name, info, out)
        assert not any(fails.values()), f"{name}: clean outputs failed: {fails}"
    for name, kind, fname, make_pick, column in CORRUPTIONS:
        info, out = outputs[name]
        path = out / fname
        saved = path.read_bytes()
        corrupt(path, make_pick(path), column)
        fails = run.verify(name, info, out)
        path.write_bytes(saved)
        assert fails[kind], f"{name}: corrupting {fname} went unnoticed by the {kind} check"


def test_self_times_add_up_to_wall_time(launcher):
    spans = [
        [0, None, "cli.main", 0.0, 10.0, {}],
        [1, 0, "a", 1.0, 4.0, {}],
        [2, 1, "b", 2.0, 3.0, {}],
        [3, 0, "t1", 5.0, 8.0, {}],  # two worker threads overlapping
        [4, 0, "t2", 6.0, 9.0, {}],
    ]
    assert tracer.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 3.0}

    info, out = run_small(launcher, "hex5_dense")
    shutil.rmtree(out)
    out.mkdir()
    threaded = workloads.commands("hex5_dense", info, out)
    for k, cmd in enumerate(threaded):
        spans_path = WORK / f"spans-{k}.json"
        _, _, rc, _ = launcher.run(run.traced_argv(spans_path, cmd.argv), time.perf_counter() + 120, WORK / "stderr.txt")
        assert rc == 0, (WORK / "stderr.txt").read_text()
        spans = json.loads(spans_path.read_text())["spans"]
        root = next(s for s in spans if s[1] is None)
        total = sum(tracer.self_times(spans).values())
        assert abs(total - (root[4] - root[3])) < 1e-9, f"{cmd.kind}: self times sum to {total}, wall {root[4] - root[3]}"
        assert len(spans) > 1, f"{cmd.kind}: no layer spans recorded"


def main() -> int:
    failed = 0
    with run.Launcher() as launcher:
        for name, fn in [(k, v) for k, v in globals().items() if k.startswith("test_")]:
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            try:
                fn(launcher)
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            finally:
                shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
