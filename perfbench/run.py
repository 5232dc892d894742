"""arraykit benchmark: whole CLI runs, checked outputs, per-layer traced timings.

    python3 perfbench/run.py --workload hex2_scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/selftest.py

Paths are resolved from this file, so it runs from any directory. The
program is imported from ``src/`` of the same tree; without it the benchmark
exits 2 before measuring anything. Workloads, inputs and the reason for
each are in ``workloads.py``; ``predictions.json`` says which end-to-end
metric each per-layer metric should move.

``--trace 0`` runs the workload's commands as separate ``python3 -m
arraykit.cli`` processes, one after another, repeating the whole sequence
as often as it fits in ``--seconds`` of command time (at least once). It
reports, as medians over those repetitions:

- ``pipeline_s``: wall time of the whole command sequence;
- ``<command>_s``: wall time of each command (``transform``, ``metrics``,
  ``lattice``, ``pattern``, ``convert``, where the workload runs it);
- ``peak_rss_mb``: the largest child max-RSS among the commands;
- ``setup_s``: wall time of ``arraykit --version`` (interpreter start plus
  ``import arraykit.cli``), the median of launches made before the first
  pipeline and after each one.

``--trace 1`` runs the sequence once untraced and once under
``tracer.py`` and reports per-layer self times and counts, plus
``trace.overhead_s`` (traced minus untraced pipeline; noise can make it
negative). Every output is checked by ``checks.py``, which shares no code
with the program; later repetitions and the traced run must reproduce the
first pipeline's files byte for byte. A command that exits non-zero or fails
a check counts as failed, and ``fail_ratio`` is failed over attempted.

All timings and printed details go to standard output, never into a CLI
``--out`` directory. The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics listed in
BENCHMARK.json for the chosen trace mode). Inputs, outputs and span files
live in ``.perfbench_work/`` and are deleted after the run; a results JSON
per run, with the environment record, is kept in ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# setup_s launches: some before the first pipeline, a pair after each one, so
# they sample the machine's speed over the whole run
SETUP_LAUNCHES_FIRST = 4
SETUP_LAUNCHES_BETWEEN = 2
# end-to-end metrics in the result line; the per-command times are printed only,
# because one short process swings too much on a shared machine to gate on
GATED = (("pipeline_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (metric, span name, what): "self" = summed self time, "calls" = span count,
# any other key is summed from the span's recorded attributes.
PER_LAYER = (
    ("snp.write_touchstone_s", "snp.write_touchstone", "self", "s"),
    ("snp.write_bytes", "snp.write_touchstone", "bytes", "B"),
    ("snp.parse_touchstone_s", "snp.parse_touchstone", "self", "s"),
    ("snp.parse_values", "snp.parse_touchstone", "values", "count"),
    ("snp.port_of_calls", None, "snp.port_of_calls", "count"),
    ("spectral.assemble_s", "spectral.assemble_finite_smatrix", "self", "s"),
    ("spectral.smatrix_bytes", "spectral.assemble_finite_smatrix", "bytes", "B"),
    ("spectral.csv_rows_s", "spectral.csv_rows", "self", "s"),
    ("spectral.csv_rows", "spectral.csv_rows", "rows", "count"),
    ("spectral.gamma_to_coupling_s", "spectral.gamma_to_coupling", "self", "s"),
    ("spectral.gamma_to_coupling_calls", "spectral.gamma_to_coupling", "calls", "count"),
    ("synthmodel.sample_grid_s", "synthmodel.sample_grid", "self", "s"),
    ("synthmodel.sample_grid_calls", "synthmodel.sample_grid", "calls", "count"),
    ("excitation.build_plan_s", "excitation.build_plan", "self", "s"),
    ("excitation.build_plan_calls", "excitation.build_plan", "calls", "count"),
    ("metrics.sweep_s", "metrics.sweep", "self", "s"),
    ("metrics.sweep_calls", "metrics.sweep", "calls", "count"),
    ("metrics.excite_flops", "metrics.sweep", "flops", "flop"),
    ("metrics.table_rows_s", "metrics.table_rows", "self", "s"),
    ("metrics.array_factor_pattern_s", "metrics.array_factor_pattern", "self", "s"),
    ("lattice.grating_lobe_onset_s", "lattice.grating_lobe_onset", "self", "s"),
    ("lattice.grating_lobe_onset_calls", "lattice.grating_lobe_onset", "calls", "count"),
    ("cli.write_lines_s", "cli.write_lines", "self", "s"),
    ("cli.bytes_written", "cli.write_lines", "bytes", "B"),
    ("cli.self_s", "cli.main", "self", "s"),
)


# --- processes ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Starts CLI processes through ``perfbench/launcher.py`` (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # the launcher exits at end of input, once its current child (killed
        # at the run deadline at the latest) has ended
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], deadline: float, stderr_path: Path, capture: bool = False):
        """Run one process to completion: (wall s, max RSS MB, exit code, stdout).

        The process is killed at ``deadline`` (a perf_counter value) so that a
        hung command cannot outlive the run.
        """
        req = {
            "argv": argv, "cwd": str(ROOT), "env": child_env(), "stderr": str(stderr_path),
            "timeout": deadline - time.perf_counter(), "capture": capture,
        }
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        r = json.loads(reply)
        return r["wall"], r["maxrss_kb"] / 1024.0, r["rc"], r["stdout"]


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "arraykit.cli", *args]


def traced_argv(spans: Path, args: tuple[str, ...]) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--", *args]


# --- output checks ----------------------------------------------------------------


def verify(name: str, info: dict, out: Path) -> dict[str, list[str]]:
    """Failure messages per command kind, from checks that share no program code."""
    cfg = info["cfg"]
    fails: dict[str, list[str]] = {}
    if name == "measured_io":
        if "network" not in info:
            info["network"] = checks.read_touchstone(info["snp"], workloads.port_count(cfg))
        freqs, s = info["network"]
        fails["metrics"] = checks.check_metrics(out, cfg, freqs, s)
        fails["convert"] = checks.check_convert(workloads.converted(info, out), freqs, s)
        return fails
    if name == "hex2_scan":
        fails["lattice"] = checks.check_lattice(out, cfg)
        fails["pattern"] = checks.check_pattern(out, cfg)
    fails["transform"], grids = checks.check_transform(out, cfg, gamma=name == "hex2_scan")
    if fails["transform"]:
        fails["metrics"] = ["not checked: the transform outputs it depends on are wrong"]
    else:
        dense = checks.DenseFromCoupling(grids, cfg)
        fails["metrics"] = checks.check_metrics(out, cfg, checks.sweep_freqs(cfg), dense)
    return fails


class Run:
    """One benchmark run of one workload: inputs, processes, checks, tallies."""

    def __init__(self, name: str, seed: int, launcher: Launcher):
        self.name, self.seed, self.launcher = name, seed, launcher
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        self.reference: dict | None = None  # output digests of the first pipeline, per command
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __enter__(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        t0 = time.perf_counter()
        self.info = workloads.generate(self.name, self.seed, self.work / "inputs")
        self.generate_s = time.perf_counter() - t0
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def _record(self, what: str, rc: int, problems: list[str]) -> bool:
        self.attempted += 1
        if rc != 0:
            err = (self.work / "stderr.txt").read_text().strip().splitlines()
            problems = [f"exit code {rc}: {err[-1] if err else ''}"] + problems
        self.failures += [f"{what}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems

    def setup_samples(self, n: int, warm_up: bool) -> list[float]:
        """Wall times of ``n`` launches of ``arraykit --version``.

        The warm-up launch fills the bytecode and file caches and is not kept.
        """
        samples = []
        for _ in range(n + warm_up):
            wall, _, rc, out = self.launcher.run(cli_argv(("--version",)), self.deadline, self.work / "stderr.txt", capture=True)
            problems = [] if out.startswith("arraykit ") else [f"unexpected --version output {out!r}"]
            self._record("--version", rc, problems)
            samples.append(wall)
        return samples[warm_up:]

    def pipeline(self, out_name: str, spans_dir: Path | None = None) -> dict:
        """Run the workload's commands once, then check every output.

        The first pipeline of a run goes through the full checks; later ones
        (and the traced one) must reproduce its output files byte for byte.
        """
        out = self.work / out_name
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        walls, rss, codes, written = {}, {}, {}, {}
        for k, cmd in enumerate(workloads.commands(self.name, self.info, out)):
            argv = cli_argv(cmd.argv) if spans_dir is None else traced_argv(spans_dir / f"{k}-{cmd.kind}.json", cmd.argv)
            before = set(out.iterdir())
            walls[cmd.kind], rss[cmd.kind], codes[cmd.kind], _ = self.launcher.run(argv, self.deadline, self.work / "stderr.txt")
            written[cmd.kind] = {p.name: digest(p) for p in set(out.iterdir()) - before}
            if codes[cmd.kind] != 0:
                self._record(cmd.kind, codes[cmd.kind], [])
                codes[cmd.kind] = None
        if self.reference is None:
            try:
                problems = verify(self.name, self.info, out)
            except Exception as exc:  # a check that breaks on odd output still reports a failure
                problems = {kind: [f"check raised {exc!r}"] for kind in codes}
            self.reference = written
        else:
            problems = {
                kind: [f"{name} differs from the first pipeline's output" for name in set(files) | set(self.reference.get(kind, {}))
                       if files.get(name) != self.reference.get(kind, {}).get(name)]
                for kind, files in written.items()
            }
        for kind, rc in codes.items():
            if rc is not None:
                self._record(kind, rc, problems.get(kind, []))
        shutil.rmtree(out, ignore_errors=True)
        return {"walls": walls, "rss": rss, "pipeline_s": sum(walls.values())}


def digest(path: Path) -> str:
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


# --- statistics -----------------------------------------------------------------


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    p = int(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    return p, float(np.percentile(samples, p))


def describe(name: str, samples: list[float], unit: str) -> str:
    med = statistics.median(samples)
    t = tail(samples)
    pct = f"p{t[0]}={t[1]:.6g}" if t else "no percentile with >=10 samples beyond it"
    return f"{name:<22} {med:>12.6g} {unit:<5} median of n={len(samples)}; {pct}"


# --- measurement modes ------------------------------------------------------------


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup = run.setup_samples(SETUP_LAUNCHES_FIRST, warm_up=True)
    iters = []
    measured = 0.0
    while True:
        it_start = time.perf_counter()
        iters.append(run.pipeline("out"))
        measured += iters[-1]["pipeline_s"]
        setup += run.setup_samples(SETUP_LAUNCHES_BETWEEN, warm_up=False)
        # stop before a repetition that would overrun --seconds, so a run's
        # length does not swing by a whole pipeline with the machine's speed
        typical = statistics.median(it["pipeline_s"] for it in iters)
        now = time.perf_counter()
        if measured + typical > seconds or now + (now - it_start) > run.deadline:
            break
    samples = {"pipeline_s": [it["pipeline_s"] for it in iters]}
    for kind in iters[0]["walls"]:
        samples[f"{kind}_s"] = [it["walls"][kind] for it in iters]
    samples["peak_rss_mb"] = [max(it["rss"].values()) for it in iters]
    samples["setup_s"] = setup
    lines = [describe(k, v, "MB" if k.endswith("_mb") else "s") for k, v in samples.items()]
    lines.append(f"{'fail_ratio':<22} {run.failed}/{run.attempted} commands failed")
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in GATED}
    return {"metrics": metrics, "samples": samples}, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    run.setup_samples(0, warm_up=True)
    plain = run.pipeline("out")
    spans_dir = run.work / "spans"
    spans_dir.mkdir()
    traced = run.pipeline("out_traced", spans_dir)
    totals = {m: 0.0 for m, *_ in PER_LAYER}
    residuals = {}
    for path in sorted(spans_dir.glob("*.json")):
        data = json.loads(path.read_text())
        spans = data["spans"]
        own = self_times(spans)
        root = next(s for s in spans if s[1] is None)
        residuals[path.stem] = sum(own.values()) - (root[4] - root[3])
        for metric, span_name, what, _ in PER_LAYER:
            if span_name is None:
                totals[metric] += data["counts"].get(what, 0)
                continue
            for s in spans:
                if s[2] != span_name:
                    continue
                totals[metric] += own[s[0]] if what == "self" else 1 if what == "calls" else s[5].get(what, 0)
    metrics = {m: {"value": totals[m], "unit": u} for m, _, _, u in PER_LAYER}
    metrics["trace.overhead_s"] = {"value": traced["pipeline_s"] - plain["pipeline_s"], "unit": "s"}
    lines = [f"{m:<34} {v['value']:>14.6g} {v['unit']}" for m, v in metrics.items()]
    lines.append(f"untraced pipeline {plain['pipeline_s']:.4f} s, traced {traced['pipeline_s']:.4f} s")
    return {"metrics": metrics, "self_time_residual_s": residuals, "plain": plain, "traced": traced}, lines


# --- environment ------------------------------------------------------------------


def environment(name: str) -> dict:
    sha = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:  # not the sha of an enclosing repository
            sha = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "arraykit").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in text.splitlines():
            key, _, val = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = val.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "caches": caches,
        "dense_s_bytes": workloads.WORKLOADS[name].dense_s_bytes,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    with Run(name, seed, launcher) as run:
        result, lines = per_layer(run) if trace else end_to_end(run, seconds)
    env = environment(name)
    print(f"== {name} seed={seed} trace={int(trace)}  inputs generated in {run.generate_s:.2f} s")
    print(f"   env: {json.dumps(env)}")
    for line in lines:
        print("   " + line)
    for failure in run.failures:
        print("   FAILED " + failure)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, **result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1, default=float))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "arraykit" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'arraykit'}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    with Launcher() as launcher:
        records = [run_one(n, args.seed, args.seconds, bool(args.trace), launcher) for n in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
