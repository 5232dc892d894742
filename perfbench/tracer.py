"""In-process traced run of one CLI command, and span arithmetic.

Run as ``python3 perfbench/tracer.py SPANS.json -- <arraykit argv>`` with
``src`` on ``PYTHONPATH``. It wraps the program's public functions at the
names their callers look up (``metrics.build_plan``, not
``excitation.build_plan``), calls ``arraykit.cli.main(argv)`` under a root
span, keeps every span in memory and writes them out when the command ends.
Nothing inside ``src/arraykit`` is edited; the wrappers live only in this
process.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """Spans as [id, parent id, name, start, end, attrs]; counters by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            # threads started inside a command belong to the root span
            self._local.stack = [0]
        return self._local.stack

    def call(self, name: str, fn, args=(), kwargs=None, measure=None, root: bool = False):
        kwargs = kwargs or {}
        stack = self._stack()
        sid = 0 if root else next(self._ids)
        rec = [sid, None if root else stack[-1], name, time.perf_counter(), None, {}]
        self.spans.append(rec)
        if not root:
            stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            if not root:
                stack.pop()
        if measure is not None:
            rec[5] = measure(args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls without timing them: a span per call would skew its caller."""
        fn = getattr(owner, attr)
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary a CLI command crosses."""
    from arraykit import cli, lattice, metrics, snp, spectral, synthmodel

    def first(args, kwargs, key):
        return args[0] if args else kwargs[key]

    def net_values(args, kwargs, net):
        f, p, _ = net.s.shape
        return {"values": f * (1 + 2 * p * p)}

    def s_bytes(args, kwargs, net):
        return {"bytes": int(net.s.size) * 16}

    def rows(args, kwargs, result):
        return {"rows": len(result) - 1}

    def text_bytes(args, kwargs, text):
        return {"bytes": len(text)}  # Touchstone text is ASCII

    def file_bytes(args, kwargs, result):
        return {"bytes": Path(first(args, kwargs, "path")).stat().st_size}

    def sweep_flops(args, kwargs, result):
        f, p, _ = kwargs["net"].s.shape
        return {"flops": 8 * f * p * p * len(kwargs["scans"])}

    tracer.wrap(cli, "_write_lines", "cli.write_lines", file_bytes)
    tracer.wrap(lattice, "grating_lobe_onset", "lattice.grating_lobe_onset")
    tracer.wrap(synthmodel, "sample_grid", "synthmodel.sample_grid")
    tracer.wrap(spectral, "gamma_to_coupling", "spectral.gamma_to_coupling")
    tracer.wrap(spectral, "assemble_finite_smatrix", "spectral.assemble_finite_smatrix", s_bytes)
    tracer.wrap(spectral, "coupling_csv_rows", "spectral.csv_rows", rows)
    tracer.wrap(spectral, "gamma_csv_rows", "spectral.csv_rows", rows)
    tracer.wrap(snp, "write_touchstone", "snp.write_touchstone", text_bytes)
    tracer.wrap(snp, "parse_touchstone", "snp.parse_touchstone", net_values)
    tracer.count(snp.PortMap, "port_of", "snp.port_of_calls")
    tracer.wrap(metrics, "build_plan", "excitation.build_plan")
    tracer.wrap(metrics, "sweep", "metrics.sweep", sweep_flops)
    tracer.wrap(metrics, "array_factor_pattern", "metrics.array_factor_pattern")
    for table in ("vswr_table_rows", "gain_table_rows", "coupling_table_rows", "pattern_table_rows"):
        tracer.wrap(metrics, table, "metrics.table_rows")


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of each span: its duration minus the time its child spans cover.

    Time is cut at every span boundary and each piece goes to the active
    span that started last, so concurrent spans from worker threads are
    counted once and the self times of all spans add up to the root's wall
    time. For properly nested spans this is the usual duration-minus-children.
    """
    root = next(s for s in spans if s[1] is None)
    lo, hi = root[3], root[4]
    events = []
    for sid, _, _, start, end, _ in spans:
        start, end = max(start, lo), min(end, hi)
        if end > start or sid == root[0]:
            events.append((start, 1, sid, start))
            events.append((end, 0, sid, start))
    events.sort()
    out = {s[0]: 0.0 for s in spans}
    active: list[tuple[float, int]] = []
    ended: set[int] = set()
    prev = lo
    for t, is_start, sid, start in events:
        while active and -active[0][1] in ended:
            heapq.heappop(active)
        if active:
            out[-active[0][1]] += t - prev
        prev = t
        if is_start:
            heapq.heappush(active, (-start, -sid))
        else:
            ended.add(sid)
    return out


def main(argv: list[str]) -> int:
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <arraykit argv>")
    from arraykit import cli

    tracer = Tracer()
    instrument(tracer)
    try:
        rc = tracer.call("cli.main", cli.main, (cli_argv,), root=True)
    finally:
        tracer.dump(Path(spans_path))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
