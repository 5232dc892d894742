"""Small long-lived process that starts the benchmark's CLI processes.

A child's max RSS as reported by ``wait4`` starts from the high-water mark
of the process that spawned it, so a benchmark that has just parsed large
outputs would lend its own peak to every later command. Spawning from this
process, which stays at a few MB, keeps each reading the child's own.

Protocol: one JSON request per line on stdin
``{"argv", "cwd", "env", "stderr", "timeout", "capture"}``; one JSON reply
per line on stdout ``{"wall", "maxrss_kb", "rc", "stdout"}``. The wall time
runs from just before the spawn to the return of ``wait4``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stderr"], "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"], stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if req["capture"] else subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(0.0, req["timeout"]), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = ""
        if req["capture"]:
            out = proc.stdout.read().decode(errors="replace")
            proc.stdout.close()
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode, "stdout": out}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
