"""Small launcher that forks every benchmark child and reports its cost.

Linux carries the peak RSS of a process across fork and exec, so a child
forked straight from the benchmark, which holds parsed outputs and mpmath,
would report at least the benchmark's own RSS.  This process imports almost
nothing, so its RSS stays below any Python child's.

Right before and right after every child it times PROBE_UNITS runs of a
fixed piece of pure-Python work: the host's speed around the child.  The host is
shared, and other tenants slow it by up to 1.8x for seconds to minutes.

Protocol, one JSON object per line: requests on stdin
{"argv": [...], "cwd": str, "env": {...}, "stderr": path, "timeout": s},
replies on stdout {"wall": s, "rss_kb": int, "status": int, "probe": [s, ...]}.
EOF on stdin ends the launcher.
"""

import json
import os
import signal
import sys
import time


PROBE_UNITS = 16
PROBE_FLOATS = 20_000  # about 1.1 ms per unit at full speed


def probe() -> list[float]:
    """Wall times of PROBE_UNITS runs of the same interpreter-bound work:
    build a list of floats and sort it.  Object allocation and comparisons
    slow under the neighbours' load much as rydlab's commands do; a pure
    integer loop or a memory walk matched them less well."""
    times = []
    for _ in range(PROBE_UNITS):
        start = time.perf_counter()
        sorted([i * 0.5 for i in range(PROBE_FLOATS)], reverse=True)
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    child = 0

    def expire(signum, frame):
        os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    for line in sys.stdin:
        request = json.loads(line)
        err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        before = probe()
        start = time.perf_counter()
        child = os.fork()
        if child == 0:
            try:
                null = os.open(os.devnull, os.O_RDWR)
                os.dup2(null, 0)
                os.dup2(null, 1)
                os.dup2(err, 2)
                os.chdir(request["cwd"])
                os.execve(request["argv"][0], request["argv"], request["env"])
            finally:
                os._exit(127)
        signal.alarm(int(request["timeout"]))
        _, status, usage = os.wait4(child, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        os.close(err)
        reply = {"wall": wall, "rss_kb": usage.ru_maxrss, "status": status,
                 "probe": before + probe()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
