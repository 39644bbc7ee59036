"""Runs ``clasp`` CLI calls in forked children of a pre-imported interpreter.

Started by ``run.py`` as ``python3 bench/forkserver.py`` with ``src/`` on
``PYTHONPATH``. It imports ``clasp.cli`` once, then reads one JSON request
per line on standard input::

    {"argv": [...], "env": {...}, "log": "path", "timeout": seconds}

and for each forks a child that runs ``clasp.cli.main(argv)`` with its
output appended to ``log``. It answers with one JSON line::

    {"wall_s": ..., "maxrss_kb": ..., "code": ...}

``wall_s`` runs from the fork to the reaping of the child, and
``maxrss_kb`` is the child's own peak RSS from ``wait4``. Interpreter
start and imports are thus left out of every stage; the benchmark's
``setup_s`` measures them separately. A child still running after
``timeout`` seconds is killed by its own alarm. End of input stops the
server.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

import clasp.cli


def _child(req: dict) -> int:
    fd = os.open(req["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.alarm(max(1, int(req["timeout"])))
    os.environ.update(req["env"])
    try:
        code = clasp.cli.main(req["argv"])
    except BaseException:
        traceback.print_exc()
        code = 70
    sys.stdout.flush()
    sys.stderr.flush()
    return code


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            os._exit(_child(req))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status),
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
