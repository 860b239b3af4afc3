"""Runs CLI commands for run.py from a small process and reports wall time and max RSS.

Linux carries the spawning process's peak RSS into a vfork'd child's
``ru_maxrss`` at exec.  Spawned from run.py, which holds the oracle
tables and every record, a CLI child would report the benchmark's own
peak.  This process imports almost nothing, so the children it spawns
report their own.

Protocol: one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path}``; one JSON reply per
stdout line, ``{"rc": int, "seconds": float, "maxrss_kib": int}``.  The
command is ``sys.executable`` followed by argv, run in this process's
working directory and environment.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *request["argv"]],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "seconds": seconds, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
