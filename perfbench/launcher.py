"""Starts the benchmark's children and reports what each used.

Linux counts in a child's peak RSS the memory of the process that forked
it, so the benchmark, which holds parsed outputs, does not fork children
itself.  It starts this small process first, while its own memory is still
small, and sends it one JSON request per line on stdin:
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``.  For each request
this process runs the child to completion and answers with one JSON line:
wall seconds, exit code and peak RSS in MiB.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(request["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "code": proc.returncode, "rss_mib": usage.ru_maxrss / 1024.0}),
              flush=True)


if __name__ == "__main__":
    main()
