"""Start the benchmark's CLI processes from a small process and time them.

On Linux a child's ru_maxrss also covers the memory its starter had
mapped when the child called exec, so processes started by the benchmark
itself, which holds numpy, the package and the oracle data, would report
the benchmark's size. This process imports only the standard library, so
the peak RSS that wait4 reports for its children is their own.

Protocol: one JSON request per line on stdin,
    {"cmd": [...], "stderr": PATH, "timeout": SECONDS}
and one JSON reply per line on stdout,
    {"code", "spawn", "end", "cpu_s", "rss_mb"}
with spawn and end from time.monotonic(). The loop ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "ab") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(req["cmd"], stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"code": code, "spawn": spawn, "end": end,
                                     "cpu_s": usage.ru_utime + usage.ru_stime,
                                     "rss_mb": usage.ru_maxrss / 1024.0}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
