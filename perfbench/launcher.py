"""Starts the benchmark's child processes from a small interpreter.

On Linux a child's max RSS starts from the high-water mark of the process
that forked it, so children forked by the benchmark itself (which holds
numpy and the reference arrays) would all report the benchmark's size.
This process stays small: it reads one JSON request per line on stdin,
runs that command to completion and answers one JSON line with the
child's exit code, wall time, CPU time and max RSS.  With ``"ready": true``
it also reports the time until the child prints its ``ready`` line.
"""

import json
import os
import subprocess
import sys
import time


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        ready_s = None
        t0 = time.perf_counter()
        with open(req["stderr"], "w") as err:
            proc = subprocess.Popen(
                req["cmd"], stdin=subprocess.DEVNULL, stderr=err,
                stdout=subprocess.PIPE if req["ready"] else subprocess.DEVNULL,
                text=True)
            if req["ready"]:
                if proc.stdout.readline().strip() == "ready":
                    ready_s = time.perf_counter() - t0
                proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({
            "rc": proc.returncode, "wall": time.perf_counter() - t0,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
            "ready_s": ready_s}) + "\n")
        replies.flush()


class Launcher:
    """Client side: one launcher process, one child at a time."""

    def __init__(self, cwd, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], cwd=cwd, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list, stderr_path, ready: bool = False) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "stderr": str(stderr_path),
                                          "ready": ready}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited unexpectedly")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
