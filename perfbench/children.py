"""Child processes: spawn, time, reap with resource usage, never leak."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Sequence

# A child that runs longer than this is killed, so one hung command cannot
# push a benchmark run past its time limit.
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Finished:
    seconds: float
    code: int
    out: bytes
    err: bytes
    peak_rss_kb: int


def child_env(root: str, cache_dir: str) -> dict[str, str]:
    """Environment for every child: the checkout's sources, compiled once.

    Bytecode goes to a cache inside the checkout, so the first child pays
    the compile and later ones start the way an installed tool does.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = cache_dir
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(cmd: Sequence[str], cwd: str, env: dict[str, str]) -> Finished:
    """Run ``cmd`` to completion; time it from spawn to reaping."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    reaped = False
    try:
        # stderr carries at most a diagnostic line, so reading stdout to
        # the end first cannot block on a full stderr pipe
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
        seconds = time.perf_counter() - start
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
        if not reaped:
            proc.kill()
            proc.wait()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Finished(seconds, code, out, err, usage.ru_maxrss)


def read_ready(cmd: Sequence[str], cwd: str, env: dict[str, str]) -> float:
    """Seconds from spawning ``cmd`` until it prints its first line.

    The child is then waited for; a child that exits without the line is
    an error.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up probe {list(cmd)} failed with exit code {proc.returncode}")
    return seconds
