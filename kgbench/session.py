"""The benchmark's Ray session and the processes it owns.

One local session with a fixed 2 logical CPUs: at 1 CPU the resumable
path's extract actor pool starves its own read tasks and the job hangs.
Ray's temp dir and object-store spill files stay under the work
directory, worker logs are not forwarded to the driver, and shutdown
waits until every process the session started has exited.
"""

from __future__ import annotations

import logging
import os
import signal
import tempfile
import threading
import time

NUM_CPUS = 2
OBJECT_STORE_BYTES = 768 << 20
# A unix socket path holds at most 107 bytes; Ray nests
# session_<date>_<pid>/sockets/plasma_store (~64 bytes) under its temp dir.
_MAX_TEMP_DIR_LEN = 40


def ray_temp_dir(work_dir: str) -> tuple[str, bool]:
    """(temp dir, whether the caller must remove it). Under the work dir
    when the socket paths fit, else a short fresh dir under /tmp."""
    path = os.path.join(work_dir, "ray")
    if len(path) <= _MAX_TEMP_DIR_LEN:
        return path, False
    return tempfile.mkdtemp(prefix="kgb-"), True


def start_ray(temp_dir: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp_dir)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray(timeout_s: float = 30.0) -> None:
    """ray.shutdown(), then wait until every descendant process has
    ended; SIGKILL whatever is left after ``timeout_s``."""
    import ray

    pids = descendants()
    ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while True:
        _reap()
        alive = [p for p in pids if _alive(p)]
        if not alive:
            return
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.05)


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stat(pid: int) -> tuple[str, int] | None:
    """(state, ppid) from /proc/<pid>/stat, None if the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    st = _stat(pid)
    return st is not None and st[0] != "Z"


def descendants(root: int | None = None) -> list[int]:
    """Every live process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(st[1], []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _is_worker(pid: int) -> bool:
    """Ray worker processes retitle themselves ``ray::<task or actor>``."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _hwm_mb(pid: int | str) -> float:
    """Peak resident set (VmHWM) of a process in MB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def _reset_hwm(pid: int | str) -> None:
    """Restart a process's VmHWM from its current RSS (Linux clear_refs 5)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # unsupported or gone: the peak then also covers set-up


class PeakRss:
    """Peak VmHWM of the driver and of any Ray worker while inside
    ``with``. Re-entrant: each entry resets the processes' peaks and
    samples on a thread, so workers that exit between samples (actor
    pools) still count; the maxima carry over between entries."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.driver_mb = 0.0
        self.worker_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> PeakRss:
        _reset_hwm("self")
        for p in descendants():
            _reset_hwm(p)
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def _sample(self) -> None:
        self.driver_mb = max(self.driver_mb, _hwm_mb("self"))
        for p in descendants():
            if _is_worker(p):
                self.worker_mb = max(self.worker_mb, _hwm_mb(p))
