"""Reusable worker-pool substrate: spawn, environment, and watchdog.

The batch runner (:mod:`repro.runner.pool`) and the solve service
(:mod:`repro.service.server`) both run specs in fleets of
spawn-isolated worker interpreters, one spec per worker.  The pieces
they share live here, so there is exactly one implementation of each
invariant:

* :func:`worker_env` — the child environment with the ``repro`` package
  import path guaranteed, whatever way the parent was launched;
* :func:`spawn_worker` — ``subprocess.Popen`` with the standard
  settings (spawned fresh, never forked; stdin closed; no inherited
  file descriptors beyond the requested streams);
* :class:`Watchdog` — a dedicated thread that SIGKILLs registered
  workers past their wall-clock deadline.

Watchdog kill/exit race
-----------------------
A worker may exit *cleanly* between the watchdog's liveness check and
its ``kill()``.  Setting the ``watchdog_killed`` flag before confirming
the kill would misclassify such a worker — result file written, exit
code 0 — as TIMEOUT.  The substrate watchdog only sets the flag after
the kill demonstrably won the race: the process must still have been alive when ``kill()`` was
issued **and** its wait status must be the kill signal (or still
pending).  A clean exit code observed after the kill attempt means the
worker finished first and the flag stays unset, letting the reaper
classify the job from the worker's own result.

Watchdog kill/reap race
-----------------------
The kill runs on the watchdog thread, and the flag is only known once
its ``wait()`` returns.  A reaper on another thread can see the
SIGKILLed worker exit first.  :meth:`Watchdog.unwatch` therefore blocks
until any in-flight kill of that key has settled its flag; a reaper
that unwatches before it reads the flag always reads the final value.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def worker_env(extra: "Optional[Dict[str, str]]" = None) -> "Dict[str, str]":
    """Child environment with the repro package import path guaranteed.

    The orchestrator may have been launched with ``PYTHONPATH=src`` or
    from an installed package; either way the worker must find the
    *same* ``repro``.  ``extra`` entries override inherited ones.
    """
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    if extra:
        env.update(extra)
    return env


def spawn_worker(
    args: "Sequence[str]",
    *,
    stdout: "Any",
    stderr: "Any",
    env: "Optional[Dict[str, str]]" = None,
) -> "subprocess.Popen[Any]":
    """Spawn one worker interpreter with the standard pool settings.

    ``args`` is the argv *after* the interpreter (typically
    ``["-m", "repro.runner.worker", ...]``); the current interpreter is
    always used so parent and child agree on the environment.  The
    process is spawned fresh (never forked), so no solver state, locks
    or file descriptors leak across the isolation boundary.
    """
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=stdout,
        stderr=stderr,
        stdin=subprocess.DEVNULL,
        env=env if env is not None else worker_env(),
    )


class Watchdog(threading.Thread):
    """SIGKILLs registered workers past their wall-clock deadline.

    Runs independently of any dispatch loop on purpose: a stall in the
    orchestrator (slow journal fsync, a debugger, a GC pause) must not
    grant hung workers extra lifetime.  ``proc.kill()`` is SIGKILL on
    POSIX — not a polite signal a wedged worker could ignore.

    For each watched process the caller provides a mutable ``flags``
    dict; ``flags["watchdog_killed"]`` is set to True only when the
    kill *confirmably* terminated a still-running worker (see module
    docstring for the clean-exit race this guards against).  Call
    :meth:`unwatch` before reading the flag.
    """

    #: How long to wait for a killed process to be reapable before
    #: assuming the SIGKILL landed.  SIGKILL cannot be blocked, so a
    #: still-unreaped process this long after the signal is effectively
    #: dead-by-kill; treating it as such keeps the watchdog from
    #: hanging on a pathological scheduler stall.
    KILL_REAP_TIMEOUT_S = 5.0

    def __init__(self, interval_s: float = 0.05) -> None:
        super().__init__(name="pool-watchdog", daemon=True)
        self._interval_s = interval_s
        self._lock = threading.Lock()
        self._watched: "Dict[object, Tuple[subprocess.Popen[Any], float, Dict[str, bool]]]" = {}
        self._killing: "Dict[object, threading.Event]" = {}
        self._stop = threading.Event()

    def watch(self, key: object, proc: "subprocess.Popen[Any]",
              deadline: float, flags: "Dict[str, bool]") -> None:
        """Register ``proc`` to be killed once ``time.monotonic()`` > deadline."""
        with self._lock:
            self._watched[key] = (proc, deadline, flags)

    def unwatch(self, key: object) -> None:
        """Stop watching ``key``; returns once any kill of it has settled.

        An in-flight kill sets ``flags["watchdog_killed"]`` only after
        the killed process is reaped, so this waits for that before
        returning.
        """
        with self._lock:
            self._watched.pop(key, None)
            killing = self._killing.get(key)
        if killing is not None:
            killing.wait()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:  # pragma: no cover - timing-dependent thread body
        while not self._stop.wait(self._interval_s):
            self.sweep(time.monotonic())

    # The sweep body is a plain method (not inlined in ``run``) so the
    # kill/clean-exit race is unit-testable with a stubbed Popen,
    # without threads or real deadlines.
    def sweep(self, now: float) -> "List[object]":
        """Kill every watched process past its deadline; returns their keys."""
        with self._lock:
            expired = [
                (key, proc, flags)
                for key, (proc, deadline, flags) in self._watched.items()
                if now > deadline
            ]
            for key, _, _ in expired:
                del self._watched[key]
                self._killing[key] = threading.Event()
        try:
            for key, proc, flags in expired:
                self._kill_expired(proc, flags)
                self._settle([key])
        finally:
            # Never leave an unwatch() waiting on a kill that raised.
            self._settle([key for key, _, _ in expired])
        return [key for key, _, _ in expired]

    def _settle(self, keys: "Iterable[object]") -> None:
        """Release every unwatch() waiting on the kills of ``keys``."""
        with self._lock:
            settled = [self._killing.pop(key) for key in keys
                       if key in self._killing]
        for event in settled:
            event.set()

    def _kill_expired(self, proc: "subprocess.Popen[Any]",
                      flags: "Dict[str, bool]") -> None:
        """Kill one expired worker, setting the flag only on a won race.

        The worker may exit cleanly between the ``poll()`` liveness
        check and the ``kill()``; in that window ``kill()`` is a no-op
        (or targets a zombie) and the exit status is the worker's own.
        Classifying that as TIMEOUT would discard a finished job, so
        the flag is set only when the observed wait status is the kill
        signal itself — or still unobservable after the signal, which
        for an unblockable SIGKILL means the kill landed.
        """
        if proc.poll() is not None:
            # Already exited before the deadline sweep got here: not
            # our kill, nothing to flag.
            return
        try:
            proc.kill()
        except OSError:
            # Exited and was reaped in the race window; the exit
            # status is the worker's own.
            return
        try:
            status = proc.wait(timeout=self.KILL_REAP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # pragma: no cover - pathological
            status = None
        if status is None or status == -signal.SIGKILL:
            flags["watchdog_killed"] = True
        # Any other status (clean exit code, crash signal) means the
        # worker terminated on its own terms before the SIGKILL was
        # delivered: leave the flag unset so the reaper classifies the
        # job from the worker's actual outcome.
