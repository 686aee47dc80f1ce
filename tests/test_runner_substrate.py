"""Tests for the shared worker-pool substrate (spawn/env/watchdog).

The load-bearing case is the watchdog kill/clean-exit race: a worker
that exits cleanly between the deadline sweep's liveness check and the
SIGKILL must keep its own outcome — ``watchdog_killed`` stays False —
instead of being misclassified TIMEOUT (the PR 4 bug set the flag
before confirming the kill).  Its twin is the kill/reap race: a reaper
that sees the SIGKILLed worker exit before the watchdog thread has set
the flag must still read True, so ``unwatch`` waits for the kill.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.runner.substrate import Watchdog, spawn_worker, worker_env


class StubPopen:
    """Scripted Popen: poll/kill/wait behavior injected per scenario.

    ``poll_sequence`` yields successive ``poll()`` results;
    ``wait_status`` is what ``wait()`` reports after a kill attempt;
    ``kill_raises`` simulates the exited-and-reaped window where
    ``os.kill`` raises ``ProcessLookupError`` (an ``OSError``).
    """

    def __init__(self, poll_sequence, wait_status=None, kill_raises=False):
        self._polls = list(poll_sequence)
        self._wait_status = wait_status
        self._kill_raises = kill_raises
        self.kill_calls = 0
        self.pid = 4242

    def poll(self):
        if len(self._polls) > 1:
            return self._polls.pop(0)
        return self._polls[0]

    def kill(self):
        self.kill_calls += 1
        if self._kill_raises:
            raise ProcessLookupError(3, "no such process")

    def wait(self, timeout=None):
        if self._wait_status is None:
            raise subprocess.TimeoutExpired(cmd="stub", timeout=timeout or 0)
        return self._wait_status


def sweep_one(proc) -> dict:
    """Register ``proc`` with an expired deadline and run one sweep."""
    dog = Watchdog()
    flags = {"watchdog_killed": False}
    dog.watch("job", proc, deadline=0.0, flags=flags)
    killed_keys = dog.sweep(now=1.0)
    assert killed_keys == ["job"]
    return flags


class TestWatchdogRace:
    def test_hung_worker_is_flagged(self):
        """Normal case: alive at sweep, SIGKILL lands, status is -9."""
        proc = StubPopen(poll_sequence=[None], wait_status=-signal.SIGKILL)
        flags = sweep_one(proc)
        assert proc.kill_calls == 1
        assert flags["watchdog_killed"] is True

    def test_clean_exit_before_sweep_not_flagged(self):
        """Worker already exited when the sweep looked: nothing to kill."""
        proc = StubPopen(poll_sequence=[0])
        flags = sweep_one(proc)
        assert proc.kill_calls == 0
        assert flags["watchdog_killed"] is False

    def test_clean_exit_racing_the_kill_not_flagged(self):
        """THE race: poll() says alive, worker exits before kill() lands.

        The wait status is the worker's own clean exit code; the old
        implementation set the flag before the kill and misclassified
        this finished job as TIMEOUT.
        """
        proc = StubPopen(poll_sequence=[None], wait_status=0)
        flags = sweep_one(proc)
        assert proc.kill_calls == 1
        assert flags["watchdog_killed"] is False

    def test_nonzero_exit_racing_the_kill_not_flagged(self):
        """A crash (own exit code) that raced the kill is a CRASH, not TIMEOUT."""
        proc = StubPopen(poll_sequence=[None], wait_status=77)
        flags = sweep_one(proc)
        assert flags["watchdog_killed"] is False

    def test_reaped_in_window_kill_raises_not_flagged(self):
        """kill() raising (already reaped) must not flag nor propagate."""
        proc = StubPopen(poll_sequence=[None], kill_raises=True)
        flags = sweep_one(proc)
        assert flags["watchdog_killed"] is False

    def test_unreapable_after_kill_is_flagged(self):
        """SIGKILL sent but wait() times out: SIGKILL is unblockable, so
        the process is dead-by-kill even if the reap stalls."""
        proc = StubPopen(poll_sequence=[None], wait_status=None)
        dog = Watchdog()
        dog.KILL_REAP_TIMEOUT_S = 0.01
        flags = {"watchdog_killed": False}
        dog.watch("job", proc, deadline=0.0, flags=flags)
        dog.sweep(now=1.0)
        assert flags["watchdog_killed"] is True

    def test_unexpired_worker_untouched(self):
        proc = StubPopen(poll_sequence=[None], wait_status=-signal.SIGKILL)
        dog = Watchdog()
        flags = {"watchdog_killed": False}
        dog.watch("job", proc, deadline=100.0, flags=flags)
        assert dog.sweep(now=1.0) == []
        assert proc.kill_calls == 0
        assert flags["watchdog_killed"] is False

    def test_unwatch_removes(self):
        proc = StubPopen(poll_sequence=[None], wait_status=-signal.SIGKILL)
        dog = Watchdog()
        dog.watch("job", proc, deadline=0.0, flags={})
        dog.unwatch("job")
        assert dog.sweep(now=1.0) == []

    def test_unwatch_waits_for_the_in_flight_kill(self):
        """A reaper that unwatches mid-kill reads the settled flag."""
        in_wait = threading.Event()
        release = threading.Event()

        class BlockingPopen(StubPopen):
            def wait(self, timeout=None):
                in_wait.set()
                release.wait()
                return -signal.SIGKILL

        proc = BlockingPopen(poll_sequence=[None])
        dog = Watchdog()
        flags = {"watchdog_killed": False}
        dog.watch("job", proc, deadline=0.0, flags=flags)
        seen = []

        def reap():
            dog.unwatch("job")
            seen.append(flags["watchdog_killed"])

        sweeper = threading.Thread(target=dog.sweep, args=(1.0,), daemon=True)
        reaper = threading.Thread(target=reap, daemon=True)
        sweeper.start()
        try:
            assert in_wait.wait(timeout=10)
            reaper.start()
            reaper.join(timeout=0.2)
            assert seen == []
        finally:
            release.set()
            sweeper.join(timeout=10)
        reaper.join(timeout=10)
        assert not sweeper.is_alive() and not reaper.is_alive()
        assert seen == [True]

    def test_concurrent_reapers_all_read_the_kill(self):
        """Many kills in one sweep, each reaped on its own thread."""

        class SlowKillPopen(StubPopen):
            def wait(self, timeout=None):
                time.sleep(0.001)
                return -signal.SIGKILL

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dog = Watchdog()
            flags = {key: {"watchdog_killed": False} for key in range(16)}
            for key, flag in flags.items():
                dog.watch(key, SlowKillPopen(poll_sequence=[None]),
                          deadline=0.0, flags=flag)
            seen = {}

            def reap(key):
                dog.unwatch(key)
                seen[key] = flags[key]["watchdog_killed"]

            sweeper = threading.Thread(target=dog.sweep, args=(1.0,),
                                       daemon=True)
            reapers = [threading.Thread(target=reap, args=(key,), daemon=True)
                       for key in flags]
            sweeper.start()
            for reaper in reapers:
                reaper.start()
            sweeper.join(timeout=30)
            for reaper in reapers:
                reaper.join(timeout=30)
            assert not sweeper.is_alive()
            assert not any(reaper.is_alive() for reaper in reapers)
        finally:
            sys.setswitchinterval(old_interval)
        # A reaper that unwatched before the sweep took its key sees
        # no kill at all; every other one must see the settled flag.
        for key, value in seen.items():
            assert value == flags[key]["watchdog_killed"]
        assert len(seen) == len(flags)


class TestWorkerEnv:
    def test_repro_on_pythonpath(self):
        import repro

        env = worker_env()
        root = str(
            os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        )
        assert root in env["PYTHONPATH"].split(os.pathsep)

    def test_extra_overrides(self):
        env = worker_env(extra={"REPRO_TEST_MARKER": "1"})
        assert env["REPRO_TEST_MARKER"] == "1"

    def test_idempotent(self):
        env1 = worker_env()
        os.environ["PYTHONPATH"] = env1["PYTHONPATH"]
        try:
            env2 = worker_env()
            assert env2["PYTHONPATH"] == env1["PYTHONPATH"]
        finally:
            os.environ.pop("PYTHONPATH", None)


@pytest.mark.parametrize("code", [0, 7])
def test_spawn_worker_runs_real_interpreter(tmp_path, code):
    log = open(tmp_path / "out.log", "w")
    try:
        proc = spawn_worker(
            ["-c", f"import sys; sys.exit({code})"],
            stdout=log, stderr=log,
        )
        assert proc.wait(timeout=30) == code
    finally:
        log.close()


def test_spawn_worker_uses_current_interpreter(tmp_path):
    out = tmp_path / "exe.txt"
    log = open(tmp_path / "log.txt", "w")
    try:
        proc = spawn_worker(
            ["-c",
             "import sys, pathlib; "
             f"pathlib.Path({str(out)!r}).write_text(sys.executable)"],
            stdout=log, stderr=log,
        )
        assert proc.wait(timeout=30) == 0
    finally:
        log.close()
    assert out.read_text() == sys.executable
