"""``scipy_backend._muted_stdout``: fd 1 is process-wide, so overlapping
cold solves (``--pool thread``) must share one redirection.

Each test points ``sys.stdout`` at fd 1 in its own body: pytest installs
its capture object again when the call phase starts, so a fixture's
patch would be gone and muting would redirect pytest's fd instead."""

import os
import sys
import threading

from arrays import matrix_model
from repro.lp import scipy_backend


def identity(fd):
    stat = os.fstat(fd)
    return stat.st_dev, stat.st_ino


def test_overlapping_mutes_restore_the_real_stdout(monkeypatch):
    # A enters, B enters, A leaves, B leaves.  Unshared, B saved A's sink
    # as "the real stdout" and restored *that*, leaving fd 1 on the sink
    # for the rest of the process.
    with open(1, "w", closefd=False) as stdout:
        monkeypatch.setattr("sys.stdout", stdout)
        real = identity(1)
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with scipy_backend._muted_stdout():
                seen["a"] = identity(1)
                a_in.set()
                assert b_in.wait(10.0)
            a_out.set()

        def second():
            assert a_in.wait(10.0)
            with scipy_backend._muted_stdout():
                b_in.set()
                assert a_out.wait(10.0)
                # Still muted while any solve is inside.
                seen["b"] = identity(1)

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert seen["a"] != real and seen["b"] == seen["a"]
        assert identity(1) == real


def test_many_threads_muting_at_once_leave_stdout_where_it_was(monkeypatch):
    with open(1, "w", closefd=False) as stdout:
        monkeypatch.setattr("sys.stdout", stdout)
        real = identity(1)

        def churn():
            for _ in range(200):
                with scipy_backend._muted_stdout():
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert scipy_backend._mute_depth == 0
        assert identity(1) == real


def test_a_solve_leaves_stdout_where_it_was(monkeypatch):
    with open(1, "w", closefd=False) as stdout:
        monkeypatch.setattr("sys.stdout", stdout)
        real = identity(1)
        assert matrix_model([1.0], ub=4.0, maximize=True).solve().objective == 4.0
        assert identity(1) == real


def test_a_cold_grid_solve_writes_nothing_to_fd1(monkeypatch, capfd):
    # HiGHS's MIP solver writes a note straight to fd 1 on this cell even
    # with output_flag off; the mute is what keeps it off stdout.
    from repro.api import GoalSpec, JobSpec, NetworkSpec
    from repro.api.compiler import compile_spec
    from repro.core import build_model

    spec = JobSpec(
        name="job",
        input_gb=8.0,
        goal=GoalSpec(deadline_hours=4.0),
        network=NetworkSpec(uplink_mbit_s=16.0),
        catalog="public",
    )
    compiled = build_model(compile_spec(spec)).model.compile()
    with open(1, "w", closefd=False) as stdout:
        monkeypatch.setattr("sys.stdout", stdout)
        solution = scipy_backend.solve(compiled, 30.0)
    assert solution.status.has_solution
    assert capfd.readouterr().out == ""
