"""The parallel experiment runner: job parsing, ordering, fallback."""

import os
from concurrent.futures import Future

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    JOBS_ENV,
    configured_jobs,
    parallel_map,
    resolve_jobs,
)


def _square(x):
    return x * x


def _addmul(a, b, c=1):
    return (a + b) * c


class TestConfiguredJobs:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert configured_jobs() == 1

    def test_empty_string_means_serial(self):
        assert configured_jobs("") == 1
        assert configured_jobs("  ") == 1

    def test_explicit_integer(self):
        assert configured_jobs("4") == 4

    def test_auto_and_zero_use_cpu_count(self):
        n = os.cpu_count() or 1
        assert configured_jobs("auto") == n
        assert configured_jobs("0") == n

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            configured_jobs("many")
        with pytest.raises(ValueError):
            configured_jobs("-2")

    def test_reads_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert configured_jobs() == 3


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestExplicitJobs:
    """An explicit ``jobs``/``--jobs`` follows the ``REPRO_JOBS`` rule:
    0 means one worker per CPU, a negative count is an error."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
        _RecordingPool.sizes = []

    def test_jobs_zero_fans_out_like_env_zero(self, two_cpus):
        assert resolve_jobs(0) == configured_jobs("0") == 2
        assert parallel_map(_square, [(i,) for i in range(4)], jobs=0) == [
            0, 1, 4, 9,
        ]
        assert _RecordingPool.sizes == [2]

    def test_negative_jobs_raise(self, two_cpus):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            parallel_map(_square, [(1,), (2,)], jobs=-3)
        assert _RecordingPool.sizes == []

    def test_cli_jobs_zero_resolves_like_env_zero(self, two_cpus):
        from repro.experiments.cli import experiment_parser, parse_experiment_args

        args = parse_experiment_args(experiment_parser("t"), ["--jobs", "0"])
        assert args.jobs == configured_jobs("0") == 2

    def test_cli_rejects_negative_jobs_with_usage_error(self, capsys):
        from repro.experiments.figure2 import main

        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "-1"])
        assert exc.value.code == 2
        assert "jobs must be >= 0, got -1" in capsys.readouterr().err


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_square, [(i,) for i in range(10)], jobs=1) == [
            i * i for i in range(10)
        ]

    def test_parallel_results_ordered_by_submission_not_completion(self):
        args = [(i,) for i in range(20)]
        assert parallel_map(_square, args, jobs=2) == [i * i for i in range(20)]

    def test_parallel_matches_serial_exactly(self):
        args = [(i, 10 - i, 2) for i in range(10)]
        serial = parallel_map(_addmul, args, jobs=1)
        parallel = parallel_map(_addmul, args, jobs=2)
        assert parallel == serial

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_jobs_clamped_to_item_count(self):
        # jobs=8 with one item must not spin up a pointless pool
        assert parallel_map(_square, [(3,)], jobs=8) == [9]

    def test_unpicklable_fn_would_fail_loud_in_parallel(self):
        # lambdas can't cross a process boundary; serial path accepts them
        assert parallel_map(lambda x: x + 1, [(1,), (2,)], jobs=1) == [2, 3]
