"""Multi-core fan-out for independent experiment replicas.

Every experiment in this repository is a *merge over independent
replicas*: a (function × mode × age × seed) cell of Figure 2/4, one
(network × run) cell of Figure 3, one quality run of Q1.  Replicas share
no state — each builds its own :class:`~repro.cluster.machine.Machine`,
seeds its own RNG streams and returns plain data — so they are
embarrassingly parallel across cores, exactly like the independent-
replica simulations in Lubachevsky's parallel asynchronous-cellular-array
work the ROADMAP cites.

Determinism contract
--------------------
:func:`parallel_map` preserves *submission order*: results are merged by
configuration key (the order the caller enumerated the jobs), never by
completion order, and every replica derives its randomness from explicit
seeds in its arguments.  A run with ``REPRO_JOBS=8`` therefore produces
bit-identical tables and figures to a serial run — the parallelism is
observable only in wall-clock time.

Knobs
-----
``REPRO_JOBS``
    Worker-process count.  Unset or ``1`` → serial in-process execution
    (no pool, no pickling); ``0`` or ``auto`` → one worker per CPU;
    any other integer → that many workers.
``jobs=`` argument
    Per-call override of the environment knob, read by the same rule:
    ``0`` → one worker per CPU, a negative count is a ``ValueError``.

The pool is created lazily per call and falls back to serial execution
when process pools are unavailable (restricted sandboxes, missing
semaphore support), so callers never have to special-case platforms.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

#: environment variable naming the worker count
JOBS_ENV = "REPRO_JOBS"


def configured_jobs(env: str | None = None) -> int:
    """Worker count from ``REPRO_JOBS`` (see module docstring)."""
    raw = os.environ.get(JOBS_ENV) if env is None else env
    if raw is None or raw.strip() == "":
        return 1
    raw = raw.strip().lower()
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV}={raw!r}; expected an integer, 'auto', or unset"
        ) from None
    return _workers(n, JOBS_ENV)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count for an explicit ``jobs``, else from ``REPRO_JOBS``."""
    return configured_jobs() if jobs is None else _workers(jobs, "jobs")


def _workers(n: int, source: str) -> int:
    if n < 0:
        raise ValueError(f"{source} must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def parallel_map(
    fn: Callable[..., T],
    argtuples: Iterable[Sequence[Any]],
    jobs: int | None = None,
) -> list[T]:
    """``[fn(*args) for args in argtuples]`` across worker processes.

    Results come back in input order — the configuration-key order the
    caller enumerated — regardless of which replica finishes first.  With
    one job (the default without ``REPRO_JOBS``), runs serially in-process
    with zero overhead.  ``fn`` and every argument must be picklable
    (module-level functions and plain dataclasses).

    A replica that raises propagates its exception to the caller, exactly
    as the serial loop would (earlier-keyed replicas' results are simply
    discarded); pool *creation* failures degrade to the serial path.
    """
    argslist = [tuple(a) for a in argtuples]
    n = min(resolve_jobs(jobs), len(argslist))
    if n <= 1:
        return [fn(*args) for args in argslist]
    try:
        executor = ProcessPoolExecutor(max_workers=n)
    except (OSError, NotImplementedError, PermissionError):
        # No usable process pool on this platform — run serially.
        return [fn(*args) for args in argslist]
    try:
        futures = [executor.submit(fn, *args) for args in argslist]
        return [f.result() for f in futures]
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
