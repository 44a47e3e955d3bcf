"""Fault-tolerant process-level parallelism of the scaled construction tier.

The DP-subtree-parallel insertion (the one flow stage that fans out;
routing is serial), the DSE sweep, and the benchmark flow cache all fan
work out over one shared process pool.  Spinning a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` per stage call would
dominate small runs (and the test suite under a ``workers>1`` matrix job),
so this module keeps one lazily created pool per process and reuses it
across calls; the pool grows when a caller asks for more workers than it
currently has and is torn down at interpreter exit.

``resolve_workers`` is the one resolution rule for the ``workers=`` knob:
explicit argument > ``CtsConfig.workers`` > ``REPRO_FLOW_WORKERS`` > 1 —
the same precedence shape every backend knob uses.
``resolve_parallel_policy`` applies the identical rule to the
fault-tolerance knob (:class:`ParallelPolicy`, env var
``REPRO_PARALLEL_POLICY``).

**Fault tolerance** (:func:`run_tasks`).  Because parallel construction is
bit-identical to serial by contract (``tests/test_parallel_construction.py``),
every worker failure is perfectly recoverable: the affected task can simply
be recomputed — first by retrying on the pool (crashes are often caused by
transient conditions: OOM kills, a recycled worker), finally by running the
same module-level worker function *inline* on the main process, which is the
serial flow by construction.  :func:`run_tasks` implements that ladder:

* per-task timeouts (``policy.timeout_s``) so a hung worker cannot stall
  the flow forever;
* bounded retries with exponential backoff (``policy.attempts``,
  ``policy.backoff_s``, ``policy.backoff_factor``);
* :class:`~concurrent.futures.process.BrokenProcessPool` detection with an
  automatic pool re-spawn between rounds (a pool that lost a worker — or
  whose workers are hung past their timeout — is never reused);
* a per-task ``validate`` hook run on the *main* process, so a worker that
  returns corrupt rows counts as a failed attempt rather than poisoning the
  merge;
* **degrade-to-serial** as the terminal fallback (``policy.mode ==
  "degrade"``): the task runs inline, the flow continues, and a
  :class:`ParallelDiagnostic` records stage, task, attempt count, and cause
  — mirroring the guard's :class:`~repro.guard.GuardDiagnostic`;
* ``policy.mode == "strict"`` raises a typed :class:`ParallelError`
  instead.  Like :class:`~repro.guard.GuardError`, a :class:`ParallelError`
  is **never caught at a call site** — it exists to stop the flow, and
  swallowing it would turn a deliberate fail-fast into silent data loss.

The worker-fault injectors that prove every branch of this ladder live in
:mod:`repro.guard.faults` (:class:`~repro.guard.faults.WorkerFault`), armed
programmatically or via the ``REPRO_PARALLEL_FAULTS`` environment variable
so a whole CI job can run with, say, every first attempt crashing.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import forkserver
from typing import Any, Callable, Sequence

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_FLOW_WORKERS"

#: Environment variable consulted when no explicit policy is given
#: (``"attempts=3,timeout_s=10,backoff_s=0.1,mode=strict"`` — any subset).
PARALLEL_POLICY_ENV_VAR = "REPRO_PARALLEL_POLICY"

#: Terminal behaviours after a task exhausts its attempts.
PARALLEL_MODES = ("degrade", "strict")

_POOL: ProcessPoolExecutor | None = None
_POOL_SIZE = 0
_EXIT_SWEEP_REGISTERED = False
#: True inside a pool worker, whose own run_tasks calls run inline.
_IN_POOL_WORKER = False


def _pool_workers(pool: ProcessPoolExecutor) -> list:
    return list((getattr(pool, "_processes", None) or {}).values())


def resolve_workers(*candidates: int | None) -> int:
    """Resolve the first non-None candidate, else the env var, else 1.

    An empty environment value counts as unset so CI matrix entries can
    pass ``REPRO_FLOW_WORKERS`` through unconditionally.  Anything that is
    not an integer of at least 1 — zero, negatives, floats, bools, an
    unparsable environment value — is rejected with a :class:`ValueError`
    rather than silently truncated: a worker count of ``2.7`` is a caller
    bug, not a request for 2 workers.
    """
    value: Any = next((c for c in candidates if c is not None), None)
    if value is None:
        env = (os.environ.get(WORKERS_ENV_VAR) or "").strip()
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"workers must be an integer of at least 1, got "
                f"{WORKERS_ENV_VAR}={env!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"workers must be an integer of at least 1, got {value!r}"
        )
    if value < 1:
        raise ValueError(f"workers must be an integer of at least 1, got {value}")
    return value


# ------------------------------------------------------------------- policy
@dataclass(frozen=True)
class ParallelPolicy:
    """The fault-tolerance knob of every pool consumer.

    Attributes:
        attempts: how many times a task may run on the pool before the
            terminal fallback (>= 1; ``1`` disables retries).
        timeout_s: per-task wall-clock budget on the pool; ``None`` (the
            default) waits forever.  The default stays ``None`` because the
            pool's task sizes span five orders of magnitude (a DP subtree
            to a full benchmark flow) — callers that know their task scale
            opt in via config or ``REPRO_PARALLEL_POLICY``.  The budget is
            measured from submission, so it also covers queue wait and
            worker spin-up — and a retry always lands on a freshly
            respawned pool whose forkserver workers import numpy and the
            task's module from scratch.  Choose it generously (seconds,
            not milliseconds), or a cold but healthy retry can itself
            "time out" straight into the terminal fallback.
        backoff_s: sleep before the second round of a task that failed;
            each further round multiplies it by :attr:`backoff_factor`.
        backoff_factor: exponential backoff base (>= 1).
        mode: terminal behaviour once attempts are exhausted —
            ``"degrade"`` recomputes the task inline on the main process
            (bit-identical by construction) and records a
            :class:`ParallelDiagnostic`; ``"strict"`` raises
            :class:`ParallelError`.
    """

    attempts: int = 2
    timeout_s: float | None = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    mode: str = "degrade"

    def __post_init__(self) -> None:
        if isinstance(self.attempts, bool) or not isinstance(self.attempts, int):
            raise ValueError(f"attempts must be an integer, got {self.attempts!r}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be at least 1, got {self.attempts}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be non-negative, got {self.backoff_s}")
        if self.backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be at least 1, got {self.backoff_factor}"
            )
        if self.mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {self.mode!r}; expected one of "
                f"{PARALLEL_MODES}"
            )

    @classmethod
    def parse(cls, spec: str) -> "ParallelPolicy":
        """Parse ``"attempts=3,timeout_s=10,mode=strict"`` (any subset).

        A bare mode name (``"strict"`` / ``"degrade"``) is accepted as
        shorthand; ``timeout_s=none`` clears the timeout.
        """
        kwargs: dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                if part in PARALLEL_MODES:
                    kwargs["mode"] = part
                    continue
                raise ValueError(
                    f"bad parallel-policy entry {part!r}; expected key=value "
                    f"or one of {PARALLEL_MODES}"
                )
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if key == "attempts":
                kwargs[key] = int(value)
            elif key == "timeout_s":
                kwargs[key] = None if value.lower() in ("", "none") else float(value)
            elif key in ("backoff_s", "backoff_factor"):
                kwargs[key] = float(value)
            elif key == "mode":
                kwargs[key] = value
            else:
                raise ValueError(f"unknown parallel-policy key {key!r}")
        return cls(**kwargs)

    def with_updates(self, **kwargs) -> "ParallelPolicy":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def resolve_parallel_policy(
    *candidates: "ParallelPolicy | str | None",
) -> ParallelPolicy:
    """First non-None candidate > ``REPRO_PARALLEL_POLICY`` > defaults.

    The same precedence rule as every backend knob; string candidates (and
    the environment value) go through :meth:`ParallelPolicy.parse`.
    """
    policy = next((c for c in candidates if c is not None), None)
    if policy is None:
        env = (os.environ.get(PARALLEL_POLICY_ENV_VAR) or "").strip()
        if not env:
            return ParallelPolicy()
        policy = env
    if isinstance(policy, str):
        return ParallelPolicy.parse(policy)
    return policy


# ---------------------------------------------------------------- diagnostics
class ParallelError(RuntimeError):
    """A pool task failed beyond recovery under the ``strict`` policy.

    Never catch this at a call site (the same rule as
    :class:`~repro.guard.GuardError`): ``strict`` exists to stop the flow,
    and recovery belongs to the ``degrade`` policy, not to ad-hoc handlers.
    """

    def __init__(self, stage: str, task: str, attempts: int, cause: str) -> None:
        self.stage = stage
        self.task = task
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"parallel {stage} task [{task}] failed after {attempts} "
            f"attempt(s): {cause}"
        )


@dataclass(frozen=True)
class ParallelDiagnostic:
    """One recovered pool-task failure, recorded on the flow result.

    Attributes:
        stage: pool consumer name (``"insertion"``, ``"dse"``,
            ``"flow_cache"``).
        task: human-readable task id (e.g. ``"subtree 3"``).
        attempts: pool attempts consumed when the action was taken.
        action: ``"retried"`` (a later pool attempt succeeded) or
            ``"degraded-to-serial"`` (the task was recomputed inline).
        cause: ``"ExcType: message"`` of the first failure.
    """

    stage: str
    task: str
    attempts: int
    action: str
    cause: str


# ---------------------------------------------------------------- shared pool
def _pool_context():
    """The multiprocessing start method used for the shared pool.

    ``fork`` is unsafe here: once pools are being torn down and respawned
    (exactly what the fault-tolerance ladder does), the parent process has
    live helper threads — executor queue feeders, management threads, BLAS
    pools — and a child forked while one of them holds a lock inherits that
    lock forever and deadlocks.  ``forkserver`` forks every worker from a
    thread-free server process instead, making respawn deadlock-free; the
    worker functions are all importable module-level callables, so pickling
    by reference (which forkserver requires) already holds.
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context()


def _kill_stray_workers() -> None:
    """SIGKILL every pool worker still alive when the interpreter exits.

    Interpreter exit joins pool workers twice, both times without a
    timeout: ``concurrent.futures`` joins every executor's management
    thread (which joins its workers), and ``multiprocessing.util``'s own
    atexit hook then joins every remaining child process.  A worker that
    deadlocked on a queue lock whose holder was killed mid-write — the
    fault injectors make that race easy to hit, a real OOM kill hits it
    too — blocks those joins forever, turning a finished, fully passing
    run into a process that never exits.

    Executor bookkeeping cannot enumerate these strays: the management
    thread pops a worker it believes exited from ``_processes`` before
    joining it, and an abandoned executor may itself be garbage-collected
    while its worker lives on.  ``multiprocessing.active_children()`` is
    the one complete census — every worker is a child of this process —
    filtered to pool workers by their ``_process_worker`` target so the
    sweep never touches unrelated child processes an embedding
    application might own.

    Registered via ``threading._register_atexit`` *after* the
    ``concurrent.futures`` exit hook, so Python's LIFO ordering runs the
    sweep *before* the joins it unblocks; by then every result has been
    consumed, so SIGKILL is safe — recovery happened rounds ago, on the
    main process.

    Workers are recognised by their default process name (the pool start
    method's class prefix, e.g. ``ForkServerProcess-``): ``Process.start``
    deletes the ``_target`` attribute, and no other identity survives on
    the parent-side object.  The kill loop re-scans a few times because
    the management thread can have a replacement spawn in flight — the
    child registers with ``active_children`` only once the fork-server
    hands back its pid, possibly after the first scan.
    """
    prefix = _pool_context().Process.__name__ + "-"
    for _ in range(3):
        strays = [
            process
            for process in multiprocessing.active_children()
            if process.name.startswith(prefix)
        ]
        if not strays:
            return
        for process in strays:
            process.kill()
        time.sleep(0.05)


def _register_exit_sweep() -> None:
    global _EXIT_SWEEP_REGISTERED
    if _EXIT_SWEEP_REGISTERED:
        return
    register = getattr(threading, "_register_atexit", None)
    if register is not None:
        register(_kill_stray_workers)
    else:  # pragma: no cover - very old interpreters
        atexit.register(_kill_stray_workers)
    _EXIT_SWEEP_REGISTERED = True


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool with at least ``workers`` workers, reused across calls."""
    global _POOL, _POOL_SIZE
    if workers < 1:
        raise ValueError(f"workers must be an integer of at least 1, got {workers}")
    if _POOL is None or _POOL_SIZE < workers:
        shutdown_pool()
        _register_exit_sweep()
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())
        _POOL_SIZE = workers
        # Exactly one registration per live pool: re-register on every
        # (re)creation and unregister on shutdown, so a pool created after
        # an earlier teardown (a late FlowCache.warm, a test that called
        # shutdown_pool) is still torn down at interpreter exit.
        atexit.unregister(shutdown_pool)
        atexit.register(shutdown_pool)
    return _POOL


def shutdown_pool() -> None:
    """Tear the shared pool down (tests, recovery, and interpreter exit).

    The abandoned pool's workers are *terminated*, not joined: nothing will
    ever await their results again (a task in flight on them is being
    retried on the next pool or recomputed serially), and a worker hung
    mid-task would otherwise block forever — ``concurrent.futures`` joins
    every executor's management thread at interpreter exit, and that thread
    in turn joins the worker processes, so one stuck worker left alive
    turns a finished run into a process that never exits.
    """
    global _POOL, _POOL_SIZE
    atexit.unregister(shutdown_pool)
    if _POOL is not None:
        pool = _POOL
        _POOL = None
        _POOL_SIZE = 0
        workers = _pool_workers(pool)  # shutdown() drops the executor's list
        pool.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            process.terminate()


def respawn_pool(workers: int) -> ProcessPoolExecutor:
    """Replace the shared pool with a fresh one of ``workers`` workers.

    A pool that lost a worker (:class:`BrokenProcessPool`) or whose workers
    are hung past their task timeout cannot be reused; the old executor is
    shut down without waiting (hung workers are left to finish dying on
    their own) and a new pool takes its place.
    """
    shutdown_pool()
    return shared_pool(workers)


#: What a spawn raises when the fork server it forks through is gone: a
#: dying server's closed listener (refused), its socket file removed, the
#: server exiting between the spawn's ``connect`` and its fd handshake or
#: data write (a broken pipe or reset connection), or before it answers
#: with the new worker's pid.
_DEAD_FORK_SERVER = (ConnectionError, FileNotFoundError, EOFError)


def _submit_round(pool, stage, fn, payloads, pending, attempt, faults) -> dict:
    """Submit one attempt's pending tasks, arming ``broken_pool`` first."""
    if any(
        fault.kind == "broken_pool" and fault.fires(stage, i, attempt)
        for fault in faults
        for i in pending
    ):
        from repro.guard.faults import break_pool

        break_pool(pool)
    return {
        i: pool.submit(_policed_call, (fn, payloads[i], stage, i, attempt, faults))
        for i in pending
    }


def _submit_live(pool_size: int, pool, *round_args) -> tuple:
    """:func:`_submit_round`, spawning only through a live fork server.

    A client that connects and closes without sending its fds kills the
    fork server (``EOFError`` in its ``recvfds``).  A spawn inside
    ``submit`` does exactly that when pickling the worker's queue fds fails
    after ``connect``: the executor's manager thread closes the call queue
    of a pool that lost a worker (a crash, an OOM kill, the ``broken_pool``
    injector) while the main thread is still spawning into it.  Until the
    dying server is reaped, ``ensure_running`` still sees its pid, so every
    spawn is refused, breaks its pipe mid-handshake or loses its pid
    reply.  Such a spawn shuts the pool down, reaps the server (``_stop``
    closes this process's end of its alive pipe and waits for it to exit;
    no worker of ours keeps it alive once the pool is down) and resubmits
    the round once on a fresh pool, within the same attempt.  Returns the
    pool the round ran on and its futures.
    """
    try:
        return pool, _submit_round(pool, *round_args)
    except _DEAD_FORK_SERVER:
        if _pool_context().get_start_method() != "forkserver":
            raise
        shutdown_pool()
        try:
            forkserver._forkserver._stop()
        except FileNotFoundError:  # the listener's socket file is already gone
            pass
        pool = shared_pool(pool_size)
        return pool, _submit_round(pool, *round_args)


# ------------------------------------------------------------------- run_tasks
def _policed_call(args: tuple) -> Any:
    """Worker-side task wrapper: apply armed worker faults around ``fn``.

    ``faults`` travelled with the payload (picklable
    :class:`~repro.guard.faults.WorkerFault` rows), so the injectors work
    under any multiprocessing start method and need no worker-side state.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    fn, payload, stage, index, attempt, faults = args
    for fault in faults:
        fault.worker_before(stage, index, attempt)
    result = fn(payload)
    for fault in faults:
        result = fault.worker_after(stage, index, attempt, result)
    return result


def run_tasks(
    stage: str,
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int,
    *,
    policy: "ParallelPolicy | None" = None,
    validate: Callable[[Any, Any], None] | None = None,
    serial_fn: Callable[[Any], Any] | None = None,
    diagnostics: "list[ParallelDiagnostic] | None" = None,
    label: Callable[[int, Any], str] | None = None,
) -> list:
    """Fault-tolerant map of ``fn`` over ``payloads`` on the shared pool.

    Results are returned in payload order regardless of completion order.
    ``fn`` must be a module-level callable taking one payload argument (the
    pool pickles it by reference); ``serial_fn`` (default: ``fn``) is the
    inline fallback run on the main process when ``policy.mode ==
    "degrade"`` and a task has exhausted its pool attempts.  ``validate``
    runs on the main process against every pool result *and* every serial
    recomputation; a validation error on a pool result counts as a failed
    attempt, on a serial result it raises :class:`ParallelError` (nothing
    left to fall back to).  ``label`` names tasks for diagnostics (default
    ``"task {i}"``).  Recovery events are appended to ``diagnostics``.

    With ``workers <= 1`` or a single payload there is nothing to fan out:
    tasks run inline (exactly the serial flow — no pool, no injected worker
    faults, no diagnostics).  Inside a pool worker (a DSE point whose
    insertion DP fans out) tasks run inline too: a nested pool would start
    its own fork server and workers that no exit sweep reaps.
    """
    payloads = list(payloads)
    count = len(payloads)
    if count == 0:
        return []
    policy = resolve_parallel_policy(policy)
    serial = serial_fn if serial_fn is not None else fn
    sink = diagnostics if diagnostics is not None else []
    names = [
        label(i, payload) if label is not None else f"task {i}"
        for i, payload in enumerate(payloads)
    ]

    if workers <= 1 or count == 1 or _IN_POOL_WORKER:
        results = []
        for i in range(count):
            result = serial(payloads[i])
            if validate is not None:
                validate(result, payloads[i])
            results.append(result)
        return results

    from repro.guard.faults import active_worker_faults

    faults = tuple(f for f in active_worker_faults() if f.applies_to(stage))
    results: list[Any] = [None] * count
    pending = list(range(count))
    attempts_done = {i: 0 for i in pending}
    first_cause: dict[int, str] = {}
    pool_size = min(workers, count)
    pool: ProcessPoolExecutor | None
    try:
        pool = shared_pool(pool_size)
    except Exception as exc:  # pool unavailable (e.g. interpreter shutdown)
        pool = None
        for i in pending:
            first_cause[i] = f"pool unavailable: {type(exc).__name__}: {exc}"

    for attempt in range(1, policy.attempts + 1):
        if pool is None or not pending:
            break
        failed: list[int] = []
        respawn = False
        try:
            pool, futures = _submit_live(
                pool_size, pool, stage, fn, payloads, pending, attempt, faults
            )
        except Exception as exc:  # broken pool / executor already shut down
            cause = f"{type(exc).__name__}: {exc}"
            for i in pending:
                attempts_done[i] += 1
                first_cause.setdefault(i, cause)
            failed = list(pending)
            respawn = True
        else:
            for i in pending:
                attempts_done[i] += 1
                try:
                    result = futures[i].result(timeout=policy.timeout_s)
                    if validate is not None:
                        validate(result, payloads[i])
                except FuturesTimeoutError:
                    first_cause.setdefault(
                        i,
                        "TimeoutError: no result within "
                        f"{policy.timeout_s}s",
                    )
                    failed.append(i)
                    respawn = True
                except BrokenProcessPool as exc:
                    first_cause.setdefault(i, f"{type(exc).__name__}: {exc}")
                    failed.append(i)
                    respawn = True
                except Exception as exc:
                    first_cause.setdefault(i, f"{type(exc).__name__}: {exc}")
                    failed.append(i)
                else:
                    results[i] = result
                    if attempts_done[i] > 1:
                        sink.append(
                            ParallelDiagnostic(
                                stage=stage,
                                task=names[i],
                                attempts=attempts_done[i],
                                action="retried",
                                cause=first_cause.get(i, ""),
                            )
                        )
        pending = failed
        if respawn:
            # A broken or timed-out pool may hold dead or hung workers;
            # replace it before the next round (or the next caller).
            try:
                pool = respawn_pool(pool_size)
            except Exception:  # pragma: no cover - interpreter shutdown
                pool = None
        if pending and pool is not None and attempt < policy.attempts:
            if policy.backoff_s > 0:
                time.sleep(
                    policy.backoff_s * policy.backoff_factor ** (attempt - 1)
                )

    # Terminal fallback for tasks that never produced a valid pool result.
    for i in pending:
        cause = first_cause.get(i, "unknown failure")
        if policy.mode == "strict":
            raise ParallelError(stage, names[i], attempts_done[i], cause)
        result = serial(payloads[i])
        if validate is not None:
            try:
                validate(result, payloads[i])
            except Exception as exc:
                raise ParallelError(
                    stage,
                    names[i],
                    attempts_done[i],
                    f"serial recomputation failed validation: "
                    f"{type(exc).__name__}: {exc}",
                ) from exc
        results[i] = result
        sink.append(
            ParallelDiagnostic(
                stage=stage,
                task=names[i],
                attempts=attempts_done[i],
                action="degraded-to-serial",
                cause=cause,
            )
        )
    return results
