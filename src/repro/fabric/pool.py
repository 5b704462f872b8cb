"""The persistent worker pool over shared-memory machine arenas.

:class:`FabricPool` is the process fan-out layer of the reproduction:
it shards characterization sweeps (`build_many` / `characterize_many` /
`bulk_copy_gbps_many`), runs experiment batches, and serves as the
service's process-pool solver tier (`build_model`) — all against
machines that workers **map** from a shared-memory arena instead of
unpickling per task.

Determinism contract (the one the smoke script gates): a sharded run is
bit-identical to the serial run.  Three properties make that true:

* every worker draws from a registry built with the **same root seed**
  as the parent's — named streams are derived position-independently
  from ``(seed, name)`` and restart on every request, so the process
  that draws a stream cannot change its values (``RngRegistry.child``
  would *re-seed* the namespace and is exactly what sharding must not
  do);
* shards are contiguous slices merged in shard order
  (:mod:`repro.fabric.shard`), so merged dicts keep serial insertion
  order and merged ledgers equal the serial ledger;
* telemetry is capture-and-graft (:class:`repro.obs.capture` in the
  worker, :meth:`~repro.obs.TraceRecorder.graft` in the parent), so
  recording changes what is observed, never what is computed — in any
  process.

Failure model: a SIGKILLed worker breaks the executor
(``BrokenProcessPool``); the pool rebuilds it and re-dispatches only the
shards whose results were lost, up to ``retries`` times.  Experiment
batches opt out of retry (``run_experiments``) and degrade to
structured "crashed" rows instead, preserving the CLI's historical
semantics.  Workers never own arena segments, so no crash can leak
``/dev/shm``; a SIGKILLed *parent* can, which is why pool startup reaps
dead-owner orphans (:func:`repro.fabric.arena.reap_orphans`).

Checkpoint/resume: the sweep methods accept a
:class:`~repro.journal.RunJournal`.  Journaled dispatch is
unit-granular (one target / one experiment per task, independent of
``jobs``); each completed unit's envelope — result, RNG draw ledger,
captured telemetry — is appended to the journal the moment it lands,
and already-journaled units are replayed instead of re-run.  Because
merge order is unit order, never completion order, a resumed run's
merged results, absorbed ledgers, and grafted telemetry are identical
to an uninterrupted run's.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext

from repro.errors import FabricError
from repro.fabric import arena as _arena
from repro.fabric.shard import merge_in_order, plan_shards
from repro.obs import recorder as _obs
from repro.rng import DEFAULT_SEED, RngRegistry
from repro.solver.capacity import machine_fingerprint

__all__ = ["FabricPool"]

#: Worker-side LRU bounds (machines/arenas and memoized models).
_WORKER_MACHINE_LIMIT = 16
_WORKER_MODEL_LIMIT = 32

#: Worker-side caches, living in each worker process.
_WORKER_MACHINES: "OrderedDict[str, tuple]" = OrderedDict()
_WORKER_MODELS: "OrderedDict[tuple, object]" = OrderedDict()

#: Whether this worker already served its injected stall (one per
#: process; armed by ``repro.faults.execution.WorkerStall``).
_WORKER_STALLED = False


#: How often a worker checks that the process that started it is alive.
_PARENT_POLL_S = 0.25


def _exit_with_parent(parent: int) -> None:
    """Exit this worker once ``parent`` is gone (the worker is re-parented).

    A SIGKILLed parent never closes the call queue, so its workers would
    otherwise block on the inherited pipe forever.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _worker_init() -> None:
    """Reset fabric state a forked worker inherited from its parent.

    Forked workers carry copies of the parent's arena registry and
    session cache.  Those handles must be neutralised — the parent owns
    every published segment, and a worker's exit sweep must never close
    (let alone unlink) them through an inherited handle.  A daemon
    thread ends the worker if its parent dies.
    """
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True,
        name="fabric-parent-watch",
    ).start()
    for inherited in _arena._ARENAS.values():
        inherited.owner = False
        inherited.closed = True
    _arena._ARENAS.clear()
    from repro.solver.session import _SESSIONS

    for session in _SESSIONS.values():
        session._arena = None
    _SESSIONS.clear()
    _WORKER_MACHINES.clear()
    _WORKER_MODELS.clear()
    _obs.uninstall()


def _resolve_machine(ref: dict):
    """The worker's machine for one task ref: arena-mapped, else rebuilt.

    Cached per fingerprint; an arena-backed machine's solver session is
    attached to the arena so capacities come from the mapped bytes.
    """
    fingerprint = ref["fingerprint"]
    entry = _WORKER_MACHINES.get(fingerprint)
    if entry is not None:
        _WORKER_MACHINES.move_to_end(fingerprint)
        return entry[0]
    arena = _arena.attach(ref["segment"]) if ref.get("segment") else None
    if arena is not None:
        arena.acquire()
        machine = arena.machine()
        from repro.solver.session import get_session

        get_session(machine).attach_arena(arena)
    else:
        from repro.topology.serialize import machine_from_dict

        machine = machine_from_dict(ref["machine"])
        try:
            machine._solver_fingerprint = fingerprint
        except AttributeError:  # pragma: no cover - exotic subclasses
            pass
    _WORKER_MACHINES[fingerprint] = (machine, arena)
    while len(_WORKER_MACHINES) > _WORKER_MACHINE_LIMIT:
        _fp, (_m, old_arena) = _WORKER_MACHINES.popitem(last=False)
        if old_arena is not None:
            old_arena.release()
    return machine


def _run_kind(kind: str, machine, registry, payload: dict):
    """Dispatch one task body inside the worker."""
    if kind == "build_many":
        from repro.core.iomodel import IOModelBuilder

        builder = IOModelBuilder(machine, registry=registry,
                                 **payload["builder"])
        return builder.build_many(tuple(payload["targets"]), payload["mode"])
    if kind == "characterize_many":
        from repro.core.characterize import HostCharacterizer

        characterizer = HostCharacterizer(machine, registry=registry,
                                          **payload["builder"])
        return characterizer.characterize_many(tuple(payload["targets"]))
    if kind == "bulk_copy":
        from repro.bench.engines import bulk_copy_gbps_many

        return bulk_copy_gbps_many(
            machine, [tuple(p) for p in payload["pairs"]], payload["threads"]
        )
    if kind == "build_model":
        from repro.core.iomodel import IOModelBuilder

        key = (
            machine_fingerprint(machine), payload["target"], payload["mode"],
            registry.seed, tuple(sorted(payload["builder"].items())),
        )
        model = _WORKER_MODELS.get(key)
        if model is None:
            builder = IOModelBuilder(machine, registry=registry,
                                     **payload["builder"])
            model = builder.build(payload["target"], payload["mode"])
            _WORKER_MODELS[key] = model
            while len(_WORKER_MODELS) > _WORKER_MODEL_LIMIT:
                _WORKER_MODELS.popitem(last=False)
        else:
            _WORKER_MODELS.move_to_end(key)
        return model
    if kind == "experiment":
        from repro.experiments import run_experiment_row

        exp_id = payload["exp_id"]
        if os.environ.get("REPRO_CHAOS_KILL_EXPERIMENT") == exp_id:
            # Test hook: die exactly like a worker hit by the OOM
            # killer, so crash handling can be exercised for real.
            os.kill(os.getpid(), signal.SIGKILL)
        return run_experiment_row(exp_id, quick=payload["quick"])
    if kind == "ping":
        return machine.name if machine is not None else None
    raise FabricError(f"unknown fabric task kind {kind!r}")


def _worker_run(task: dict) -> dict:
    """Execute one task envelope in a worker process.

    Returns plain data only: the task result, the worker registry's
    draw ledger, and (when the parent was recording) the captured
    telemetry payload.
    """
    global _WORKER_STALLED
    if not _WORKER_STALLED:
        _WORKER_STALLED = True
        # "REPRO_FABRIC_STALL" == repro.faults.execution.STALL_ENV, kept
        # as a literal so workers never import the fault taxonomy.
        stall = os.environ.get("REPRO_FABRIC_STALL")
        if stall:
            try:
                time.sleep(min(60.0, float(stall)))
            except ValueError:
                pass
    marker = os.environ.get("REPRO_FABRIC_KILL_ONCE")
    if marker:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # a previous incarnation already died here
        except OSError:
            # Uncreatable marker: nowhere to record the death, so every
            # incarnation dies — the "pool never recovers" chaos mode.
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    # A forked worker may have inherited the parent's recorder; its
    # spans must never land in a copied parent trace.
    _obs.uninstall()
    with (_obs.capture() if task["telemetry"] else nullcontext()) as recorder:
        machine = (
            _resolve_machine(task["machine_ref"])
            if task.get("machine_ref") else None
        )
        registry = RngRegistry(task["seed"])
        result = _run_kind(task["kind"], machine, registry, task["payload"])
        draws = registry.draw_counts
    captured = recorder.payload() if recorder is not None else None
    return {"result": result, "draws": draws, "telemetry": captured}


class FabricPool:
    """A persistent process pool dispatching over shared-memory arenas.

    Parameters
    ----------
    jobs:
        Worker process count (also the default shard count).
    seed:
        Root seed workers derive their registries from when the caller
        passes no registry of its own.
    retries:
        How many times a broken pool is rebuilt and lost shards
        re-dispatched before giving up.
    mp_context:
        Optional :mod:`multiprocessing` context (tests pin ``fork``).

    The pool is lazy (workers start on first dispatch), reusable across
    machines (tasks carry their arena ref), and must be closed —
    ``close()`` or the context-manager form — to shut workers down and
    release published arenas promptly.  Segments can never outlive the
    process even without it: the arena layer's atexit sweep owns that.
    """

    def __init__(self, jobs: int = 2, seed: int = DEFAULT_SEED,
                 retries: int = 2, mp_context=None) -> None:
        if jobs < 1:
            raise FabricError(f"need >= 1 worker, got {jobs}")
        if retries < 0:
            raise FabricError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.seed = int(seed)
        self.retries = retries
        self._mp_context = mp_context
        self._executor = None
        self._arenas: "OrderedDict[str, _arena.MachineArena]" = OrderedDict()
        self.dispatched = 0
        self.completed = 0
        self.retried = 0
        self.abandoned = 0
        self.closed = False
        #: Optional :class:`repro.obs.live.LivePlane` — when the
        #: placement service grafts one on, ``build_model`` records its
        #: wall-clock dispatch latency into ``fabric.dispatch``.
        self.live = None
        # A SIGKILLed predecessor never ran its atexit sweep; clear its
        # dead-owner segments before publishing under the same names.
        try:
            _arena.reap_orphans()
        except Exception:  # pragma: no cover - never fail pool startup
            pass

    # --- lifecycle --------------------------------------------------------
    def _ensure_executor(self):
        if self.closed:
            raise FabricError("fabric pool is closed")
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = self._mp_context or multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=_worker_init,
            )
        return self._executor

    def _rebuild_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the workers down and release every published arena."""
        if self.closed:
            return
        self.closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for arena in self._arenas.values():
            arena.release()
        self._arenas.clear()

    def __enter__(self) -> "FabricPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # --- accounting -------------------------------------------------------
    def note_abandoned(self) -> None:
        """Record a deadline-abandoned solve (the worker slot stays busy
        until the orphaned task finishes; nobody reads its result)."""
        self.abandoned += 1
        _obs.count("fabric.abandoned")

    def stats(self) -> dict:
        """JSON-able pool accounting (service ``health`` payloads)."""
        return {
            "jobs": self.jobs,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "retried": self.retried,
            "abandoned": self.abandoned,
            "arenas": len(self._arenas),
        }

    # --- dispatch core ----------------------------------------------------
    def _machine_ref(self, machine) -> dict:
        """The task-side handle for ``machine``: arena name, or its
        serialized form when no arena can be published."""
        if getattr(machine.routing, "_overrides", None):
            raise FabricError(
                f"machine {machine.name!r} has routing overrides; the "
                f"fabric cannot reproduce them in workers — run serially"
            )
        fingerprint = machine_fingerprint(machine)
        arena = self._arenas.get(fingerprint)
        if arena is not None and not arena.closed:
            self._arenas.move_to_end(fingerprint)
            return {"fingerprint": fingerprint, "segment": arena.name}
        try:
            arena = _arena.get_arena(machine)
        except FabricError:
            arena = None  # no usable shared memory: ship the description
        if arena is None:
            from repro.topology.serialize import machine_to_dict

            return {
                "fingerprint": fingerprint,
                "segment": None,
                "machine": machine_to_dict(machine),
            }
        self._arenas[fingerprint] = arena
        while len(self._arenas) > _WORKER_MACHINE_LIMIT:
            _fp, old = self._arenas.popitem(last=False)
            old.release()
        return {"fingerprint": fingerprint, "segment": arena.name}

    def _task(self, kind: str, machine_ref, seed: int, payload: dict) -> dict:
        return {
            "kind": kind,
            "machine_ref": machine_ref,
            "seed": seed,
            "telemetry": _obs.enabled(),
            "payload": payload,
        }

    def _run_tasks(self, tasks: "list[dict]", on_result=None) -> "list[dict]":
        """Dispatch tasks, retrying shards lost to a broken pool.

        ``on_result(index, envelope)`` fires exactly once per task, in
        submission order, the moment its result is in hand — the
        journal's append hook, so a completed unit is durable even if
        the parent dies before the batch finishes.
        """
        from concurrent.futures.process import BrokenProcessPool

        results: "list[dict | None]" = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempt = 0
        while pending:
            executor = self._ensure_executor()
            futures = [(i, executor.submit(_worker_run, tasks[i]))
                       for i in pending]
            self.dispatched += len(futures)
            lost: list[int] = []
            for i, future in futures:
                try:
                    results[i] = future.result()
                    self.completed += 1
                    if on_result is not None:
                        on_result(i, results[i])
                except BrokenProcessPool:
                    lost.append(i)
            if lost:
                self._rebuild_executor()
                attempt += 1
                if attempt > self.retries:
                    raise FabricError(
                        f"worker pool broke {attempt} times; "
                        f"{len(lost)} shard(s) unrecovered"
                    )
                self.retried += len(lost)
            pending = lost
        return results  # type: ignore[return-value]

    def _run_journaled(self, journal, keys: "list[tuple]",
                       make_task) -> "list[dict]":
        """Unit-granular dispatch against a :class:`RunJournal`.

        ``keys[i]`` identifies unit ``i``; ``make_task(i)`` builds its
        task envelope.  A journal record carries the envelope's
        ``result``/``draws``/``telemetry``, so journaled units replay
        from their records as-is; the rest run, each appended as soon
        as it completes.  The returned envelope list is in unit order
        either way.
        """
        envelopes = [journal.get(key) for key in keys]
        missing = [i for i, env in enumerate(envelopes) if env is None]
        fresh = self._run_tasks(
            [make_task(i) for i in missing],
            on_result=lambda j, env: journal.append(keys[missing[j]], **env),
        )
        for i, env in zip(missing, fresh):
            envelopes[i] = env
        return envelopes

    def _merge(self, envelopes: "list[dict]", registry, label: str) -> None:
        """Fold draw ledgers and grafted telemetry back, in task order."""
        recorder = _obs.get_recorder()
        for idx, env in enumerate(envelopes):
            if registry is not None and env["draws"]:
                registry.absorb(env["draws"])
            recorder.graft(env["telemetry"], label, shard=idx)

    # --- sharded sweeps ---------------------------------------------------
    def _sweep(self, kind: str, machine, targets, registry, journal,
               key: tuple, payload: dict) -> dict:
        """The one body behind :meth:`build_many` and :meth:`characterize_many`.

        Without ``journal``, ``targets`` is cut into ``jobs`` contiguous
        shards.  With it, dispatch is one target per task, keyed
        ``key + (target,)``, so resume granularity is independent of
        ``jobs`` and completed targets are replayed, not re-run.  Draw
        ledgers and telemetry merge back in target order either way.
        """
        targets = tuple(targets)
        seed = registry.seed if registry is not None else self.seed
        ref = self._machine_ref(machine)

        def task(chunk: tuple) -> dict:
            return self._task(kind, ref, seed, {"targets": chunk, **payload})

        if journal is not None:
            envelopes = self._run_journaled(
                journal,
                [key + (int(t),) for t in targets],
                lambda i: task(targets[i:i + 1]),
            )
        else:
            envelopes = self._run_tasks([
                task(targets[start:stop])
                for start, stop in plan_shards(len(targets), self.jobs)
            ])
        self._merge(envelopes, registry, "fabric." + kind)
        return merge_in_order([env["result"] for env in envelopes])

    def build_many(self, machine, targets, mode: str,
                   registry: "RngRegistry | None" = None,
                   journal=None, **builder_kwargs) -> dict:
        """Sharded :meth:`~repro.core.iomodel.IOModelBuilder.build_many`.

        Bit-identical to the serial call with the same registry seed;
        the caller's ``registry`` (when given) supplies the seed and
        absorbs the merged draw ledger.  With ``journal``, completed
        targets are replayed, not re-run.
        """
        return self._sweep(
            "build_many", machine, targets, registry, journal,
            ("build_many", mode),
            {"mode": mode, "builder": dict(builder_kwargs)},
        )

    def characterize_many(self, machine, nodes,
                          registry: "RngRegistry | None" = None,
                          journal=None, **builder_kwargs) -> dict:
        """Sharded :meth:`~repro.core.characterize.HostCharacterizer.characterize_many`.

        Same determinism and journal contract as :meth:`build_many`.
        """
        return self._sweep(
            "characterize_many", machine, nodes, registry, journal,
            ("characterize_many",), {"builder": dict(builder_kwargs)},
        )

    def bulk_copy_gbps_many(self, machine, pairs, threads: int) -> "list[float]":
        """Sharded :func:`~repro.bench.engines.bulk_copy_gbps_many`."""
        pairs = [tuple(p) for p in pairs]
        ref = self._machine_ref(machine)
        tasks = [
            self._task("bulk_copy", ref, self.seed, {
                "pairs": pairs[start:stop],
                "threads": threads,
            })
            for start, stop in plan_shards(len(pairs), self.jobs)
        ]
        envelopes = self._run_tasks(tasks)
        self._merge(envelopes, None, "fabric.bulk_copy")
        out: "list[float]" = []
        for env in envelopes:
            out.extend(env["result"])
        return out

    # --- experiments ------------------------------------------------------
    def run_experiments(self, exp_ids, quick: bool = False,
                        journal=None) -> "list[tuple]":
        """One experiment per worker task, merged in registry order.

        Returns the rows of
        :func:`~repro.experiments.registry.run_experiment_row` — the
        same rows ``experiment all`` builds in-process when it runs
        serially, so the CLI prints both through one loop.  No
        transparent retry here: a dead worker degrades to a structured
        "crashed" row (every experiment still reported exactly once)
        and the executor is rebuilt for later dispatches.  With
        ``journal``, completed experiments replay from their records;
        crashed rows are never journaled, so a resume retries them.
        """
        executor = self._ensure_executor()
        exp_ids = list(exp_ids)
        futures: "dict[str, object]" = {}
        for exp_id in exp_ids:
            if journal is not None and ("experiment", exp_id) in journal:
                continue
            futures[exp_id] = executor.submit(_worker_run, self._task(
                "experiment", None, self.seed,
                {"exp_id": exp_id, "quick": quick},
            ))
        self.dispatched += len(futures)
        outcomes: "list[tuple]" = []
        crashed = False
        for exp_id in exp_ids:
            if exp_id not in futures:
                envelope = journal.get(("experiment", exp_id))
            else:
                try:
                    envelope = futures[exp_id].result()
                except Exception as exc:  # worker died or pool broke
                    crashed = True
                    reason = (
                        f'status="crashed": experiment {exp_id!r} worker '
                        f"died before returning a result "
                        f"({type(exc).__name__})"
                    )
                    outcomes.append((exp_id, None, "(worker crashed)",
                                     reason, [reason], 0.0))
                    continue
                self.completed += 1
                if journal is not None:
                    journal.append(("experiment", exp_id), **envelope)
            self._merge([envelope], None, "fabric.experiment")
            outcomes.append(tuple(envelope["result"]))
        if crashed:
            self._rebuild_executor()
        return outcomes

    # --- the solver tier --------------------------------------------------
    def build_model(self, machine, target: int, mode: str,
                    registry: "RngRegistry | None" = None,
                    **builder_kwargs):
        """Build one Algorithm 1 model in a worker process.

        The service's solver tier: the parent's asyncio loop (and GIL)
        never runs the solve.  Solver failures propagate with their
        original types so the circuit breaker counts them unchanged.
        Workers memoize models per (fingerprint, target, mode, seed,
        builder-config); a memo hit draws nothing, exactly like a
        parent-side cache hit.
        """
        seed = registry.seed if registry is not None else self.seed
        ref = self._machine_ref(machine)
        task = self._task("build_model", ref, seed, {
            "target": target,
            "mode": mode,
            "builder": dict(builder_kwargs),
        })
        if self.live is not None:
            started = time.perf_counter()
            envelopes = self._run_tasks([task])
            self.live.record(
                "fabric.dispatch", time.perf_counter() - started
            )
        else:
            envelopes = self._run_tasks([task])
        self._merge(envelopes, registry, "fabric.build_model")
        return envelopes[0]["result"]
