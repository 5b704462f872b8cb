"""The :class:`SolverSession`: one shared bandwidth-resolution context.

A session binds together, for one machine topology:

* the **capacity map** (controllers + DMA links), built once and served
  from cache until the topology changes (a modified machine has a new
  fingerprint, hence a new session — see :func:`get_session`);
* the **allocation cache** shared by every flow network the session
  hands out, so repeated max-min problems (simulation event loops,
  characterization sweeps, benchmark rounds) are solved once;
* memoized **path bandwidth** lookups (``dma_path_gbps`` /
  ``pio_stream_gbps``), the per-placement inner loop of every service
  model;
* the **stats** recording what all of the above actually did.

Sessions can also be machine-less (``SolverSession()``): cluster-level
runners that assemble ad-hoc capacity maps still get the shared
allocation cache and instrumentation, just no machine-derived
capacities.
"""

from __future__ import annotations

import atexit
from collections import OrderedDict
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.flows.network import FlowNetwork, FlowOutcome
from repro.obs.stats import SolverStats
from repro.solver.capacity import build_capacities, machine_fingerprint
from repro.solver.incremental import AllocationCache

__all__ = ["SolverSession", "get_session", "reset_sessions"]

#: LRU bound on the process-wide session registry.
_MAX_SESSIONS = 32

_SESSIONS: OrderedDict[str, "SolverSession"] = OrderedDict()


class SolverSession:
    """Cached, instrumented bandwidth resolution for one topology.

    Parameters
    ----------
    machine:
        The host this session serves, or ``None`` for an ad-hoc session
        (shared cache + stats over caller-supplied capacity maps).
    cache_size:
        LRU bound on memoized allocation problems.
    """

    def __init__(self, machine=None, cache_size: int = 4096) -> None:
        self.machine = machine
        self.stats = SolverStats()
        self._alloc = AllocationCache(maxsize=cache_size, stats=self.stats)
        self._capacities: dict[str, float] | None = None
        self._dma_paths: dict[tuple[int, int], float] = {}
        self._pio_streams: dict[tuple[int, int, int | None], float] = {}
        self._arena = None

    @property
    def fingerprint(self) -> str | None:
        """Topology fingerprint, or ``None`` for machine-less sessions."""
        return machine_fingerprint(self.machine) if self.machine is not None else None

    # --- capacities -------------------------------------------------------
    def _fabric_capacities(self) -> dict[str, float]:
        """The cached capacity map itself (not a copy — do not mutate)."""
        if self.machine is None:
            raise SimulationError(
                "this solver session has no machine; pass explicit capacities"
            )
        if self._capacities is None:
            with self.stats.phase("capacity"):
                if self._arena is not None:
                    # Arena-backed session: the capacity map was packed
                    # into shared memory by whoever published the arena;
                    # reading it back is the zero-copy fast path.
                    self._capacities = self._arena.capacities()
                else:
                    self._capacities = build_capacities(self.machine)
            self.stats.capacity_builds += 1
        else:
            self.stats.capacity_hits += 1
        return self._capacities

    def capacities(self) -> dict[str, float]:
        """A copy of the machine's fabric capacity map (safe to extend)."""
        return dict(self._fabric_capacities())

    # --- allocation -------------------------------------------------------
    def rates(
        self, flows: Iterable, capacities: Mapping[str, float] | None = None
    ) -> dict[str, float]:
        """Instantaneous max-min rates through the session's cache.

        ``capacities`` defaults to the machine's fabric map.
        """
        caps = capacities if capacities is not None else self._fabric_capacities()
        with self.stats.phase("allocate"):
            return self._alloc.rates(flows, caps)

    def rates_many(
        self,
        problems: Iterable[Iterable],
        capacities: Mapping[str, float] | None = None,
    ) -> list[dict[str, float]]:
        """Max-min rates for several flow lists under one ``allocate`` phase.

        The batched entry point for characterization sweeps: one stats
        phase and one capacity lookup cover the whole batch, and every
        problem still lands in (and reuses) the shared allocation cache.
        Results are returned in problem order.
        """
        caps = capacities if capacities is not None else self._fabric_capacities()
        with self.stats.phase("allocate"):
            return [self._alloc.rates(flows, caps) for flows in problems]

    def network(self, capacities: Mapping[str, float] | None = None) -> FlowNetwork:
        """A :class:`FlowNetwork` sharing this session's cache and stats."""
        caps = capacities if capacities is not None else self._fabric_capacities()
        return FlowNetwork(caps, allocator=self._alloc, stats=self.stats)

    def simulate(
        self, flows: Iterable, capacities: Mapping[str, float] | None = None
    ) -> dict[str, FlowOutcome]:
        """Time-domain simulation through the session's cache."""
        network = self.network(capacities)
        with self.stats.phase("simulate"):
            return network.simulate(flows)

    # --- memoized path models ---------------------------------------------
    def dma_path_gbps(self, src: int, dst: int) -> float:
        """Memoized :meth:`Machine.dma_path_gbps`."""
        if self.machine is None:
            raise SimulationError("this solver session has no machine")
        key = (src, dst)
        value = self._dma_paths.get(key)
        if value is None:
            value = self.machine.dma_path_gbps(src, dst)
            self._dma_paths[key] = value
            self.stats.path_misses += 1
        else:
            self.stats.path_hits += 1
        return value

    def pio_stream_gbps(
        self, cpu_node: int, mem_node: int, threads: int | None = None
    ) -> float:
        """Memoized :meth:`Machine.pio_stream_gbps`."""
        if self.machine is None:
            raise SimulationError("this solver session has no machine")
        key = (cpu_node, mem_node, threads)
        value = self._pio_streams.get(key)
        if value is None:
            value = self.machine.pio_stream_gbps(cpu_node, mem_node, threads)
            self._pio_streams[key] = value
            self.stats.path_misses += 1
        else:
            self.stats.path_hits += 1
        return value

    # --- lifecycle --------------------------------------------------------
    def attach_arena(self, arena) -> None:
        """Back this session's capacity map with a shared-memory arena.

        ``arena`` is duck-typed (the solver layer does not import
        :mod:`repro.fabric`): anything with ``acquire``/``release`` and
        a ``capacities()`` returning the machine's capacity map works.
        The session holds one reference until :meth:`close` (or a
        replacement arena) releases it.
        """
        if arena is self._arena:
            return
        arena.acquire()
        previous, self._arena = self._arena, arena
        self._capacities = None
        if previous is not None:
            previous.release()

    def close(self) -> None:
        """Release the arena reference (if any) and drop all caches.

        Called on LRU eviction from the session registry and by
        :func:`reset_sessions`, so an evicted session never pins a
        shared-memory segment.
        """
        arena, self._arena = self._arena, None
        self.invalidate()
        if arena is not None:
            arena.release()

    def invalidate(self) -> None:
        """Drop every cached answer (capacities, allocations, paths)."""
        self._capacities = None
        self._alloc.clear()
        self._dma_paths.clear()
        self._pio_streams.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.machine.name if self.machine is not None else "<ad-hoc>"
        return (
            f"SolverSession({name!r}, solves={self.stats.solves}, "
            f"hit_rate={self.stats.hit_rate:.1%})"
        )


def get_session(machine) -> SolverSession:
    """The process-wide session for ``machine``'s topology.

    Keyed by :func:`~repro.solver.capacity.machine_fingerprint`:
    structurally identical machines share one session; a machine edited
    through :mod:`repro.topology.modify` has a different fingerprint and
    gets a fresh session, so no caller ever sees stale capacities or
    routes after a what-if edit.
    """
    fingerprint = machine_fingerprint(machine)
    session = _SESSIONS.get(fingerprint)
    if session is None:
        session = SolverSession(machine)
        _SESSIONS[fingerprint] = session
        while len(_SESSIONS) > _MAX_SESSIONS:
            _fp, evicted = _SESSIONS.popitem(last=False)
            evicted.close()
    else:
        _SESSIONS.move_to_end(fingerprint)
    return session


def reset_sessions() -> None:
    """Drop every registered session (tests / CLI isolation).

    Closes each session on the way out so arena-backed sessions release
    their shared-memory references.
    """
    while _SESSIONS:
        _fp, session = _SESSIONS.popitem(last=False)
        session.close()


atexit.register(reset_sessions)
