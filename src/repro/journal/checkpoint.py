"""In-process checkpointed execution: capture, journal, graft, resume.

The worker fabric captures each task's telemetry in the worker and
grafts it back into the parent recorder deterministically.  Journaled
runs need the same discipline for units that execute *in the parent
process* (the chaos scenarios): each unit's spans and counters are
captured with :class:`repro.obs.capture` while it runs, persisted in
the journal record, and grafted — whether fresh or replayed from the
journal — in unit order.  That is what makes a resumed run's
``--obs-dir`` manifest a deterministic twin of an uninterrupted one:
both see the exact same sequence of grafted payloads.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs import recorder as _obs

__all__ = ["journaled_chaos"]


def _draw_delta(before: "dict[str, int]", after: "dict[str, int]") -> dict:
    return {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] != before.get(name, 0)
    }


def journaled_chaos(machine, registry, scenarios: "tuple[str, ...]",
                    quick: bool, journal, retry=None):
    """``run_chaos`` with scenario-granular checkpoint/resume.

    Each scenario is one journal unit: its :class:`ScenarioResult`, the
    RNG draw-ledger delta it produced, and its captured telemetry.
    Journaled scenarios are replayed (draws absorbed, telemetry
    grafted) instead of re-run; the assembled report — and, under
    ``--obs-dir``, the manifest's counters — is bit-identical to an
    uninterrupted journaled run.  Scenario streams are name-keyed and
    restart per request, so skipping completed scenarios cannot perturb
    the ones that still have to run.
    """
    from repro.faults.chaos import ChaosReport, run_scenario

    results = []
    for index, name in enumerate(scenarios):
        key = ("scenario", name)
        record = journal.get(key)
        if record is None:
            before = registry.draw_counts
            with (_obs.capture() if _obs.enabled() else nullcontext()) as unit:
                result = run_scenario(
                    name, machine=machine, registry=registry, quick=quick,
                    retry=retry,
                )
            record = journal.append(
                key,
                result=result,
                draws=_draw_delta(before, registry.draw_counts),
                telemetry=unit.payload() if unit is not None else None,
            )
        else:
            registry.absorb(record["draws"])
        _obs.get_recorder().graft(record["telemetry"], "journal.scenario",
                                  shard=index, scenario=name)
        results.append(record["result"])
    return ChaosReport(
        machine_name=machine.name, seed=registry.seed, results=tuple(results)
    )
