"""The traced run: a per-layer ledger for every workload.

Imports the program, so import it only after
:func:`common.use_program_in_process`.

Spans are recorded here, in the benchmark, around calls into each
layer's public functions; the program itself is not instrumented.
Each workload gets a traced pass and an untraced pass of the same
work, so the ledger also reports what tracing cost.  The ledger covers
every layer on every traced run, whichever workload was named, so each
traced run reports the complete per-layer metric set.
"""

from __future__ import annotations

import json
import random
import sys
import time

import cli as cli_workload
import serve
import sweep as sweep_workload
from cli_ledger import LAYERS
from common import (
    OUT,
    ROOT,
    BenchError,
    Tracer,
    cli_argv,
    median,
    program_env,
    quantile,
    run_timed,
)
from repro.core.characterize import HostCharacterization
from repro.core.classify import classify_nodes
from repro.core.iomodel import IOModelBuilder
from repro.errors import ServiceError
from repro.interconnect.planes import ALL_PLANES
from repro.obs.live import HIST_BASE
from repro.obs.stats import solver_totals
from repro.rng import RngRegistry
from repro.service import (
    AdvisoryBackend,
    PlacementService,
    decode_request,
    encode_message,
    result_response,
    validate_params,
)
from repro.service.protocol import encode_result_line
from repro.solver import get_session, reset_sessions
from repro.topology.builders import hp_blade_32n, reference_host, scaled_host

PASSES = 3  # traced and untraced repetitions per workload


def _overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced / untraced - 1.0)


# --- cli_reproduce -----------------------------------------------------------


def cli_ledger(tracer: Tracer, wrong: list) -> dict:
    """Incremental cold imports and the 21 experiments, per span."""
    env = program_env()
    out_path = OUT / "cli-ledger.json"
    script = str(ROOT / "perfbench" / "cli_ledger.py")
    traced_walls, untraced_walls = [], []
    per_span: dict[str, list[float]] = {}
    for k in range(PASSES):
        wall, code, _out, _rss = run_timed(
            [sys.executable, script, str(out_path)], env, timeout=170
        )
        if code != 0:
            raise BenchError(f"cli ledger child exited {code}")
        traced_walls.append(wall)
        data = json.loads(out_path.read_text())
        failed = [e for e, ok in data["passed"].items() if not ok]
        if failed:
            wrong.append(f"cli ledger: experiments failed: {failed}")
        base = tracer.add("cli.invocation", 0.0, wall, req=f"cli-{k}")
        index = {}
        for i, span in enumerate(data["spans"]):
            parent = base if span["parent"] is None else index[span["parent"]]
            index[i] = tracer.add(span["name"], span["start"], span["end"],
                                  parent=parent, req=f"cli-{k}")
            per_span.setdefault(span["name"], []).append(span["end"] - span["start"])
        wall, code, out, _rss = run_timed(cli_argv("experiment", "all"), env, timeout=170)
        problem = cli_workload.check_output(out, code)
        if problem is not None:
            wrong.append(f"cli untraced: {problem}")
        untraced_walls.append(wall)
    metrics = {}
    for layer in LAYERS:
        name = f"import.repro.{layer}"
        metrics[f"{name}_s"] = (median(per_span[name]), "s")
    for name, values in per_span.items():
        if name.startswith("experiments."):
            metrics[f"{name}_s"] = (median(values), "s")
    metrics["trace.overhead_pct.cli_reproduce"] = (
        _overhead_pct(median(traced_walls), median(untraced_walls)), "%"
    )
    return metrics


# --- sweep_64n ---------------------------------------------------------------


def sweep_ledger(tracer: Tracer, seed: int, wrong: list) -> dict:
    """Topology, routing, capacity, both builds and classify, per span."""
    with tracer.span("topology.build", req="sweep-setup"):
        machine = scaled_host(sweep_workload.PACKAGES)
    with tracer.span("routing.populate", req="sweep-setup"):
        for plane in ALL_PLANES:
            machine.routing.populate(plane)
    nodes = tuple(machine.node_ids)
    pairs = sum(
        1 for plane in ALL_PLANES for s in nodes for d in nodes
        if s != d and machine.routing.route(plane, s, d)
    )
    expected = sweep_workload.digest(sweep_workload.render(
        sweep_workload.sweep_once(machine, seed), nodes))
    untraced, traced = [], []
    totals = None
    for k in range(PASSES):
        t0 = time.perf_counter()
        sweep_workload.sweep_once(machine, seed)
        untraced.append(time.perf_counter() - t0)
        reset_sessions()
        before = solver_totals()
        builder = IOModelBuilder(
            machine, registry=RngRegistry(sweep_workload.registry_seed(seed)),
            runs=sweep_workload.RUNS,
        )
        t0 = time.perf_counter()
        with tracer.span("sweep", req=f"sweep-{k}"):
            with tracer.span("solver.capacity", req=f"sweep-{k}"):
                get_session(machine).capacities()
            with tracer.span("core.build_write", req=f"sweep-{k}"):
                write = builder.build_many(nodes, "write")
            with tracer.span("core.build_read", req=f"sweep-{k}"):
                read = builder.build_many(nodes, "read")
        traced.append(time.perf_counter() - t0)
        after = solver_totals()
        totals = {key: after[key] - before[key] for key in after}
        with tracer.span("core.classify", req=f"sweep-{k}"):
            for models in (write, read):
                for target, model in models.items():
                    classify_nodes(model.values, machine, target,
                                   rel_gap=builder.rel_gap)
        results = {
            t: HostCharacterization(machine.name, t, write[t], read[t])
            for t in nodes
        }
        if sweep_workload.digest(sweep_workload.render(results, nodes)) != expected:
            wrong.append("sweep ledger: traced sweep output differs")
    lookups = totals["cache_hits"] + totals["cache_misses"]
    paths = totals["path_hits"] + totals["path_misses"]
    return {
        "topology.build_s": (tracer.durations("topology.build")[-1], "s"),
        "routing.populate_s": (tracer.durations("routing.populate")[-1], "s"),
        "routing.pairs": (pairs, "count"),
        "solver.capacity_s": (median(tracer.durations("solver.capacity")), "s"),
        "core.build_write_s": (median(tracer.durations("core.build_write")), "s"),
        "core.build_read_s": (median(tracer.durations("core.build_read")), "s"),
        "core.classify_s": (median(tracer.durations("core.classify")), "s"),
        "solver.solves": (totals["solves"], "count"),
        "solver.events": (totals["events"], "count"),
        "solver.cache_hit_ratio": (totals["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "solver.cache_lookups": (lookups, "count"),
        "solver.path_hit_ratio": (totals["path_hits"] / paths if paths else 0.0, "ratio"),
        "solver.path_lookups": (paths, "count"),
        "trace.overhead_pct.sweep_64n": (
            _overhead_pct(median(traced), median(untraced)), "%"
        ),
    }


# --- serve_hits --------------------------------------------------------------


def _serve_pass(profile, machine, mix, rate: float, wrong: list):
    """A short serve run: 1 s warm-up, 3 s at ``rate``, one scrape.

    Returns the measured step, the ``metrics`` payload and, for the
    hits server, the served Eq. 1 error.
    """
    exact = profile is serve.CHURN
    references = serve.reference_answers(machine, mix.pool)
    server = serve.Server(profile, "ledger")
    try:
        client = serve.LoadClient(server.port, references, exact=exact)
        try:
            warm = client.run(mix.phase(rate, 1.0, 0.0), rate, 1.0, drain_s=5.0)
            client.tiers_allowed = (3,) if exact else (1, 2)
            step = client.run(mix.phase(rate, 3.0, 0.0), rate, 3.0, drain_s=5.0)
        finally:
            client.close()
        scraped = serve.scrape(server.port)
        eq1 = None if exact else serve.eq1_served_rel_err(server.port, machine)
    finally:
        server.close()
    wrong.extend(warm.wrong + step.wrong)
    return step, scraped, eq1


def _layers(tracer: Tracer, req: str, line: str, backend) -> None:
    """One line through the dispatch layers, one span each."""
    try:
        with tracer.span("protocol.decode", req=req):
            rid, method, params, _deadline = decode_request(line)
        with tracer.span("protocol.validate", req=req):
            filled = validate_params(method, params)
    except ServiceError:
        return
    if method not in ("predict_eq1", "advise", "classify", "plan"):
        return
    with tracer.span(f"backend.{method}", req=req):
        result = getattr(backend, method)(**filled)
    with tracer.span("protocol.encode", req=req):
        pre = getattr(result, "wire_pre", None)
        if pre is not None:  # warm tiers splice pre-encoded fragments
            encode_result_line(rid, pre, result["staleness_s"], result.wire_post)
        else:
            encode_message(result_response(rid, result))


def hits_ledger(tracer: Tracer, seed: int, wrong: list) -> tuple[dict, dict]:
    """The hits mix through the dispatch core in-process, then over TCP."""
    machine = reference_host()
    mix = serve.Mix(serve.HITS, seed, machine)
    lines = [r.payload.decode().strip() for r in mix.phase(1000.0, 3.0, 0.0)
             if r.conn >= 0]
    backend = AdvisoryBackend(machine)
    service = PlacementService(backend)
    backend.warm()
    for line in lines:  # warm-up: plan bases, advise memos
        service.handle_line(line)
    clock = time.perf_counter
    untraced = []
    # Each line runs untraced and traced, in alternating order: the
    # second call of a line finds it warmer, so neither side may always
    # go second.
    for i, line in enumerate(lines):
        if i % 2:
            t0 = clock()
            service.handle_line(line)
            untraced.append(clock() - t0)
        req = f"hit-{i}"
        with tracer.span("request", req=req):
            with tracer.span("service.handle_line", req=req):
                service.handle_line(line)
            _layers(tracer, req, line, backend)
        if not i % 2:
            t0 = clock()
            service.handle_line(line)
            untraced.append(clock() - t0)

    def p50_us(name: str) -> float:
        return median(tracer.durations(name)) * 1e6

    handle_p50_us = median(untraced) * 1e6
    metrics = {
        name + "_us": (p50_us(name), "us")
        for name in ("protocol.decode", "protocol.validate", "protocol.encode",
                     "backend.predict_eq1", "backend.advise",
                     "backend.classify", "backend.plan", "service.handle_line")
    }
    metrics["trace.overhead_pct.serve_hits"] = (
        _overhead_pct(p50_us("service.handle_line"), handle_p50_us), "%"
    )
    # The wire: the lowest ladder rate over TCP, against the same mix.
    step, scraped, eq1 = _serve_pass(serve.HITS, machine, mix,
                                     serve.HITS.ladder[0], wrong)
    metrics["transport.wire_tax_us"] = (step.p("hit", 0.5) * 1e3 - handle_p50_us, "us")
    metrics["gen.lag_ms.p99"] = (
        1e3 * quantile(step.lag_s, 0.99), "ms"
    )
    metrics["eq1_served_rel_err"] = (eq1, "ratio")
    return metrics, scraped


# --- serve_churn -------------------------------------------------------------


def churn_ledger(tracer: Tracer, seed: int, wrong: list) -> tuple[dict, dict]:
    """Tier-3 re-characterization in-process, then churn over TCP."""
    machine = hp_blade_32n()
    rng = random.Random(seed)
    keys = [(rng.choice(machine.node_ids), rng.choice(("write", "read")))
            for _ in range(24)]
    backend = AdvisoryBackend(machine, tier_max_staleness_s=0.0)
    backend.recharacterize(*keys[0])  # session and capacity warm-up
    untraced = []
    # Alternate which of the two solves of a key goes first: the second
    # finds the solver's allocation memo warm.
    for i, (target, mode) in enumerate(keys):
        for traced_turn in ((False, True) if i % 2 else (True, False)):
            if traced_turn:
                with tracer.span("backend.recharacterize", req=f"churn-{i}"):
                    backend.recharacterize(target, mode)
            else:
                t0 = time.perf_counter()
                backend.recharacterize(target, mode)
                untraced.append(time.perf_counter() - t0)
    traced_ms = median(tracer.durations("backend.recharacterize")) * 1e3
    mix = serve.Mix(serve.CHURN, seed, machine)
    _step, scraped, _eq1 = _serve_pass(serve.CHURN, machine, mix,
                                       serve.CHURN.reference_rate, wrong)
    return {
        "backend.recharacterize_ms": (traced_ms, "ms"),
        "trace.overhead_pct.serve_churn": (
            _overhead_pct(traced_ms, median(untraced) * 1e3), "%"
        ),
    }, scraped


def server_metrics(hits: dict, churn: dict) -> dict:
    """``server.*`` from the two ``metrics`` scrapes.

    Tier-1/2 figures come from the hits server (it answers nothing from
    tier 3), tier-3 and solve figures from the churn server (which
    answers nothing from tiers 1-2); error counts add up.
    """
    def hist_ms(payload: dict, name: str, q: float) -> float:
        """Quantile of a scraped histogram, interpolated in its bucket.

        The server reads quantiles as bucket upper bounds (~19 % wide
        buckets), which repeat run after run; interpolating by count
        inside the bucket keeps the measured variation.
        """
        hist = payload["histograms"].get(name)
        if not hist or not hist["count"]:
            raise BenchError(f"metrics scrape has no {name} samples")
        rank = q * hist["count"]
        seen = 0
        for upper, n in hist["buckets"]:
            if n and seen + n >= rank:
                lower = upper / HIST_BASE
                value = lower + (rank - seen) / n * (upper - lower)
                return 1e3 * min(max(value, hist["min"]), hist["max"])
            seen += n
        return 1e3 * hist["max"]

    out = {}
    for tier, src in (("1", hits), ("2", hits), ("3", churn)):
        out[f"server.tier_{tier}_answers"] = (
            hits["tiers"][tier] + churn["tiers"][tier], "count"
        )
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            out[f"server.latency_tier_{tier}_ms.{label}"] = (
                hist_ms(src, f"service.latency.tier.{tier}", q), "ms"
            )
    out["server.errors"] = (
        sum(hits["errors"].values()) + sum(churn["errors"].values()), "count"
    )
    for q, label in ((0.5, "p50"), (0.99, "p99")):
        out[f"server.solve_ms.{label}"] = (hist_ms(churn, "service.solve", q), "ms")
    return out


def run(seed: int) -> dict:
    """Every layer's numbers, plus one self-time table per workload."""
    wrong: list = []
    tables = {name: Tracer() for name in
              ("cli_reproduce", "sweep_64n", "serve_hits", "serve_churn")}
    metrics = cli_ledger(tables["cli_reproduce"], wrong)
    metrics.update(sweep_ledger(tables["sweep_64n"], seed, wrong))
    hits, hits_scrape = hits_ledger(tables["serve_hits"], seed, wrong)
    churn, churn_scrape = churn_ledger(tables["serve_churn"], seed, wrong)
    metrics.update(hits)
    metrics.update(churn)
    metrics.update(server_metrics(hits_scrape, churn_scrape))
    return {"metrics": metrics, "tables": tables, "wrong": wrong}
