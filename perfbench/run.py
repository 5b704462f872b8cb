"""The repository benchmark: one command, four workloads, one ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_hits --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py compare RESULTS_A RESULTS_B

With ``--trace 0`` a workload runs untraced and prints its end-to-end
metrics; with ``--trace 1`` the run prints the per-layer ledger of
every layer instead.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); everything above
it is for people.  A failed correctness gate prints ``correct: false``
and exits 1.  Each run also saves its full result, with an environment
stamp, under ``.perfbench_out/results`` (or ``--out``) for ``compare``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from common import (
    OUT,
    BenchError,
    env_stamp,
    median,
    quantile,
    require_program,
    use_program_in_process,
)

WORKLOADS = ("cli_reproduce", "sweep_64n", "serve_hits", "serve_churn")

#: The end-to-end metrics every workload reports, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _closed_loop(module, seed: int, seconds: float, named, note: str) -> dict:
    """``cli_reproduce`` / ``sweep_64n``: one timed operation after another."""
    r = module.run(seed, seconds)
    walls = r["op_s"]
    name, value, unit = named(r)
    return {
        "e2e": {
            "setup_s": r["setup_s"],
            "latency_ms.p50": 1e3 * median(walls),
            "throughput_per_s": r["ops_per_s"],
            "peak_rss_mb": r["peak_rss_mb"],
        },
        "named": {name: (value, unit)},
        "attempted": r["attempted"],
        "failed": r["failed"],
        "wrong": r["wrong"],
        "samples": {"setup_s": r["setup_samples_s"], "op_s": walls},
        "notes": [note.format(n=len(walls), **r)],
    }


def _serve(name: str, seed: int, seconds: float) -> dict:
    import serve

    profile = serve.PROFILES[name]
    r = serve.run(profile, seed, seconds)
    ref = r["reference"]
    kind = r["kind"]
    prefix = "hit" if kind == "hit" else "solve"
    attempted = ref.attempted
    failed = ref.refused + ref.oversize_failed
    sat = r["saturated"]
    named = {
        f"{prefix}_max_rps.best_1s": (sat.best_second_rate(), "1/s"),
        f"{prefix}_max_rps": (sat.goodput(), "1/s"),
        f"{prefix}_latency_ms.p50.best_1s": (ref.best_second_p50_ms(), "ms"),
        f"{prefix}_latency_ms.p50": (ref.p(kind, 0.5), "ms"),
        f"{prefix}_latency_ms.p99": (ref.p(kind, 0.99), "ms"),
        "gen.lag_ms.p99": (1e3 * quantile(ref.lag_s, 0.99), "ms"),
    }
    if r["eq1_served_rel_err"] is not None:
        named["eq1_served_rel_err"] = (r["eq1_served_rel_err"], "ratio")
        if r["eq1_served_rel_err"] > 0.06:
            r["wrong"].append(
                f"served Eq. 1 error {r['eq1_served_rel_err']:.3f} > 0.06"
            )
    notes = [
        f"open loop over 2 connections, reference rate "
        f"{profile.reference_rate:g}/s; p99 limit {profile.p99_limit_ms:g} ms "
        f"met up to ~{r['ladder_max_rate']:.0f}/s (tail figures are not gated)",
        f"{'rate/s':>8s} {'n':>6s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'lag p99':>8s} {'refused':>7s} {'oversize':>9s}",
    ]
    for step in r["steps"]:
        n = len(step.latencies(kind))
        notes.append(
            f"{step.rate:8.0f} {n:6d} {step.p(kind, 0.5):8.3f} "
            f"{step.p(kind, 0.99):8.3f} "
            f"{1e3 * quantile(step.lag_s, 0.99):8.3f} {step.refused:7d} "
            f"{step.oversize_failed:4d}/{step.oversize_sent:<4d}"
        )
    notes.append(
        f"saturated: closed loop, {profile.window} in flight per connection: "
        f"{sat.goodput():.1f} correct {prefix}s/s, "
        f"p50 {sat.p(kind, 0.5):.3f} ms, p99 {sat.p(kind, 0.99):.3f} ms"
    )
    if ref.oversize_sent:
        notes.append(
            f"oversized (>64 KiB) lines: {ref.oversize_failed} of "
            f"{ref.oversize_sent} got no typed invalid_request (known defect)"
        )
    return {
        "e2e": {
            "setup_s": r["setup_s"],
            "latency_ms.p50": ref.best_second_p50_ms(),
            "throughput_per_s": sat.best_second_rate(),
            "peak_rss_mb": r["peak_rss_mb"],
        },
        "named": named,
        "attempted": attempted,
        "failed": failed,
        "wrong": r["wrong"],
        "samples": {
            "setup_s": r["setup_samples_s"],
            "steps": [
                {"rate": s.rate, "n": len(s.latencies(kind)),
                 "p50_ms": s.p(kind, 0.5), "p99_ms": s.p(kind, 0.99),
                 "lag_p99_ms": 1e3 * quantile(s.lag_s, 0.99),
                 "refused": s.refused, "tiers": s.tiers}
                for s in r["steps"]
            ],
            "saturated_done": len(sat.done_lat),
        },
        "notes": notes,
    }


def untraced(workload: str, seed: int, seconds: float) -> dict:
    if workload == "cli_reproduce":
        import cli

        out = _closed_loop(
            cli, seed, seconds,
            lambda r: ("cli_wall_s.p50", median(r["op_s"]), "s"),
            "{n} invocations of `repro-numa experiment all`",
        )
    elif workload == "sweep_64n":
        import sweep

        out = _closed_loop(
            sweep, seed, seconds,
            lambda r: ("sweep_targets_per_s", r["ops_per_s"], "1/s"),
            "{n} sweeps of 64 targets x 2 modes, output digest {digest:.16}",
        )
    else:
        out = _serve(workload, seed, seconds)
    out["named"] = {
        "setup_s": (out["e2e"]["setup_s"], "s"),
        **out["named"],
        "error_rate": (out["failed"] / out["attempted"], "ratio"),
        "peak_rss_mb": (out["e2e"]["peak_rss_mb"], "MB"),
    }
    out["metrics"] = {
        name: {"value": out["e2e"][name], "unit": unit}
        for name, unit in END_TO_END
    }
    return out


def traced(workload: str, seed: int) -> dict:
    import ledger

    r = ledger.run(seed)
    tables = r["tables"]
    OUT.mkdir(parents=True, exist_ok=True)
    notes = []
    for name in (workload,) + tuple(w for w in WORKLOADS if w != workload):
        tables[name].dump(OUT / f"spans-{name}-seed{seed}.json")
        notes.append(tables[name].render_self_times(f"self time, {name}"))
    attempted = sum(len(t.spans) for t in tables.values())
    return {
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in r["metrics"].items()
        },
        "named": {},
        "attempted": attempted,
        "failed": 0,
        "wrong": r["wrong"],
        "samples": {},
        "notes": notes,
    }


def _save(result: dict, args, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results",
                        help="directory for the saved result (for compare)")
    args = parser.parse_args(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    use_program_in_process()
    stamp = env_stamp()
    try:
        if args.trace:
            out = traced(args.workload, args.seed)
        else:
            out = untraced(args.workload, args.seed, args.seconds)
    except (BenchError, OSError, ValueError, KeyError):
        traceback.print_exc()
        return 3
    correct = not out["wrong"]
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": stamp,
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"], "metrics": out["metrics"],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in out["named"].items()},
        "wrong": out["wrong"], "samples": out["samples"],
    }
    saved = _save(result, args, args.out)
    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}) at "
          f"{stamp['commit'][:12]} src {stamp['source_digest']}, "
          f"python {stamp['python']} numpy {stamp['numpy']} scipy "
          f"{stamp['scipy']}, nproc {stamp['nproc']}, loadavg {stamp['loadavg']}")
    for line in out["notes"]:
        print(line)
    for name, (value, unit) in out["named"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, entry in out["metrics"].items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    for problem in out["wrong"][:20]:
        print(f"GATE FAILED: {problem}")
    print(f"saved {saved}")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
