"""Compare two result sets: ``python3 perfbench/run.py compare A B``.

``A`` (the parent) and ``B`` (the change) are directories of untraced
results saved by ``run.py`` (one file per workload and seed).  For
every workload and end-to-end metric it prints each side's median and
quartiles, the share of same-seed pairs the change won, and a verdict
under the bounds in ``BENCHMARK.json``:

* ``regression`` -- the change's median is worse by more than the bound;
* ``unresolved`` -- the parent's own quartile spread exceeds the bound
  and the change does not beat every parent run;
* ``gain`` -- the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile spread;
* ``same`` -- otherwise.

Results from different hosts are refused: the point is a same-host A/B.
Exits 1 on any regression, 2 on refused input.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from common import ROOT, quartiles


def _load(directory: Path) -> list[dict]:
    results = []
    for path in sorted(directory.glob("*-trace0-seed*.json")):
        result = json.loads(path.read_text())
        if result.get("correct"):
            results.append(result)
    return results


def _verdict(a: list, b: list, better: str, bound: float) -> tuple[str, "float | None"]:
    """``a``/``b``: (seed, value) runs of the parent and the change.

    Returns the verdict and the share of same-seed pairs the change
    won (``None`` without any same-seed pair).
    """
    sign = -1.0 if better == "lower" else 1.0
    values_a = [v for _s, v in a]
    values_b = [v for _s, v in b]
    qa1, ma, qa3 = quartiles(values_a)
    _qb1, mb, _qb3 = quartiles(values_b)
    by_seed = dict(a)
    pairs = [(by_seed[s], v) for s, v in b if s in by_seed]
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = won / len(pairs) if pairs else None
    worse = sign * (ma - mb) / abs(ma) if ma else 0.0
    spread = (qa3 - qa1) / abs(ma) if ma else 0.0
    if worse > bound:
        return "regression", share
    all_better = all(sign * (y - x) > 0 for x in values_a for y in values_b)
    if spread > bound and not all_better:
        return "unresolved", share
    if share is not None and share >= 0.9 and abs(mb - ma) > (qa3 - qa1):
        return "gain", share
    return "same", share


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py compare")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": _load(args.parent), "change": _load(args.change)}
    for name, results in sides.items():
        if not results:
            print(f"compare: no correct untraced results in {getattr(args, name)}")
            return 2
    hosts = {r["env"]["host"] for rs in sides.values() for r in rs}
    if len(hosts) != 1:
        print(f"compare: refusing results from different hosts: {sorted(hosts)}")
        return 2
    for name, results in sides.items():
        commits = sorted({(r["env"]["commit"][:12], r["env"]["source_digest"])
                          for r in results})
        print(f"{name}: {len(results)} results, commit/sources {commits}")
    print(f"{'workload':14s} {'metric':18s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'won':>5s} verdict")
    regressions = 0
    workloads = sorted({r["workload"] for rs in sides.values() for r in rs})
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a, b = (
                [(r["seed"], r["metrics"][name]["value"])
                 for r in sides[side] if r["workload"] == workload]
                for side in ("parent", "change")
            )
            if not a or not b:
                continue
            verdict, share = _verdict(a, b, metric["better"], metric["bound"])
            regressions += verdict == "regression"
            qa = "/".join(f"{x:.4g}" for x in quartiles([v for _s, v in a]))
            qb = "/".join(f"{x:.4g}" for x in quartiles([v for _s, v in b]))
            won = "-" if share is None else f"{share:.0%}"
            print(f"{workload:14s} {name:18s} {qa:>30s} {qb:>30s} "
                  f"{won:>5s} {verdict} (bound {metric['bound']:.0%})")
    return 1 if regressions else 0
