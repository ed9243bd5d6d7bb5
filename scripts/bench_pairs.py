#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, written as one JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out FILE

For each workload in ``PLAN`` and pair k, ``bench/run.py --workload W
--seed SEED0 + k --seconds SECONDS`` runs once in each checkout; even pairs
run the parent first, odd pairs the change.  The file records the plan,
every run, and per workload and end-to-end metric the medians and quartiles
of both sides and the number of pairs the change wins (lower is better;
ties count for neither).  Each workload then runs once more per side with
``--trace 1`` (seed ``SEED0``), which gives the per-layer counts, and the
strip-solution work of one sweep height is counted directly: points
evaluated by the adaptive Herglotz engine and by the batched one, with
their integrand evaluations.  The host's core count and the numpy and
Python versions go in too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# every workload of BENCHMARK.json, ten pairs each, at its run length
PLAN = (("sweep", 10), ("points", 10), ("closed_form", 10))
SECONDS = 30
SEED0 = 101

# what one sweep height costs the Herglotz engines; run in each checkout
_COUNT_HERGLOTZ = """
import json, sys
sys.path.insert(0, "src")
from quiltlab import analysis, verify
counts = dict.fromkeys(("adaptive_points", "adaptive_evals", "batch_calls",
                        "batch_points", "batch_evals", "batch_misses"), 0)
adaptive, batch = analysis._herglotz, getattr(analysis, "herglotz_batch",
                                              None)
def counted(*args, **kwargs):
    out = adaptive(*args, **kwargs)
    counts["adaptive_points"] += 1
    counts["adaptive_evals"] += out[3]
    return out
analysis._herglotz = counted
if batch is not None:
    def batched(w, *args, **kwargs):
        out = batch(w, *args, **kwargs)
        counts["batch_calls"] += 1
        counts["batch_points"] += len(w)
        counts["batch_evals"] += out.evaluations
        counts["batch_misses"] += int((~out.ok).sum())
        return out
    analysis.herglotz_batch = batched
    import quiltlab.catalog
    quiltlab.catalog.herglotz_batch = batched
verify.sweep_family("all", [0.5], limit_checks=False)
print(json.dumps(counts))
"""

_TRACED = ("analysis.log_f.calls", "analysis.f_and_derivative.calls",
           "analysis.boundary_modulus.calls",
           "analysis.boundary_modulus.unconverged",
           "quadrature.integrate_interval.calls",
           "quadrature.integrate_interval.evals",
           "quadrature.integrate_line.evals", "verify.patch_area.s",
           "verify.seam_residual_profile.s")


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _bench(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    return _last_json(out.stdout)


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    import numpy
    record = {"command": "python3 bench/run.py --workload W --seed N "
                         f"--seconds {SECONDS}",
              "plan": {"pairs": dict(PLAN), "seed0": SEED0},
              "host": {"nproc": os.cpu_count(), "numpy": numpy.__version__,
                       "python": platform.python_version()},
              "workloads": {}}
    for workload, pairs in PLAN:
        runs = []
        for k in range(pairs):
            seed = SEED0 + k
            order = ("parent", "change") if k % 2 == 0 else \
                ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = _bench(sides[side], workload, seed)
                print(workload, seed, side,
                      {m: round(v["value"], 4) for m, v in
                       run[side]["metrics"].items()}, flush=True)
            runs.append(run)
        metrics = {}
        for name in runs[0]["parent"]["metrics"]:
            got = {side: [r[side]["metrics"][name]["value"] for r in runs]
                   for side in sides}
            metrics[name] = {
                "parent": _summary(got["parent"]),
                "change": _summary(got["change"]),
                "change_wins": sum(c < p for p, c in zip(got["parent"],
                                                         got["change"])),
                "pairs": pairs}
        traced = {}
        for side, root in sides.items():
            t = _bench(root, workload, SEED0, trace=1)
            traced[side] = {"attempted": t["attempted"],
                            "failed": t["failed"],
                            **{k: t["metrics"][k]["value"] for k in _TRACED
                               if k in t["metrics"]}}
        record["workloads"][workload] = {
            "metrics": metrics, "traced_seed": SEED0,
            "traced": traced, "runs": runs,
            "failed": {side: sum(r[side]["failed"] for r in runs)
                       for side in sides}}
    record["herglotz_one_sweep_height_h0.5"] = {
        side: _last_json(subprocess.run(
            [sys.executable, "-c", _COUNT_HERGLOTZ], cwd=root,
            capture_output=True, text=True, check=True).stdout)
        for side, root in sides.items()}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
