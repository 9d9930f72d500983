"""nucforce benchmark: run one workload for a given time and print its metrics.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Repetitions of the workload run one
after another, each in a fresh interpreter (perfbench/rep.py), until
--seconds would be passed by the next one; there are at least three.  With --trace 0 the last
line of standard output carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics, taken from traced repetitions that
alternate with untraced ones.  The line before it carries context that
no bound applies to.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"
DEADLINE_S = 170  # the whole run, repetitions included, ends within this
MIN_REPS = 3  # the median of three ignores one repetition slowed by the host
MODULES = ("algebra", "nucleus", "formula", "translate", "hmodel", "realizability", "cli")


def run_rep(args, rep: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(traced)), "--rep", str(rep)]
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(SPANS_DIR / f"{args.workload}-seed{args.seed}-rep{rep}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1), env=env)
    except subprocess.TimeoutExpired:
        return {"crashed": f"repetition {rep} passed the {DEADLINE_S} s deadline"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"repetition {rep} exited {proc.returncode}: {tail[0]}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    return out


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(reps: list[dict]) -> dict:
    ops = sorted(t for r in reps for t in r["op_s"])
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in reps),
        "op_p50_ms": 1e3 * quantile(ops, 0.50),
        "op_p99_ms": 1e3 * quantile(ops, 0.99),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    names = set().union(*(r["layers"] for r in traced))
    out = {name: statistics.median(r["layers"].get(name, 0) for r in traced) for name in names}

    def total(prefix: str, suffix: str) -> float:
        return sum(v for k, v in out.items() if k.startswith(prefix) and k.endswith(suffix))

    out["hmodel.checks_per_s"] = total("hmodel.suite.", ".checks") / total("hmodel.suite.", ".busy_s")
    out["realizability.steps_per_s"] = out["realizability.steps"] / out["realizability.apply.busy_s"]
    verdicts = total("realizability.verdicts.", "")
    out["realizability.exhausted_frac"] = out.get("realizability.verdicts.exhausted", 0) / verdicts
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1
    return out


def src_lines() -> dict:
    return {m: len((ROOT / "src" / "nucforce" / f"{m}.py").read_text().splitlines()) for m in MODULES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("suites", "wide-search", "machine"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny runs a few operations, for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nucforce" / "__init__.py").is_file():
        print(f"error: no nucforce sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        # start another repetition only if it is expected to end in time
        if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed >= DEADLINE_S:
            break
        # a traced run alternates untraced and traced repetitions
        rep = run_rep(args, len(reps), bool(args.trace) and len(reps) % 2 == 1, DEADLINE_S - elapsed)
        reps.append(rep)
        durations.append(time.perf_counter() - start - elapsed)
        if "crashed" in rep:
            break

    crashed = [r["crashed"] for r in reps if "crashed" in r]
    done = [r for r in reps if "crashed" not in r]
    attempted = sum(r["attempted"] for r in done) + len(crashed)
    failed = sum(r["failed"] for r in done) + len(crashed)
    errors = crashed + [e for r in done for e in r["errors"]]
    # deterministic counts, CLI report bytes included, repeat exactly
    if any(r["counts"] != done[0]["counts"] for r in done):
        errors.append("deterministic counts differ between repetitions")
    correct = not errors and failed == 0

    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    metrics = {}
    if not crashed:
        if args.trace:
            values, wanted = per_layer(traced, untraced), spec["per_layer"]
        else:
            values, wanted = end_to_end(untraced), spec["end_to_end"]
        # a count the run never incremented is absent from `values`
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    context = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "repetitions": len(reps), "traced_repetitions": len(traced),
        "work_unit": done[0]["work_unit"] if done else None,
        "work_per_repetition": [r["work"] for r in done],
        "wall_s_per_repetition": [r["wall_s"] for r in done],
        "op_samples": sum(len(r["op_s"]) for r in untraced),
        "fail_frac": failed / attempted,
        "errors": errors[:10],
        "counts": done[0]["counts"] if done else {},
        "notes": done[0]["context"] if done else {},
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
