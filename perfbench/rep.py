"""One repetition of one workload, run in a fresh interpreter by run.py.

Sets up the workload's inputs, runs its operations one after another
(a closed loop with one client), checks the outputs, and prints one
JSON object on standard output.  With --trace 1 the calls run under
spans, the repetition ends with the layer probe, and the spans are
written to --spans-out.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Result, layer_probe  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Recorded but not compared with the reference: a report may gain fields
# and the machine may find shorter reductions without any verdict changing.
UNCHECKED = ("cli.main.report_bytes", "realizability.steps")


def reference_counts(workload: str, size: str, seed: int) -> dict | None:
    """Counts recorded for this seed by make_reference.py, if any."""
    if size != "full":
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[workload].get(str(seed))


def layer_metrics(tr: Tracer, counts: Counter) -> dict:
    """Calls, busy and self time per span name and layer, plus counts."""
    out = {}
    for name, (calls, busy) in tr.busy().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
    for layer, self_s in tr.self_time_by_layer().items():
        out[f"{layer}.self_s"] = self_s
    out.update(counts)
    out["trace.spans"] = len(tr.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tr = Tracer(f"{args.workload}-seed{args.seed}-rep{args.rep}") if args.trace else NullTracer()
    layer_counts: Counter = Counter()
    if args.trace:
        wl.trace_layers(tr, layer_counts, args.size)

    counts: Counter = Counter()
    t0 = time.perf_counter()
    state = wl.setup(args.seed, args.size, tr, counts)
    setup_s = time.perf_counter() - t0
    ops = wl.ops(state, args.size, tr)

    results: list[Result] = []
    op_s: list[float] = []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            with tr.span(op.group):
                res = op.run()
        except Exception as exc:  # a raising call is a failed operation
            res = Result(0, {}, f"{op.group} raised {exc!r}")
        op_s.append(time.perf_counter() - t)
        results.append(res)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for res in results:
        counts.update(res.counts)
    failed, run_errors, context = wl.finish(state, ops, results, tr, counts)
    errors = {i: res.error for i, res in enumerate(results) if res.error}
    for i, msg in failed.items():
        errors.setdefault(i, msg)

    ref = reference_counts(args.workload, args.size, args.seed)
    if ref is not None:
        differ = {k for k in counts.keys() | ref.keys() if k not in UNCHECKED and counts.get(k) != ref.get(k)}
        for i, res in enumerate(results):
            if i not in errors and differ & res.counts.keys():
                errors[i] = f"counts differ from the reference: {sorted(differ & res.counts.keys())}"
        op_keys = set().union(*(res.counts.keys() for res in results))
        run_errors += [f"{k}: {counts.get(k)} against reference {ref.get(k)}" for k in sorted(differ - op_keys)]
    context["reference"] = ref is not None

    layers = None
    if args.trace:
        probe_counts: Counter = Counter()
        layer_probe(tr, probe_counts)
        layers = layer_metrics(tr, counts + layer_counts + probe_counts)
        if args.spans_out:
            tr.write(args.spans_out)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": sum(res.work for res in results),
        "work_unit": wl.work_unit,
        "op_s": op_s,
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": [errors[i] for i in sorted(errors)][:5] + run_errors,
        "counts": dict(sorted(counts.items())),
        "context": context,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
