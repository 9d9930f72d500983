"""Record reference counts for the benchmark seeds in reference.json.

    python3 perfbench/make_reference.py 0 31

Runs one untraced repetition of every workload per seed and stores its
deterministic counts; run.py then fails any operation whose counts
differ.  Run it only on a commit whose counts are known good, never on
the change being measured.  For `suites` the per-scene check counts are
also compared with one multi-scene `run_suite` call per suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nucforce.hmodel import SUITES, Corpus, build_corpus, run_suite  # noqa: E402
from rep import UNCHECKED  # noqa: E402
from workloads import SUITE_STRIDE  # noqa: E402


def rep_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["failed"] or out["errors"]:
        raise SystemExit(f"{workload} seed {seed}: {out['errors']}")
    return {k: v for k, v in out["counts"].items() if k not in UNCHECKED}


def multi_scene_checks(seed: int) -> dict:
    sample = Corpus(build_corpus(seed=seed).scenes[::SUITE_STRIDE], seed)
    return {f"hmodel.suite.{name}.checks": run_suite(name, sample).checks for name in SUITES}


def main(first: int, last: int) -> None:
    path = HERE / "reference.json"
    with open(path) as fh:
        ref = json.load(fh)
    for seed in range(first, last + 1):
        for workload in ref:
            counts = rep_counts(workload, seed)
            if workload == "suites":
                for key, checks in multi_scene_checks(seed).items():
                    if counts[key] != checks:
                        raise SystemExit(f"seed {seed}: {key} is {counts[key]} per scene, {checks} in one call")
            ref[workload][str(seed)] = counts
        print(f"seed {seed} recorded", flush=True)
        write(path, ref)


def write(path: Path, ref: dict) -> None:
    """One line per workload and seed."""
    blocks = []
    for workload, seeds in ref.items():
        rows = ",\n".join(f"    {json.dumps(s)}: {json.dumps(seeds[s], sort_keys=True)}"
                          for s in sorted(seeds, key=int))
        blocks.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}" if rows else f"  {json.dumps(workload)}: {{}}")
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
