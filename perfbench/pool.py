"""Choose the pipeline seeds the ``datagen`` workload draws from.

    python3 perfbench/pool.py --candidates 40 --repeats 2 --keep 16

A 24-design ``run_pipeline`` call costs between 0.7x and 1.4x the
median, depending on the designs and mutants its seed draws (the cost
varies within a template family as much as between families).  This
script times ``--candidates`` calls ``--repeats`` times each, each time
in a fresh interpreter with timings normalized for host speed
(``probe.py``), and prints the
``--keep`` seeds whose cost is closest to the median, for
``workloads.DATAGEN_SEED_POOL``.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--candidates", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--keep", type=int, default=16)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    costs = {}
    for index in range(args.candidates):
        seed = workloads.sub_seed("datagen-pool", index)
        costs[seed] = statistics.mean(
            run.normalized(run.run_rep({"workload": "datagen", "seed": seed},
                                       traced=False))["timed_s"]
            for _ in range(args.repeats))
        print(f"{index:3d} seed {seed:10d} {costs[seed]:7.3f} s", flush=True)
    median = statistics.median(costs.values())
    kept = sorted(costs, key=lambda seed: abs(costs[seed] - median))
    kept = kept[:args.keep]
    worst = max(abs(costs[seed] / median - 1.0) for seed in kept)
    print(f"median {median:.3f} s; kept seeds within {100 * worst:.1f} %")
    print(sorted(kept))
    return 0


if __name__ == "__main__":
    sys.exit(main())
