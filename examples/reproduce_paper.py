#!/usr/bin/env python
"""Full paper reproduction: every table and figure, one command.

Runs the complete pipeline (corpus -> augmentation -> PT/SFT/DPO training
-> SVA-Eval benchmark -> all baselines) and prints Tables I-IV plus Figs
3-5 with the paper's published numbers alongside ours.

Scale with --designs (default 80; larger is slower but statistically
smoother).

Run:  python examples/reproduce_paper.py [--designs N]
"""

import argparse
import sys
import time

from repro.core.api import AssertSolverPipeline, PipelineConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", type=int, default=80,
                        help="corpus size (paper: 108,971 raw samples)")
    parser.add_argument("--seed", type=int, default=2025)
    args = parser.parse_args()

    started = time.time()
    pipeline = AssertSolverPipeline(PipelineConfig(
        n_designs=args.designs, seed=args.seed))
    report = pipeline.report()
    print(report)
    print(f"\ntotal wall time: {time.time() - started:.0f}s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
