"""One benchmark repetition in a fresh interpreter.

Reads a job (see :mod:`workloads`) as JSON on stdin, runs it, and prints
the measurements as one JSON line on stdout.  ``run.py`` starts one of
these per repetition; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

import workloads
from probe import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    # One core for every thread of the repetition: the speed probe then
    # measures the core the work runs on, and no migration between the
    # host's unevenly loaded vCPUs lands inside a timing.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    job = json.loads(sys.stdin.read())
    probe = SpeedProbe().start()

    def on_ready() -> None:
        # Set-up time is normalized for every workload, the timed part
        # only for the CPU-bound ones.  Elsewhere the probe's loop would
        # hold the interpreter lock inside measured requests.
        if job["workload"] not in workloads.CPU_BOUND:
            probe.stop()

    # Installed before set-up, so set-up phases (model training) are
    # timed too; the workload resets the counts when set-up ends.
    tracer = Tracer().install() if job.get("trace") else None
    try:
        rep = workloads.run(job, tracer, on_ready)
    finally:
        if tracer is not None:
            tracer.uninstall()
        samples = probe.stop()
    result = rep.to_dict()
    result["probe"] = samples
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
