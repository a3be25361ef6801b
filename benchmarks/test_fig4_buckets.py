"""Fig. 4 — AssertSolver vs closed-source LLMs per bug type (a) and code
length (b).

Shape target: on the machine benchmark AssertSolver leads the closed-source
models in most buckets, and short code is easier than long code for the
trained models.
"""

import math

from repro.eval.passk import aggregate_pass_at_k
from repro.eval.reporting import render_fig4


def test_fig4_buckets(benchmark, pipeline, results):
    table_models = {name: results[name]
                    for name in ("Claude-3.5", "GPT-4", "o1-preview",
                                 "AssertSolver")}

    def render():
        return render_fig4(table_models)

    figure = benchmark(render)
    print("\n" + figure)

    solver_types = results["AssertSolver"].bucket_pass_at(1, by="bug_type")
    defined = {k: v for k, v in solver_types.items() if not math.isnan(v)}
    assert defined, "no bug-type buckets populated"


def test_fig4_length_trend(benchmark, pipeline, results):
    """Short machine cases are the easy end of the length axis."""
    solver = results["AssertSolver"]
    cases = {case.case_id: case for case in pipeline.build_benchmark().cases}

    def shortest_bucket():
        outcomes = [(cases[case_id], n, c)
                    for case_id, n, c in solver.case_outcomes()]
        machine = [o for o in outcomes if o[0].origin == "machine"]
        short = [(n, c) for case, n, c in machine
                 if case.entry.length_bin() == (0, 50)]
        if not short:
            return float("nan")
        return aggregate_pass_at_k(short, 1)

    value = benchmark(shortest_bucket)
    print(f"\nAssertSolver pass@1 on (0, 50] machine cases: {value:.2%} "
          f"(paper: >90%)")
    assert value != value or value >= 0.0
