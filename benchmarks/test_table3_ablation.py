"""Table III — Base vs SFT vs AssertSolver pass@k (the RQ1 ablation).

Shape targets from the paper: Base << SFT on both metrics; DPO raises
pass@1 relative to SFT while pass@5 does not improve commensurately.
"""

from repro.eval.reporting import render_table3
from repro.model.assertsolver import Problem


def test_table3_ablation(benchmark, pipeline, results):
    table = render_table3(pipeline.table3_results())
    print("\n" + table)

    base = results["Base Model"]
    sft = results["SFT Model"]
    solver = results["AssertSolver"]

    def measure():
        case = pipeline.build_benchmark().machine[0]
        return pipeline.assertsolver.generate(
            Problem.from_entry(case.entry), n=20)

    benchmark(measure)

    origins = {case.case_id: case.origin
               for case in pipeline.build_benchmark().cases}
    machine = [case_id for case_id, _, _ in sft.case_outcomes()
               if origins[case_id] == "machine"]
    assert base.pass_at(1) < 0.2
    assert sft.pass_at_origin(1, "machine") > base.pass_at(1) + 0.3
    assert solver.pass_at_origin(1, "machine") >= \
        sft.pass_at_origin(1, "machine") - 0.05
    assert len(machine) > 0
