"""Fig. 5 — SFT vs AssertSolver across bug types and code lengths.

Shape target: DPO's pass@1 is at least on par with SFT in most buckets
(the paper: improvement in nearly all scenarios, slight pass@5 decreases).
"""

import math

from repro.eval.reporting import render_fig5


def test_fig5_sft_vs_dpo(benchmark, pipeline, results):
    sft = results["SFT Model"]
    solver = results["AssertSolver"]

    def render():
        return render_fig5(sft, solver)

    figure = benchmark(render)
    print("\n" + figure)

    sft_types = sft.bucket_pass_at(1, by="bug_type")
    solver_types = solver.bucket_pass_at(1, by="bug_type")
    wins = ties = losses = 0
    for name, sft_score in sft_types.items():
        solver_score = solver_types.get(name, math.nan)
        if math.isnan(sft_score) or math.isnan(solver_score):
            continue
        if solver_score > sft_score + 1e-9:
            wins += 1
        elif solver_score < sft_score - 1e-9:
            losses += 1
        else:
            ties += 1
    print(f"\nDPO vs SFT pass@1 buckets: {wins} wins, {ties} ties, "
          f"{losses} losses")
    assert wins + ties >= losses
