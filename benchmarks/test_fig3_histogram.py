"""Fig. 3 — histogram of correct answers across 20 responses.

Shape target: the AssertSolver (DPO) histogram concentrates more mass at
the deterministic ends (c = 0 and c = 20) than the SFT model — the paper's
precision-for-diversity trade-off.
"""

from repro.eval.histogram import extremity_mass, histogram_series, render_histogram


def test_fig3_histogram(benchmark, pipeline, results):
    sft = results["SFT Model"]
    solver = results["AssertSolver"]

    def render():
        return render_histogram({"SFT Model": sft, "AssertSolver": solver},
                                n=pipeline.config.n_samples)

    figure = benchmark(render)
    print("\n" + figure)

    n = pipeline.config.n_samples
    sft_series = histogram_series(sft, n)
    solver_series = histogram_series(solver, n)
    assert sum(sft_series) == sum(solver_series) == sft.n_cases

    assert extremity_mass(solver, n) >= extremity_mass(sft, n) - 0.05
