"""Ablation benches beyond the paper's tables (DESIGN.md extensions):

- PT-off: the SFT ranker without the pretrained LM loses pass@1 — the
  quantitative version of the paper's claim that continual pretraining
  boosts downstream performance.
- DPO beta sweep: the preference-strength knob of Section III-C.
"""

from repro.eval.config import EvalConfig
from repro.eval.runner import run_eval
from repro.model.assertsolver import AssertSolver


def test_ablation_pt_off(benchmark, pipeline):
    bundle = pipeline.run_datagen()
    cases = pipeline.build_benchmark().machine

    def train_without_pt():
        model = AssertSolver(seed=3, name="SFT-noPT")
        # no pretrain() call: the LM features degrade to constants
        model.train_sft(bundle.sva_bug_train, bundle.verilog_bug, epochs=8)
        return model

    model = benchmark.pedantic(train_without_pt, rounds=1, iterations=1)
    no_pt = run_eval(model, cases, EvalConfig(n_samples=10))
    with_pt = pipeline.evaluate()["SFT Model"]
    print(f"\nPT ablation (machine pass@1): with PT = "
          f"{with_pt.pass_at_origin(1, 'machine'):.2%}, "
          f"without PT = {no_pt.pass_at(1):.2%}")
    assert no_pt.pass_at(1) <= with_pt.pass_at_origin(1, "machine") + 0.05


def test_ablation_dpo_beta_sweep(benchmark, pipeline):
    pipeline.run_datagen()
    cases = pipeline.build_benchmark().machine
    sft = pipeline.sft_model

    def sweep():
        scores = {}
        for beta in (0.05, 0.1, 0.5):
            model = sft.clone_checkpoint(f"dpo-beta{beta}")
            model._train_examples = sft._train_examples
            model.train_dpo(beta=beta)
            result = run_eval(model, cases, EvalConfig(n_samples=10))
            scores[beta] = result.pass_at(1)
        return scores

    scores = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nDPO beta sweep (machine pass@1, paper uses beta=0.1):")
    for beta, score in scores.items():
        print(f"  beta={beta}: {score:.2%}")
    baseline = pipeline.evaluate()["SFT Model"].pass_at_origin(1, "machine")
    assert max(scores.values()) >= baseline - 0.1
