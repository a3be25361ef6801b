"""Table/figure renderers: each function prints one artefact of the paper,
with the published numbers alongside ours where applicable."""

from __future__ import annotations

from typing import Dict

from repro.bugs.taxonomy import BUG_TYPE_ORDER, LENGTH_BINS, TABLE1_ROWS, length_bin_label
from repro.eval.report import EvalReport

# Published numbers, for side-by-side display.
PAPER_TABLE3 = {
    "Base Model": (4.35, 15.62),
    "SFT Model": (84.66, 91.64),
    "AssertSolver": (88.54, 90.00),
}

PAPER_TABLE4 = {
    "Claude-3.5": (74.86, 84.10, 66.58, 77.48, 74.52, 83.83),
    "GPT-4": (58.04, 78.45, 54.74, 74.01, 57.90, 78.27),
    "o1-preview": (76.96, 87.73, 67.50, 87.94, 76.57, 87.74),
    "Deepseek-coder-6.7b": (4.41, 15.85, 2.89, 10.27, 4.35, 15.62),
    "CodeLlama-7b": (5.95, 17.06, 4.47, 12.85, 5.89, 16.89),
    "Llama-3.1-8b": (20.18, 32.41, 14.08, 24.48, 19.92, 32.08),
    "AssertSolver": (89.04, 90.38, 76.97, 81.35, 88.54, 90.00),
}


def _pct(value) -> str:
    if value is None or value != value:  # empty split (None) or NaN
        return "   n/a"
    return f"{100 * value:6.2f}"


def render_table1() -> str:
    """Table I: the bug taxonomy, verbatim."""
    lines = ["Table I: Bug types leading to assertion failures"]
    header = (f"{'Type':<10} {'Expected':<28} {'Unexpected':<30} "
              f"{'Assertion':<20}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, _description, expected, unexpected, assertion in TABLE1_ROWS:
        lines.append(f"{name:<10} {expected:<28} {unexpected:<30} "
                     f"{assertion:<20}")
    return "\n".join(lines)


def render_table2(train_distribution: Dict[str, int],
                  eval_distribution: Dict[str, int]) -> str:
    """Table II: SVA-Bug / SVA-Eval counts across bins and bug types."""
    lines = ["Table II: distribution across code length intervals and bug types"]
    bin_names = [length_bin_label(b) for b in LENGTH_BINS]
    lines.append(f"{'interval':<12}" + "".join(n.rjust(12) for n in bin_names))
    for label, dist in (("SVA-Bug", train_distribution),
                        ("SVA-Eval", eval_distribution)):
        lines.append(f"{label:<12}"
                     + "".join(str(dist.get(n, 0)).rjust(12)
                               for n in bin_names))
    lines.append(f"{'bug type':<12}" + "".join(n.rjust(12)
                                               for n in BUG_TYPE_ORDER))
    for label, dist in (("SVA-Bug", train_distribution),
                        ("SVA-Eval", eval_distribution)):
        lines.append(f"{label:<12}"
                     + "".join(str(dist.get(n, 0)).rjust(12)
                               for n in BUG_TYPE_ORDER))
    lines.append("(paper, SVA-Bug:  3400/2444/921/431/646 by bin; "
                 "5478/2364/546/5104/2254/1573/6269 by type)")
    lines.append("(paper, SVA-Eval: 431/260/102/58/64 by bin; "
                 "615/300/47/601/274/204/711 by type)")
    return "\n".join(lines)


def render_table3(results: Dict[str, EvalReport]) -> str:
    """Table III: pass@k for Base vs SFT vs AssertSolver."""
    lines = ["Table III: model performance as pass@k (ours vs paper)"]
    lines.append(f"{'Metric':<10}" + "".join(name.rjust(24)
                                             for name in results))
    for k in (1, 5):
        row = [f"pass@{k}".ljust(10)]
        for name, report in results.items():
            ours = 100 * report.pass_at(k)
            paper = PAPER_TABLE3.get(name, (None, None))[0 if k == 1 else 1]
            cell = f"{ours:6.2f}%"
            if paper is not None:
                cell += f" (paper {paper:5.2f}%)"
            row.append(cell.rjust(24))
        lines.append("".join(row))
    return "\n".join(lines)


def render_table4(results: Dict[str, EvalReport]) -> str:
    """Table IV: all models x {Machine, Human, All} x pass@{1,5}."""
    lines = ["Table IV: comparison on SVA-Eval (ours | paper)"]
    header = (f"{'Model':<22}" + "Machine@1".rjust(10) + "Machine@5".rjust(10)
              + "Human@1".rjust(10) + "Human@5".rjust(10)
              + "All@1".rjust(10) + "All@5".rjust(10))
    lines.append(header)
    lines.append("-" * len(header))
    for name, report in results.items():
        ours = (
            report.pass_at_origin(1, "machine"),
            report.pass_at_origin(5, "machine"),
            report.pass_at_origin(1, "human"),
            report.pass_at_origin(5, "human"),
            report.pass_at(1),
            report.pass_at(5),
        )
        lines.append(f"{name:<22}" + "".join(_pct(v).rjust(10) for v in ours))
        paper = PAPER_TABLE4.get(name)
        if paper:
            lines.append(f"{'  (paper)':<22}"
                         + "".join(f"{v:6.2f}".rjust(10) for v in paper))
    return "\n".join(lines)


def render_bucket_figure(results: Dict[str, EvalReport], k: int,
                         by: str, title: str) -> str:
    """Fig. 4 / Fig. 5 panels: pass@k per bucket per model."""
    lines = [title]
    names = (BUG_TYPE_ORDER if by == "bug_type"
             else [length_bin_label(b) for b in LENGTH_BINS])
    lines.append(f"{'Model':<22}" + "".join(n.rjust(12) for n in names))
    for model_name, report in results.items():
        scores = report.bucket_pass_at(k, by=by)
        lines.append(f"{model_name:<22}"
                     + "".join(_pct(scores.get(n, float('nan'))).rjust(12)
                               for n in names))
    return "\n".join(lines)


def render_fig4(results: Dict[str, EvalReport]) -> str:
    parts = [
        render_bucket_figure(results, 1, "bug_type",
                             "Fig 4(a): pass@1 by bug type"),
        render_bucket_figure(results, 5, "bug_type",
                             "Fig 4(a): pass@5 by bug type"),
        render_bucket_figure(results, 1, "length",
                             "Fig 4(b): pass@1 by code length"),
        render_bucket_figure(results, 5, "length",
                             "Fig 4(b): pass@5 by code length"),
    ]
    return "\n\n".join(parts)


def render_fig5(sft: EvalReport, assertsolver: EvalReport) -> str:
    results = {"SFT Model": sft, "AssertSolver": assertsolver}
    parts = [
        render_bucket_figure(results, 1, "bug_type",
                             "Fig 5(a): pass@1 by bug type (SFT vs DPO)"),
        render_bucket_figure(results, 1, "length",
                             "Fig 5(a): pass@1 by code length (SFT vs DPO)"),
        render_bucket_figure(results, 5, "bug_type",
                             "Fig 5(b): pass@5 by bug type (SFT vs DPO)"),
        render_bucket_figure(results, 5, "length",
                             "Fig 5(b): pass@5 by code length (SFT vs DPO)"),
    ]
    return "\n\n".join(parts)
