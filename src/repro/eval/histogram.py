"""The c-value histogram of the paper's Fig. 3.

For every evaluated case the model produced n = 20 responses, c of them
correct; the figure plots how many cases land at each c.  The paper's
observation: DPO moves mass toward the deterministic ends (c = 0 and
c = 20) relative to the SFT model.
"""

from __future__ import annotations

from typing import Dict, List

from repro.eval.report import EvalReport


def histogram_series(report: EvalReport, n: int = 20) -> List[int]:
    """Counts for c = 0..n as a dense list."""
    histogram = report.histogram()
    return [histogram.get(c, 0) for c in range(n + 1)]


def extremity_mass(report: EvalReport, n: int = 20) -> float:
    """Fraction of cases at the deterministic ends (c = 0 or c = n)."""
    if not report.n_cases:
        return 0.0
    extreme = sum(count for c, count in report.histogram().items()
                  if c in (0, n))
    return extreme / report.n_cases


def render_histogram(results: Dict[str, EvalReport], n: int = 20,
                     width: int = 40) -> str:
    """ASCII rendering of Fig. 3 (one row per c, one column per model)."""
    lines = []
    names = list(results)
    header = "c".rjust(4) + "".join(name.rjust(width // len(names) + 10)
                                    for name in names)
    lines.append(header)
    series = {name: histogram_series(report, n)
              for name, report in results.items()}
    for c in range(n + 1):
        row = [str(c).rjust(4)]
        for name in names:
            count = series[name][c]
            bar = "#" * min(count, width // len(names))
            row.append(f"{count:5d} {bar}".ljust(width // len(names) + 10))
        lines.append("".join(row))
    for name in names:
        lines.append(f"extremity mass ({name}): "
                     f"{extremity_mass(results[name], n):.2%}")
    return "\n".join(lines)
