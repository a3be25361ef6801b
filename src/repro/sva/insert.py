"""Insertion of SVA property/assertion source into a design.

Stage 2 of the pipeline takes generated SVA text and embeds it into the
Verilog module before validation.  :func:`compile_with_sva` is the one
splice: the blocks go in textually, before ``endmodule``, and the
combined source is compiled.  RTL lines keep their numbers, and
``write_module(result.module)`` renders the canonical combined artefact.
A proposal that does not compile is reported in the result, never
raised — which is precisely how the pipeline detects hallucinated SVAs
with syntax problems.
"""

from __future__ import annotations

from typing import List

from repro.verilog.compile import CompileResult, compile_source


def compile_with_sva(source: str, sva_blocks: List[str]) -> CompileResult:
    """Insert and compile, returning the full result (never raises for
    source-level failures)."""
    marker = "endmodule"
    index = source.rfind(marker)
    if index < 0:
        result = CompileResult(source)
        from repro.verilog.errors import Diagnostic
        result.diagnostics.append(
            Diagnostic(Diagnostic.ERROR, "design has no 'endmodule'", 0))
        return result
    blob = "\n".join(sva_blocks)
    combined = source[:index] + blob + "\n" + source[index:]
    return compile_source(combined)
