"""Simulation traces: per-cycle snapshots of every signal.

``trace[i]`` is the stable (post-edge, post-settle) environment after clock
edge ``i``.  The SVA monitor samples these snapshots; ``$past(e, n)`` at
cycle ``i`` evaluates ``e`` over ``trace[i - n]``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.sim.values import FourState

Snapshot = Dict[str, FourState]


class Trace:
    """An append-only sequence of signal snapshots."""

    def __init__(self, signal_names: Optional[List[str]] = None):
        self.signal_names = list(signal_names or [])
        self.snapshots: List[Snapshot] = []
        self.inputs_applied: List[Dict[str, int]] = []
        #: Leading snapshots replayed by a
        #: :class:`repro.sim.runloop.ExhaustiveWalker`, and the walker
        #: node of every snapshot (0 and empty for a plain run).
        self.shared = 0
        self.nodes: list = []

    def append(self, snapshot: Snapshot, inputs: Optional[Dict[str, int]] = None) -> None:
        self.snapshots.append(dict(snapshot))
        self.inputs_applied.append(dict(inputs or {}))

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, index: int) -> Snapshot:
        return self.snapshots[index]

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self.snapshots)

    def value(self, name: str, cycle: int) -> FourState:
        return self.snapshots[cycle][name]

    def column(self, name: str) -> List[FourState]:
        return [snap[name] for snap in self.snapshots]

    def to_table(self, signals: Optional[List[str]] = None,
                 first: int = 0, last: Optional[int] = None) -> str:
        """Render a waveform-style text table (used in failure logs)."""
        if not self.snapshots:
            return "(empty trace)"
        signals = signals or self.signal_names or sorted(self.snapshots[0])
        last = len(self.snapshots) if last is None else min(last, len(self.snapshots))
        header = "cycle".ljust(8) + " ".join(name.rjust(max(len(name), 4))
                                             for name in signals)
        rows = [header]
        for i in range(first, last):
            cells = []
            for name in signals:
                value = self.snapshots[i].get(name)
                if value is None:
                    text = "-"
                elif value.has_x:
                    text = "x" if value.all_x else value.to_verilog()
                else:
                    text = str(value.to_int())
                cells.append(text.rjust(max(len(name), 4)))
            rows.append(str(i).ljust(8) + " ".join(cells))
        return "\n".join(rows)
