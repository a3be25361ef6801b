"""Coverage collection shared by both simulation tiers.

A :class:`CoverageSink` attaches to a simulator (``simulator.cov = sink``)
and observes every trace snapshot the run appends:

Collection is **lazy and batched**: the simulator hands :meth:`begin_run`
the run's (shared, growing) snapshot list and the sink stacks runs up
until :meth:`report`, where it walks every accumulated run in one
column-wise pass per signal (with C-speed column extraction and an
identity-set fast path for unchanged columns).  The hot simulation loop
therefore pays nothing per cycle, and early-exited (abandoned) runs are
observed exactly up to the last appended snapshot.  Snapshots a run
replayed by an exhaustive walker are not walked again: their counts
come from the walker's nodes (see :meth:`CoverageSink.begin_run`).

- **toggle coverage** — per-signal bitmasks of observed 0->1 (rise) and
  1->0 (fall) transitions between consecutive snapshots, counted only on
  bits that are known (non-X) on both sides;
- **block coverage** — per-``assign`` / per-``always`` execution counts,
  where "fired" means *some target signal changed value* between
  consecutive snapshots (raw body executions differ between the
  interpreter's fixpoint settle and the compiled tier's single-sweep
  settle, so they can never be the cross-tier currency — observable state
  changes can);
- **assertion quality** — activations, vacuous passes, real passes and
  fails per assertion label, counted by the SVA monitor
  (:mod:`repro.sva.monitor`) and handed to :meth:`CoverageSink.report`
  by the BMC driver.

Everything is keyed by stable IDs: signal name, ``assign[i]`` /
``comb[i]`` / ``seq[i]`` in design order, assertion label.  Both tiers
produce byte-identical snapshot sequences, so a sink fed by the
interpreter and one fed by a compiled program report **byte-identical
coverage** — the differential suite in ``tests/test_cov.py`` holds this
contract over every corpus family.

Collection is a pure execution knob: it never enters content keys,
digests or response bytes when off.  Process-wide totals feed the
``coverage`` provider of the engine counter-delta protocol (like
``solve_profile``), so worker-pool runs aggregate into
``bundle.stats["coverage"]`` and ``/metricsz``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.engine import metrics
from repro.sim.simulator import _target_name_list
from repro.verilog import ast
from repro.verilog.elaborator import Design, _walk_stmts

#: Quality-counter keys, in report order.
QUALITY_KEYS = ("activations", "vacuous", "real_passes", "fails")

#: Field width of the packed toggle and block counts a walker node
#: records (see CoverageSink.begin_run): toggle events, then one per
#: block.
_COUNT_BITS = 64
_COUNT_MASK = (1 << _COUNT_BITS) - 1

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - older interpreters
    def _popcount(value: int) -> int:
        return bin(value).count("1")


def new_quality() -> Dict[str, int]:
    """A fresh per-assertion quality counter record."""
    return {key: 0 for key in QUALITY_KEYS}


class CoverageSink:
    """Per-design coverage accumulator observing trace snapshots.

    Build with :meth:`for_design`, attach as ``simulator.cov``, and the
    simulator calls ``begin_run(trace.snapshots)`` at the start of each
    stimulus, handing over the run's snapshot list (which the run then
    grows in place).  Runs stack up and are all processed in one batched
    column-wise pass at :meth:`report` — toggles never span stimulus
    boundaries because each run boundary resets the walk, and the first
    snapshot of a run records nothing (it has no predecessor).
    """

    __slots__ = ("design_name", "_names", "_widths", "_masks", "_blocks",
                 "_pending", "_rise", "_fall",
                 "block_fires", "runs", "cycles", "toggle_events")

    def __init__(self, design_name: str, signals, blocks):
        self.design_name = design_name
        self._names: Tuple[str, ...] = tuple(name for name, _ in signals)
        self._widths: Tuple[int, ...] = tuple(width for _, width in signals)
        self._masks: Tuple[int, ...] = tuple((1 << width) - 1
                                             for _, width in signals)
        #: ((block_id, (signal_index, ...)), ...) in design order.
        self._blocks = blocks
        #: Stacked ``[snapshots, done]`` entries, one per begin_run();
        #: ``snapshots`` is shared with the simulator's Trace and
        #: ``done`` marks the processed prefix, so a mid-run report()
        #: sees everything appended so far and the newest run can keep
        #: growing afterwards.
        self._pending: List[list] = []
        self._rise: List[int] = [0] * len(self._names)
        self._fall: List[int] = [0] * len(self._names)
        self.block_fires: List[int] = [0] * len(blocks)
        self.runs = 0
        self.cycles = 0
        self.toggle_events = 0

    @classmethod
    def for_design(cls, design: Design) -> "CoverageSink":
        """Precompute signal order and block target indices once."""
        names = sorted(design.symbols)
        index = {name: i for i, name in enumerate(names)}
        signals = [(name, design.symbols[name].width) for name in names]

        def target_indices(targets) -> Tuple[int, ...]:
            seen = []
            for name in targets:
                i = index.get(name)
                if i is not None and i not in seen:
                    seen.append(i)
            return tuple(seen)

        blocks = []
        for i, item in enumerate(design.assigns):
            blocks.append((f"assign[{i}]",
                           target_indices(_target_name_list(item.target))))
        for kind, items in (("comb", design.comb_blocks),
                            ("seq", design.seq_blocks)):
            for i, block in enumerate(items):
                targets: List[str] = []
                for stmt in _walk_stmts(block.body):
                    if isinstance(stmt, ast.Assignment):
                        targets.extend(_target_name_list(stmt.target))
                blocks.append((f"{kind}[{i}]", target_indices(targets)))
        return cls(design.name, signals, tuple(blocks))

    # -- simulator protocol ----------------------------------------------

    def begin_run(self, snapshots: List[Dict], trace=None) -> None:
        """Start a new stimulus run observing ``snapshots`` (the run's
        trace snapshot list, typically still empty and grown in place by
        the simulator).  Runs stack; processing is deferred to report.

        ``trace`` is the run's :class:`repro.sim.trace.Trace`.  A run
        through a :class:`repro.sim.runloop.ExhaustiveWalker` does not
        walk its replayed snapshots (``trace.shared``) again.  The run
        that made a node records on it (``memo[self]``) the toggle and
        block counts of every snapshot pair on the path up to it, packed
        one counter per field, and a run replaying the node adds those.
        Replayed pairs add no new rise/fall bits: they were OR-ed in
        when walked."""
        self._pending.append([snapshots, 0, trace])
        self.runs += 1

    def _flush(self) -> None:
        """Process every pending run's unseen snapshots column-wise.

        All runs are concatenated into one window with run boundaries in
        ``starts`` (where the pairwise walk resets its predecessor), so
        each signal's column is extracted exactly once at C speed and
        columns that never change object identity are skipped outright.
        """
        pending = self._pending
        if not pending:
            return
        window: List[Dict] = []
        starts = set()
        #: (nodes, done, first walked index, end, its window position)
        #: of every walker run, in run order: a run replays nodes only
        #: earlier runs made.
        walker_runs = []
        for entry in pending:
            snaps, done, trace = entry
            n = len(snaps)
            if n <= done:
                continue
            self.cycles += n - done
            entry[1] = n
            first = done
            if trace is not None and trace.nodes:
                first = max(done, min(trace.shared, n))
                walker_runs.append((trace.nodes, done, first, n, len(window)))
            if first >= n:
                continue
            starts.add(len(window))
            if first:
                # Resumed or replayed prefix: its last snapshot is the
                # predecessor for the fresh tail.
                window.append(snaps[first - 1])
            window.extend(snaps[first:])
        # Keep only the newest run: it may still be growing in place.
        del pending[:-1]
        total = len(window)
        #: Packed per-position counts, kept only when walker runs need
        #: their nodes' path counts.
        at = [0] * total if walker_runs else None
        toggles = self.toggle_events
        rise_acc = self._rise
        fall_acc = self._fall
        #: signal index -> set of window indices where its value changed
        #: (value-unequal, not merely a fresh object) vs the previous
        #: snapshot of the same run.
        changed: Dict[int, set] = {}
        span = range(1, total)
        for i, name in enumerate(self._names):
            col = list(map(itemgetter(name), window))
            if len(set(map(id, col))) <= 1:
                continue
            mask = self._masks[i]
            prev = col[0]
            rise = rise_acc[i]
            fall = fall_acc[i]
            hits = None
            for k in span:
                cur = col[k]
                if k in starts:
                    prev = cur
                    continue
                if cur is prev:
                    continue
                ov = prev.value
                ox = prev.xmask
                nv = cur.value
                nx = cur.xmask
                prev = cur
                if ov == nv and ox == nx:
                    continue
                if hits is None:
                    hits = changed[i] = set()
                hits.add(k)
                known = ~(ox | nx) & mask
                if known:
                    up = ~ov & nv & known
                    down = ov & ~nv & known
                    events = _popcount(up) + _popcount(down)
                    toggles += events
                    if at is not None:
                        at[k] += events
                    rise |= up
                    fall |= down
            rise_acc[i] = rise
            fall_acc[i] = fall
        self.toggle_events = toggles
        # A block "fired" on every cycle where any of its target signals
        # changed value: the union of its targets' changed-cycle sets.
        fires = self.block_fires
        for j, (_, targets) in enumerate(self._blocks):
            sets = [changed[i] for i in targets if i in changed]
            if not sets:
                continue
            fired = sets[0] if len(sets) == 1 else set.union(*sets)
            fires[j] += len(fired)
            if at is not None:
                bit = 1 << (_COUNT_BITS * (j + 1))
                for k in fired:
                    at[k] += bit
        replayed = 0  # packed counts of replayed snapshot pairs
        for nodes, done, first, end, position in walker_runs:
            counts = self._path_counts(nodes, first - 1)
            replayed += counts - self._path_counts(nodes, done - 1)
            if first:
                position += 1  # past the predecessor
            for k in range(first, end):
                counts += at[position]
                position += 1
                memo = nodes[k].memo
                if memo is None:
                    memo = nodes[k].memo = {}
                memo[self] = counts
        if replayed:
            self.toggle_events += replayed & _COUNT_MASK
            for j in range(len(fires)):
                replayed >>= _COUNT_BITS
                fires[j] += replayed & _COUNT_MASK

    def _path_counts(self, nodes, index: int) -> int:
        """Packed counts of the snapshot pairs up to ``nodes[index]``."""
        return nodes[index].memo[self] if index > 0 else 0

    # -- reporting -------------------------------------------------------

    def report(self, quality: Optional[Dict[str, Dict[str, int]]] = None
               ) -> Dict[str, object]:
        """A plain, picklable, deterministically ordered coverage report.

        Both tiers serialize this byte-identically (``json.dumps`` with
        ``sort_keys`` is a no-op: keys are inserted sorted).
        """
        self._flush()
        signals = {}
        covered_bits = 0
        total_bits = 0
        for i, name in enumerate(self._names):
            width = self._widths[i]
            both = self._rise[i] & self._fall[i]
            covered = bin(both).count("1")
            covered_bits += covered
            total_bits += width
            signals[name] = {
                "covered_bits": covered,
                "fall_bits": bin(self._fall[i]).count("1"),
                "rise_bits": bin(self._rise[i]).count("1"),
                "width": width,
            }
        blocks = {block_id: self.block_fires[j]
                  for j, (block_id, _) in enumerate(self._blocks)}
        fired = sum(1 for count in self.block_fires if count)
        report = {
            "assertions": {label: dict(sorted(counters.items()))
                           for label, counters
                           in sorted((quality or {}).items())},
            "block_pct": (round(fired / len(blocks), 4) if blocks else 1.0),
            "blocks": blocks,
            "blocks_fired": fired,
            "blocks_total": len(blocks),
            "cycles": self.cycles,
            "design": self.design_name,
            "runs": self.runs,
            "signals": signals,
            "toggle_events": self.toggle_events,
            "toggle_pct": (round(covered_bits / total_bits, 4)
                           if total_bits else 1.0),
        }
        return report


def merge_reports(reports) -> Dict[str, object]:
    """Merge per-design coverage reports that share one design.

    Counts add; toggle bitmasks are gone at this level, so per-signal
    bit counts merge by max (a bit observed covered in either run is
    covered).  Used by the fleet router and by the per-proposal
    validation fallback.
    """
    merged: Optional[Dict[str, object]] = None
    for report in reports:
        if not report:
            continue
        if merged is None:
            merged = {
                "assertions": {label: dict(counters) for label, counters
                               in report["assertions"].items()},
                "block_pct": report["block_pct"],
                "blocks": dict(report["blocks"]),
                "blocks_fired": report["blocks_fired"],
                "blocks_total": report["blocks_total"],
                "cycles": report["cycles"],
                "design": report["design"],
                "runs": report["runs"],
                "signals": {name: dict(stats) for name, stats
                            in report["signals"].items()},
                "toggle_events": report["toggle_events"],
                "toggle_pct": report["toggle_pct"],
            }
            continue
        for label, counters in report["assertions"].items():
            into = merged["assertions"].setdefault(label, new_quality())
            for key, value in counters.items():
                into[key] = into.get(key, 0) + value
        for block_id, count in report["blocks"].items():
            merged["blocks"][block_id] = (
                merged["blocks"].get(block_id, 0) + count)
        for name, stats in report["signals"].items():
            into = merged["signals"].setdefault(name, dict(stats))
            if into is not stats:
                for key in ("covered_bits", "fall_bits", "rise_bits"):
                    into[key] = max(into.get(key, 0), stats[key])
        for key in ("cycles", "runs", "toggle_events"):
            merged[key] += report[key]
        merged["blocks_fired"] = sum(
            1 for count in merged["blocks"].values() if count)
        merged["block_pct"] = (
            round(merged["blocks_fired"] / merged["blocks_total"], 4)
            if merged["blocks_total"] else 1.0)
        total_bits = sum(stats["width"]
                         for stats in merged["signals"].values())
        covered = sum(stats["covered_bits"]
                      for stats in merged["signals"].values())
        merged["toggle_pct"] = (round(covered / total_bits, 4)
                                if total_bits else 1.0)
    if merged is not None:
        merged["assertions"] = {
            label: dict(sorted(counters.items()))
            for label, counters in sorted(merged["assertions"].items())}
        merged["signals"] = dict(sorted(merged["signals"].items()))
        merged["blocks"] = dict(sorted(merged["blocks"].items()))
    return merged or {}


# -- process-wide totals (engine counter-delta provider) ----------------------

_TOTALS: Dict[str, int] = {
    "runs_total": 0,
    "cycles_total": 0,
    "toggles_total": 0,
    "blocks_fired_total": 0,
    "reports_total": 0,
    "activations_total": 0,
    "vacuous_total": 0,
    "real_passes_total": 0,
    "fails_total": 0,
}


def coverage_counters() -> Dict[str, int]:
    """Metrics provider: process-wide coverage collection totals."""
    return dict(_TOTALS)


def accumulate_totals(report: Dict[str, object]) -> None:
    """Fold one finished report into the process-wide totals."""
    _TOTALS["runs_total"] += report.get("runs", 0)
    _TOTALS["cycles_total"] += report.get("cycles", 0)
    _TOTALS["toggles_total"] += report.get("toggle_events", 0)
    _TOTALS["blocks_fired_total"] += report.get("blocks_fired", 0)
    _TOTALS["reports_total"] += 1
    for counters in report.get("assertions", {}).values():
        _TOTALS["activations_total"] += counters.get("activations", 0)
        _TOTALS["vacuous_total"] += counters.get("vacuous", 0)
        _TOTALS["real_passes_total"] += counters.get("real_passes", 0)
        _TOTALS["fails_total"] += counters.get("fails", 0)


metrics.register_provider("coverage", coverage_counters)
