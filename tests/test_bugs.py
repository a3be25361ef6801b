"""Bug taxonomy, mutators, injector and classification.

The injector and the repair enumerator share one site table that applies,
emits and reverts edits in place.  :class:`TestSiteTableOracle` checks it
against the path it replaced, kept here as the reference: every attempt
deep-copies the golden AST, enumerates every candidate on the copy,
regroups the fault space by kind and re-emits the whole module.
:class:`TestOneLineEditOracle` checks each one-line edit against the
whole-module emission and diff.
"""

import copy
import random

import pytest

from repro.bugs.classify import (
    assertion_expr_signals,
    classify_conditionality,
    classify_relation,
    targets_of_line,
)
from repro.bugs.injector import BugInjector, single_line_diff
from repro.bugs.mutators import (
    _KIND_WEIGHTS,
    SingleLineEdit,
    SiteTable,
    enumerate_mutations,
)
from repro.bugs.taxonomy import (
    BUG_TYPE_ORDER,
    TABLE1_ROWS,
    BugKind,
    Conditionality,
    Relation,
    length_bin_label,
    length_bin_of,
)
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.model.candidates import enumerate_repairs
from repro.verilog.compile import compile_source
from repro.verilog.parser import parse_module
from repro.verilog.writer import write_module


class TestTaxonomy:
    def test_table1_has_seven_rows(self):
        assert len(TABLE1_ROWS) == 7
        assert [row[0] for row in TABLE1_ROWS] == BUG_TYPE_ORDER

    def test_length_bins(self):
        assert length_bin_of(30) == (0, 50)
        assert length_bin_of(50) == (0, 50)
        assert length_bin_of(51) == (50, 100)
        assert length_bin_of(150) == (100, 150)
        assert length_bin_of(500) == (200, None)

    def test_bin_labels(self):
        assert length_bin_label((0, 50)) == "(0, 50]"
        assert length_bin_label((200, None)) == "(200, +inf)"


class TestMutators:
    def test_enumeration_nonempty(self, corpus_samples):
        for seed in corpus_samples[:8]:
            module = parse_module(seed.source)
            assert enumerate_mutations(module)

    def test_apply_revert_restores_source(self, corpus_samples):
        module = parse_module(corpus_samples[0].source)
        baseline = write_module(module)
        for candidate in enumerate_mutations(module)[:100]:
            candidate.apply()
            candidate.revert()
        assert write_module(module) == baseline

    def test_mutation_changes_emission(self, corpus_samples):
        module = parse_module(corpus_samples[0].source)
        baseline = write_module(module)
        changed = 0
        for candidate in enumerate_mutations(module)[:50]:
            candidate.apply()
            if write_module(module) != baseline:
                changed += 1
            candidate.revert()
        assert changed > 40  # nearly all candidates are real edits

    def test_repair_only_ops_flagged(self, corpus_samples):
        # At least the deletion-style repair must be present somewhere in
        # the corpus sample set.
        all_ops = set()
        for seed in corpus_samples[:10]:
            m = parse_module(seed.source)
            all_ops.update(c.op_name for c in enumerate_mutations(m)
                           if c.repair_only)
        assert all_ops  # repair-only space is non-empty


class TestInjector:
    def test_single_line_diff(self):
        assert single_line_diff("a\nb\nc", "a\nX\nc") == 2
        assert single_line_diff("a\nb", "a\nb") is None
        assert single_line_diff("a\nb", "X\nY") is None
        assert single_line_diff("a\nb", "a\nb\nc") is None

    def test_inject_produces_single_line_bug(self, corpus_samples, rng):
        injector = BugInjector(rng)
        for seed in corpus_samples[:8]:
            record = injector.inject(seed.source, seed.name)
            assert record is not None
            assert single_line_diff(record.golden_source,
                                    record.buggy_source) == record.line

    def test_record_lines_match_sources(self, corpus_samples, rng):
        injector = BugInjector(rng)
        record = injector.inject(corpus_samples[0].source)
        buggy_line = record.buggy_source.splitlines()[record.line - 1]
        fixed_line = record.golden_source.splitlines()[record.line - 1]
        assert buggy_line.strip() == record.buggy_line
        assert fixed_line.strip() == record.fixed_line
        assert record.buggy_line != record.fixed_line

    def test_inject_many_distinct(self, corpus_samples, rng):
        injector = BugInjector(rng)
        records = injector.inject_many(corpus_samples[1].source, 5)
        keys = {(r.line, r.buggy_line) for r in records}
        assert len(keys) == len(records)

    def test_injected_bugs_compile(self, corpus_samples, rng):
        injector = BugInjector(rng)
        for seed in corpus_samples[:6]:
            for record in injector.inject_many(seed.source, 3, seed.name):
                assert compile_source(record.buggy_source).ok

    def test_kind_marginals_value_heavy(self, corpus_samples):
        """Injection follows the paper's Table II kind mix (Value-heavy)."""
        injector = BugInjector(random.Random(42))
        kinds = []
        for seed in corpus_samples:
            for record in injector.inject_many(seed.source, 4, seed.name):
                kinds.append(record.kind)
        total = len(kinds)
        assert total > 40
        value_share = sum(1 for k in kinds if k == BugKind.VALUE) / total
        var_share = sum(1 for k in kinds if k == BugKind.VAR) / total
        assert value_share > 0.4
        assert var_share < 0.25

    def test_closure_golden_fix_in_repair_space(self, corpus_samples):
        """The fault model is contained in the repair space."""
        from repro.model.candidates import enumerate_repairs

        injector = BugInjector(random.Random(8))
        total = found = 0
        for seed in corpus_samples[:10]:
            for record in injector.inject_many(seed.source, 3, seed.name):
                total += 1
                space = enumerate_repairs(record.buggy_source)
                if space.golden_index(record.line,
                                      record.fixed_line) is not None:
                    found += 1
        assert total > 0
        assert found == total


# -- reference oracle: deepcopy + full enumeration per attempt ----------------


def _reference_pick(rng, candidates):
    by_kind = {}
    for candidate in candidates:
        if not candidate.repair_only:
            by_kind.setdefault(candidate.kind, []).append(candidate)
    if not by_kind:
        return None
    kinds = list(by_kind)
    kind = rng.choices(kinds, weights=[_KIND_WEIGHTS[k] for k in kinds])[0]
    return rng.choice(by_kind[kind])


def _reference_inject(rng, module, canonical, design_name,
                      max_attempts=25):
    for _ in range(max_attempts):
        clone = copy.deepcopy(module)
        candidates = enumerate_mutations(clone)
        if not candidates:
            return None
        candidate = _reference_pick(rng, candidates)
        if candidate is None:
            return None
        candidate.apply()
        buggy = write_module(clone)
        line = single_line_diff(canonical, buggy)
        if line is None:
            continue
        return dict(
            buggy_source=buggy,
            line=line,
            buggy_line=buggy.splitlines()[line - 1].strip(),
            fixed_line=canonical.splitlines()[line - 1].strip(),
            op_name=candidate.op_name,
            kind=candidate.kind,
            conditionality=classify_conditionality(clone, candidate.line),
            description=candidate.description,
            design_name=design_name or module.name,
            golden_source=canonical)
    return None


def _reference_inject_many(rng, source, count, design_name="",
                           max_attempts=25):
    module = parse_module(source)
    canonical = write_module(module)
    records, seen, attempts = [], set(), 0
    while len(records) < count and attempts < count * max_attempts:
        attempts += 1
        record = _reference_inject(rng, module, canonical, design_name)
        if record is None:
            break
        key = (record["line"], record["buggy_line"])
        if key in seen:
            continue
        seen.add(key)
        records.append(record)
    return records


def _fields(record):
    if record is None:
        return None
    return {name: getattr(record, name) for name in (
        "buggy_source", "line", "buggy_line", "fixed_line", "op_name",
        "kind", "conditionality", "description", "design_name",
        "golden_source")}


ORACLE_SEEDS = (0, 5, 17)


@pytest.fixture(scope="module", params=sorted(TEMPLATE_FAMILIES))
def family_seed(request):
    return CorpusGenerator(seed=41).generate_one(family=request.param)


class TestSiteTableOracle:
    def test_inject_matches_reference(self, family_seed):
        module = parse_module(family_seed.source)
        canonical = write_module(module)
        for seed in ORACLE_SEEDS:
            got = BugInjector(random.Random(seed)).inject(
                family_seed.source, family_seed.name)
            want = _reference_inject(random.Random(seed), module, canonical,
                                     family_seed.name)
            assert _fields(got) == want, (family_seed.name, seed)

    def test_inject_many_matches_reference(self, family_seed):
        for seed in ORACLE_SEEDS:
            got = BugInjector(random.Random(seed)).inject_many(
                family_seed.source, 6, family_seed.name)
            want = _reference_inject_many(random.Random(seed),
                                          family_seed.source, 6,
                                          family_seed.name)
            assert [_fields(r) for r in got] == want, \
                (family_seed.name, seed)
            assert got, family_seed.name

    def test_table_leaves_golden_unchanged(self, family_seed):
        module = parse_module(family_seed.source)
        before = write_module(module)
        table = SiteTable(module)
        assert table.canonical == before
        for candidate in table.candidates:
            table.edit(candidate)
        assert write_module(module) == before
        injector = BugInjector(random.Random(3))
        for _ in range(20):
            injector._inject(table, family_seed.name)
        assert write_module(module) == before

    def test_enumerate_repairs_restores_module(self, family_seed):
        module = parse_module(family_seed.source)
        before = write_module(module)
        space = enumerate_repairs(before, module=module)
        assert write_module(module) == before
        assert space.source == before
        assert [(c.line, c.old_line, c.new_line, c.op_names)
                for c in space] == \
            [(c.line, c.old_line, c.new_line, c.op_names)
             for c in enumerate_repairs(before)]


def _reference_edit(table, candidate):
    """Apply, emit the whole module, diff against the golden, revert."""
    candidate.apply()
    try:
        edited = write_module(table.module)
    finally:
        candidate.revert()
    line = single_line_diff(table.canonical, edited)
    if line is None:
        return None
    return SingleLineEdit(line, table.lines[line - 1],
                          edited.splitlines()[line - 1], None)


def _assert_edits_match_reference(source):
    """Every candidate's :meth:`SiteTable.edit` equals the reference; the
    number of single-line edits, for a non-vacuity check."""
    table = SiteTable(parse_module(source))
    edits = 0
    for candidate in table.candidates:
        want = _reference_edit(table, candidate)
        assert table.edit(candidate) == want, (candidate, source)
        edits += want is not None
    assert write_module(table.module) == table.canonical
    return edits


class TestOneLineEditOracle:
    def test_golden_edits_match_whole_module(self, family_seed):
        assert _assert_edits_match_reference(family_seed.source) > 0

    def test_injected_mutant_edits_match_whole_module(self, family_seed):
        # Eval enumerates the repairs of buggy sources, not goldens.
        record = BugInjector(random.Random(11)).inject(family_seed.source,
                                                       family_seed.name)
        assert record is not None, family_seed.name
        assert _assert_edits_match_reference(record.buggy_source) > 0

    def test_human_eval_designs_match_whole_module(self, human_cases):
        assert human_cases
        for case in human_cases:
            record = case.entry.record
            for source in (record.golden_source,
                           case.entry.buggy_source_with_sva):
                assert _assert_edits_match_reference(source) > 0, \
                    case.case_id


class TestClassification:
    SOURCE = """
module demo (input clk, input rst_n, input en, input [3:0] d, output reg [3:0] q, output wire flag);
  reg [3:0] shadow;
  assign flag = q == 4'd7;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      q <= 4'd0;
      shadow <= 4'd0;
    end
    else if (en) begin
      q <= d;
      shadow <= q;
    end
  end
endmodule
"""

    @staticmethod
    def _line_of(source, needle):
        for i, text in enumerate(source.splitlines()):
            if text.strip() == needle or needle in text:
                return i + 1
        raise AssertionError(f"{needle!r} not found")

    @classmethod
    def _canonical_module(cls):
        """AST line numbers must refer to the canonical emission, so (as
        the pipeline does everywhere) parse the canonical text."""
        canonical = write_module(parse_module(cls.SOURCE))
        return parse_module(canonical), canonical

    def test_targets_of_assignment_line(self):
        module, source = self._canonical_module()
        line_no = self._line_of(source, "q <= d;")
        assert targets_of_line(module, line_no) == ["q"]

    def test_targets_of_condition_line(self):
        module, source = self._canonical_module()
        cond_line = self._line_of(source, "else if (en)")
        targets = targets_of_line(module, cond_line)
        assert set(targets) >= {"q", "shadow"}

    def test_conditionality(self):
        module, source = self._canonical_module()
        cond_line = self._line_of(source, "else if (en)")
        assign_line = self._line_of(source, "q <= d;")
        assert classify_conditionality(module, cond_line) == Conditionality.COND
        assert classify_conditionality(module, assign_line) == Conditionality.NON_COND

    def test_ternary_select_is_non_cond(self):
        # Pinned: a ternary select is not a condition context, in a
        # procedural or a continuous assignment, whichever part of it
        # the mutation touched.  Reclassifying would move fingerprints.
        source = write_module(parse_module("""
module tern (input clk, input s, input [3:0] a, input [3:0] b,
             output reg [3:0] q, output wire [3:0] w);
  assign w = s ? a : b;
  always @(posedge clk) begin
    q <= (s & a[0]) ? a : b;
  end
endmodule
"""))
        module = parse_module(source)
        for needle in ("assign w", "q <="):
            line = self._line_of(source, needle)
            assert classify_conditionality(module, line) == \
                Conditionality.NON_COND

    def test_relation_direct_vs_indirect(self):
        module, source = self._canonical_module()
        q_line = self._line_of(source, "q <= d;")
        shadow_line = self._line_of(source, "shadow <= q;")
        assert classify_relation(module, q_line, ["q"]) == Relation.DIRECT
        assert classify_relation(module, shadow_line, ["q"]) == Relation.INDIRECT

    def test_assertion_expr_signals(self, accu_source):
        module = parse_module(accu_source)  # label lookup is line-agnostic
        signals = assertion_expr_signals(module, "valid_out_check_assertion")
        assert set(signals) == {"end_cnt", "valid_out"}
