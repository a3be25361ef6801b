"""The gate driver (``benchmarks/gates.py``) judged on synthetic results.

Nothing here starts a server or runs a pipeline: each test swaps in a
contract whose measure function returns canned legs, ratios and checks,
so what is tested is the judging, the report and the exit status — and
that the contract table and CI's ``gates`` matrix name the same
contracts.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_gates():
    spec = importlib.util.spec_from_file_location(
        "gates", ROOT / "benchmarks" / "gates.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gates = _load_gates()


def contract(ratios=None, checks=None, bounds=None, raises=None):
    """A synthetic contract: speedup >= 2.0, overhead <= 1.15, two checks."""
    def measure(cfg):
        if raises is not None:
            raise raises
        return gates.Measured(
            {"fast": {"seconds": 1.0}, "slow": {"seconds": 3.0}},
            {"speedup": 3.0, "overhead": 1.05, **(ratios or {})},
            {"identical": True, "no_errors": True, **(checks or {})})
    return gates.Contract(
        "synthetic", {"size": 4}, measure,
        bounds if bounds is not None else {
            "speedup": gates.at_least(2.0), "overhead": gates.at_most(1.15)},
        ("identical", "no_errors"))


def judged(**kwargs):
    c = contract(**kwargs)
    return gates.judge(c, c.measure(dict(c.config)))


class TestJudge:
    def test_passing_result_passes(self):
        result = judged()
        assert result["ok"] is True
        assert result == {
            "config": {"size": 4},
            "legs": {"fast": {"seconds": 1.0}, "slow": {"seconds": 3.0}},
            "ratio": {"speedup": 3.0, "overhead": 1.05},
            "bound": {"speedup": ">= 2.0", "overhead": "<= 1.15"},
            "checks": {"identical": True, "no_errors": True},
            "ok": True,
        }

    @pytest.mark.parametrize("ratios", [
        {"speedup": 1.99}, {"overhead": 1.16}, {"speedup": None},
        {"overhead": 0.0}, {"speedup": float("nan")},
        {"overhead": float("inf")}, {"speedup": True},
    ])
    def test_ratio_outside_its_bound_fails(self, ratios):
        assert judged(ratios=ratios)["ok"] is False

    def test_ratio_on_its_bound_holds(self):
        assert judged(ratios={"speedup": 2.0, "overhead": 1.15})["ok"] is True

    def test_missing_ratio_fails(self):
        c = contract(bounds={"speedup": gates.at_least(2.0),
                             "never_measured": gates.at_least(1.0)})
        result = gates.judge(c, c.measure({}))
        assert result["ratio"]["never_measured"] is None
        assert result["ok"] is False

    @pytest.mark.parametrize("checks", [
        {"identical": False}, {"no_errors": None}, {"no_errors": 1},
    ])
    def test_false_check_fails(self, checks):
        result = judged(checks=checks)
        assert result["ok"] is False
        assert False in result["checks"].values()

    def test_missing_check_fails(self):
        c = contract()
        measured = c.measure({})
        del measured.checks["no_errors"]
        result = gates.judge(c, measured)
        assert result["checks"]["no_errors"] is False
        assert result["ok"] is False

    def test_identity_only_contract(self):
        assert judged(bounds={})["ok"] is True
        assert judged(bounds={}, checks={"identical": False})["ok"] is False


class TestDriver:
    def run(self, monkeypatch, tmp_path, capsys, table, argv):
        # Synthetic contracts exist only in this process: judge them here
        # instead of one fresh interpreter each.
        monkeypatch.setattr(gates, "CONTRACTS", table)
        monkeypatch.setattr(gates, "judge_in_child", gates.judge_here)
        output = tmp_path / "report.json"
        status = gates.main([*argv, "--output", str(output)])
        return status, json.loads(output.read_text()), capsys.readouterr().out

    def test_all_holding_exits_zero(self, monkeypatch, tmp_path, capsys):
        status, report, _ = self.run(monkeypatch, tmp_path, capsys,
                                     {"a": contract(), "b": contract()}, [])
        assert status == 0
        assert set(report) == {"host", "contracts"}
        assert {"python", "platform", "cpus"} <= set(report["host"])
        assert list(report["contracts"]) == ["a", "b"]
        assert all(set(entry) == {"config", "legs", "ratio", "bound",
                                  "checks", "ok"}
                   for entry in report["contracts"].values())

    def test_every_failed_contract_is_named(self, monkeypatch, tmp_path,
                                            capsys):
        table = {"fast": contract(),
                 "slow": contract(ratios={"speedup": 1.5}),
                 "forked": contract(checks={"identical": False}),
                 "crashed": contract(raises=RuntimeError("boom"))}
        status, report, out = self.run(monkeypatch, tmp_path, capsys,
                                       table, [])
        assert status == 1
        assert [name for name, entry in report["contracts"].items()
                if not entry["ok"]] == ["slow", "forked", "crashed"]
        assert "FAILED slow, forked, crashed" in out
        assert report["contracts"]["crashed"]["error"] == \
            "RuntimeError: boom"
        assert report["contracts"]["crashed"]["checks"] == {
            "identical": False, "no_errors": False}

    def test_named_contracts_run_alone(self, monkeypatch, tmp_path, capsys):
        table = {"a": contract(), "b": contract(ratios={"speedup": 1.0})}
        status, report, _ = self.run(monkeypatch, tmp_path, capsys, table,
                                     ["a", "a"])
        assert status == 0
        assert list(report["contracts"]) == ["a"]

    def test_several_contracts_run_one_child_each(self, monkeypatch):
        children = []
        monkeypatch.setattr(gates, "CONTRACTS", {"a": contract(),
                                                 "b": contract()})
        monkeypatch.setattr(gates, "judge_in_child",
                            lambda name: children.append(name) or {})
        assert gates.run(["a", "b"]) == {"a": {}, "b": {}}
        assert children == ["a", "b"]
        assert gates.run(["a"])["a"]["ok"] is True  # alone: in process
        assert children == ["a", "b"]

    def test_child_without_report_fails_its_contract(self, monkeypatch):
        monkeypatch.setattr(gates, "CONTRACTS", {"a": contract()})
        monkeypatch.setattr(gates.subprocess, "run", lambda *a, **k: None)
        result = gates.judge_in_child("a")
        assert result["ok"] is False
        assert result["error"].startswith("no report from the child")

    def test_unknown_contract_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(gates, "CONTRACTS", {"a": contract()})
        with pytest.raises(SystemExit) as exc:
            gates.main(["nope"])
        assert exc.value.code == 2
        assert "unknown contract(s): nope" in capsys.readouterr().err


class TestTable:
    def test_table_matches_the_ci_matrix(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        (matrix,) = re.findall(r"^\s*contract:\s*\[([^\]]*)\]", text,
                               re.MULTILINE)
        assert [name.strip() for name in matrix.split(",")] == \
            list(gates.CONTRACTS)

    def test_every_contract_is_declared_whole(self):
        assert list(gates.CONTRACTS) == [
            "solve", "validate", "serve", "http", "fleet", "obs", "cov",
            "store", "eval", "determinism"]
        for name, c in gates.CONTRACTS.items():
            assert c.name == name
            assert c.config and c.checks and callable(c.measure)
            assert all(b.op in (">=", "<=") and b.value > 0
                       for b in c.bounds.values())
        assert not gates.CONTRACTS["determinism"].bounds

    def test_bounds_are_the_ci_bounds(self):
        assert {name: {key: str(b) for key, b in c.bounds.items()}
                for name, c in gates.CONTRACTS.items()} == {
            "solve": {"compiled/interp": ">= 2.0"},
            "validate": {"batched/per_proposal": ">= 1.1"},
            "serve": {"batched/sequential": ">= 2.0",
                      "cache_warm/cache_cold": ">= 5.0"},
            "http": {"http/inproc p50": "<= 2.0",
                     "http_warm/http_cold": ">= 5.0"},
            "fleet": {"fleet/single": ">= 2.0"},
            "obs": {"traced/untraced p50": "<= 1.15"},
            "cov": {"coverage_on/off throughput": ">= 0.85"},
            "store": {"warm/cold": ">= 5.0"},
            "eval": {"warm/cold": ">= 5.0"},
            "determinism": {},
        }
