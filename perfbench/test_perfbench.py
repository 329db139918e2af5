"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every operation's output is checked, that a wrong oracle value is
counted as a failure, and that traced spans nest with self times that add up
to the root span.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
OPS = {"cli-select-1m": ["select", "validate"], "api-select-wide": ["select_basis"],
       "api-basis-admin": ["basis_verify"], "cli-bootstrap-500": ["bootstrap"]}


def _result(capsys, *extra, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                   "--trace", str(trace), "--smoke", *extra])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def checked(monkeypatch):
    """Operation names whose output went through the workload's check."""
    seen = []
    for cls in workloads.WORKLOADS.values():
        def check(self, op, out, _orig=cls.check):
            seen.append(op.name)
            return _orig(self, op, out)
        monkeypatch.setattr(cls, "check", check)
    return seen


def test_spec_lists_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS) == sorted(OPS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_emitted_and_checked(workload, trace, capsys, checked):
    res = _result(capsys, workload=workload, trace=trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert res["correct"] and res["failed"] == 0
    assert sorted(set(checked)) == OPS[workload]
    assert len(checked) == res["attempted"] >= 2


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_oracle_counts_as_failure(workload, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "flu_tau", lambda codes, parts: 0.25)
    monkeypatch.setattr(workloads.ApiBasisAdmin, "_distinct", lambda self, cols: len(cols))
    res = _result(capsys, workload=workload, trace=1)
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


@pytest.mark.parametrize("workload", NAMES)
def test_spans_nest_and_self_times_add_up(workload, tmp_path, capsys, monkeypatch):
    # A wrapped name that no longer exists must read as zero calls, not crash.
    layers = dict(tracing.LAYERS, ingest=tracing.LAYERS["ingest"] + ("dataset.gone",))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    path = tmp_path / "spans.jsonl"
    _result(capsys, "--spans", str(path), workload=workload, trace=1)
    spans = [json.loads(ln) for ln in path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(s["layer"] == "root" for s in roots)
    if workload.startswith("cli-"):  # a CLI pass goes through every layer
        assert set(tracing.LAYERS) <= {s["layer"] for s in spans}
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["run"] == s["run"]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
            child[p["id"]] += s["end"] - s["start"]
    for root in roots:
        total = 0.0
        for s in spans:
            if s["run"] == root["run"]:
                own = s["end"] - s["start"] - child[s["id"]]
                assert own >= -1e-9
                total += own
        assert total == pytest.approx(root["end"] - root["start"], abs=1e-6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
