"""The benchmark's own tests: the smoke tier of every workload.

Run from the repository root with ``python -m pytest perfbench``. Each
workload runs at ``--smoke`` size, untraced and traced; the output
checks are also shown to catch a doctored output.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    from workloads import WORKLOADS

    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert sorted(predictions) == sorted(WORKLOAD_NAMES)
    layers = {m["name"] for m in SPEC["per_layer"]}
    for prediction in predictions.values():
        assert set(prediction["moves"]) <= set(bounds)
        named = [n for ns in prediction["moves"].values() for n in ns]
        assert set(named + prediction["flat"]) <= layers


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_end_to_end(workload: str) -> None:
    result = _result(_bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


#: Per workload, layers that must do work and layers that must not.
BUSY = {
    "osg_run": (["sim.matchmaker_finds", "observe.otlp_write_us_per_job",
                 "lint.preflight_us_per_job"],
                ["resilience.journal_records", "service.self_us_per_job"]),
    "sandhills_journal": (["resilience.journal_records",
                           "resilience.journal_fsyncs",
                           "observe.event_log_us_per_event"],
                          ["sim.matchmaker_finds", "blast.seed_hits"]),
    "service_grid": (["service.admission_us_per_workflow",
                      "sim.matchmaker_finds", "dagman.self_us_per_job"],
                     ["observe.event_log_us_per_event",
                      "observe.otlp_write_us_per_job"]),
    "assembly": (["blast.seed_hits", "core.run_cap3_payload_s",
                  "blast.blastx_ms_per_query"],
                 ["sim.engine_events", "observe.bus_events"]),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_traced(workload: str) -> None:
    result = _result(_bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", "1", "--smoke"))
    # correct covers the tiling check and traced == untraced outputs.
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    busy, idle = BUSY[workload]
    assert all(metrics[n]["value"] > 0 for n in busy)
    assert all(metrics[n]["value"] == 0 for n in idle)


def _evaluate(workload_name: str, tmp_path: Path, doctor) -> tuple:
    """Run one smoke iteration in-process, doctor its output, check it."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    params = workload.prepare(tmp_path, 7, True)
    state = workload.setup(params)
    work = tmp_path / "work"
    raw = workload.run(state, params, work)
    clean = workload.evaluate(state, params, work, raw)
    doctor(work)
    return clean, workload.evaluate(state, params, work, raw)


def _drop_success(work: Path) -> None:
    path = work / "submit" / "trace.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if '"succeeded"' in line)
    path.write_text("".join(lines[:first] + lines[first + 1:]))


def _reject_one(work: Path) -> None:
    path = work / "service.json"
    doc = json.loads(path.read_text())
    next(iter(doc["slo"].values()))["account"]["workflows_rejected"] = 1
    path.write_text(json.dumps(doc))


def _drop_record(work: Path) -> None:
    path = work / "merged.fasta"
    text = path.read_text()
    path.write_text(text[text.index(">", 1):])


@pytest.mark.parametrize("workload, doctor", [
    ("osg_run", _drop_success),
    ("service_grid", _reject_one),
    ("assembly", _drop_record),
])
def test_checks_catch_a_wrong_output(workload: str, doctor, tmp_path: Path) -> None:
    clean, doctored = _evaluate(workload, tmp_path, doctor)
    assert clean.failed == 0 and not clean.errors
    assert doctored.failed > 0 and doctored.errors


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = _bench("--workload", WORKLOAD_NAMES[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
