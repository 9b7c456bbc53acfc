"""The four benchmark workloads: inputs, timed calls, output checks.

Each workload is driven through the program's real entry points, called
in-process from a fresh worker interpreter (``worker.py``):

* ``osg_run`` / ``sandhills_journal`` — ``repro.wms.cli:main_plan`` then
  ``main_run`` (the latter with ``--journal`` on Sandhills);
* ``service_grid`` — ``repro.service.cli:main bench`` on the grid backend;
* ``assembly`` — ``repro.blast.blastx.blastx_many`` + ``write_tabular``,
  then ``repro.core.cli:main`` in workflow mode.

A workload object knows its sizes, writes its seeded inputs out of band
(``prepare``, run by the driver before any worker starts), does its
imports and set-up (``setup``), makes the timed calls (``run``), and
checks and measures what the calls left behind (``evaluate``). Every
check failure is counted against the operations the iteration attempted.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from inputs import generate_assembly_inputs


@dataclass
class Outcome:
    """What one iteration's checks and measurements found."""

    jobs: int
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    artifact_bytes: int = 0
    fingerprint: str = ""
    #: Workload facts the per-layer read-out needs (file sizes, counts,
    #: the workflow's makespan and p95 job turnaround in its own clock).
    facts: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, ops: int | None = None) -> None:
        self.errors.append(message)
        self.failed = min(self.attempted, self.failed + (
            self.attempted if ops is None else ops))


TERMINAL_EVENT = re.compile(rb'"event":\s*"job\.(?:finish|evict)"')


def _quiet(fn: Any, argv: list[str]) -> tuple[int, str]:
    """Call a CLI entry point with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = fn(argv)
    return rc, out.getvalue()


def _tree_bytes(*paths: Path) -> int:
    total = 0
    for root in paths:
        if root.is_file():
            total += root.stat().st_size
        elif root.is_dir():
            total += sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    return total


def _p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


class SimWorkflow:
    """``repro-plan`` then ``repro-run`` on one simulated site."""

    def __init__(self, site: str, journal: bool) -> None:
        self.site = site
        self.journal = journal

    def prepare(self, run_dir: Path, seed: int, smoke: bool) -> dict[str, Any]:
        # The seed drives the simulation; the plan is the same size on
        # every seed.
        return {"n": 50 if smoke else 2000, "seed": seed}

    def setup(self, params: dict[str, Any]) -> dict[str, Any]:
        import repro.lint.feasibility  # noqa: F401
        import repro.lint.plan_rules  # noqa: F401
        import repro.observe  # noqa: F401
        import repro.observe.report  # noqa: F401
        import repro.resilience  # noqa: F401
        import repro.sim.cluster  # noqa: F401
        import repro.sim.grid  # noqa: F401
        import repro.wms.monitor  # noqa: F401
        import repro.wms.planner  # noqa: F401
        from repro.core.workflow_factory import build_blast2cap3_adag  # noqa: F401
        from repro.wms.cli import main_plan, main_run, main_statistics

        return {"plan": main_plan, "run": main_run,
                "statistics": main_statistics}

    def run(self, state: dict[str, Any], params: dict[str, Any],
            work: Path) -> dict[str, Any]:
        submit = work / "submit"
        plan_rc, _ = _quiet(state["plan"], [
            "--submit-dir", str(submit), "-n", str(params["n"]),
            "--site", self.site,
        ])
        argv = ["--submit-dir", str(submit), "--seed", str(params["seed"])]
        if self.journal:
            argv += ["--journal", str(work / "journal")]
        run_rc, run_out = _quiet(state["run"], argv)
        return {"plan_rc": plan_rc, "run_rc": run_rc, "run_out": run_out}

    def evaluate(self, state: dict[str, Any], params: dict[str, Any],
                 work: Path, raw: dict[str, Any]) -> Outcome:
        submit = work / "submit"
        journal = work / "journal"
        plan_path = submit / "plan.json"
        planned = json.loads(plan_path.read_text())["jobs"] if plan_path.exists() else {}
        out = Outcome(jobs=len(planned), attempted=max(1, len(planned)))
        if raw["plan_rc"] != 0 or raw["run_rc"] != 0:
            out.fail(f"exit codes plan={raw['plan_rc']} run={raw['run_rc']}: "
                     + raw["run_out"][-300:])
            return out
        trace_bytes = (submit / "trace.jsonl").read_bytes()
        events_bytes = (submit / "events.jsonl").read_bytes()
        attempts = [json.loads(line) for line in trace_bytes.splitlines()]
        successes: dict[str, int] = {}
        first_submit: dict[str, float] = {}
        done_at: dict[str, float] = {}
        for a in attempts:
            job = a["job_name"]
            first_submit[job] = min(first_submit.get(job, math.inf), a["submit_time"])
            if a["status"] == "succeeded":
                successes[job] = successes.get(job, 0) + 1
                done_at[job] = a["exec_end"]
        wrong = [j for j in planned if successes.get(j) != 1]
        unknown = set(first_submit) - set(planned)
        if wrong:
            out.fail(f"{len(wrong)} job(s) without exactly one success, "
                     f"e.g. {wrong[0]!r}", ops=len(wrong))
        if unknown:
            out.fail(f"attempts for unplanned jobs: {sorted(unknown)[:3]}")
        terminal = len(TERMINAL_EVENT.findall(events_bytes))
        if terminal != len(attempts):
            out.fail(f"events.jsonl has {terminal} terminal events for "
                     f"{len(attempts)} trace attempts")
        makespan = 0.0
        if attempts:
            makespan = (max(a["exec_end"] for a in attempts)
                        - min(a["submit_time"] for a in attempts))
        rc, report = _quiet(state["statistics"], ["--submit-dir", str(submit)])
        match = re.search(r"Workflow wall time\s*:.*\((\d+) s\)", report)
        if rc != 0 or match is None:
            out.fail("repro-statistics printed no workflow wall time")
        elif abs(int(match.group(1)) - makespan) > 0.5 + 1e-6:
            out.fail(f"repro-statistics wall time {match.group(1)} s != "
                     f"trace makespan {makespan:.3f} s")
        out.artifact_bytes = _tree_bytes(submit, journal)
        digest = hashlib.sha256(trace_bytes)
        digest.update(events_bytes)
        out.fingerprint = digest.hexdigest()
        files = {
            name: (submit / name).stat().st_size if (submit / name).exists() else 0
            for name in ("trace.jsonl", "events.jsonl", "trace.chrome.json",
                         "trace.otlp.json", "trace.perfetto.json")
        }
        out.facts = {
            "files": files,
            "journal_bytes": _tree_bytes(journal),
            "attempts": len(attempts),
            "jobs_done": len(done_at),
            "makespan_s": makespan,
            "p95_turnaround_s": _p95(
                [done_at[j] - first_submit[j] for j in done_at]) if done_at else 0.0,
        }
        return out


class ServiceGrid:
    """``repro-service bench``: eight equal-weight tenants on the grid."""

    def prepare(self, run_dir: Path, seed: int, smoke: bool) -> dict[str, Any]:
        if smoke:
            return {"tenants": 2, "workflows": 2, "jobs": 20, "seed": seed}
        return {"tenants": 8, "workflows": 4, "jobs": 250, "seed": seed}

    def setup(self, params: dict[str, Any]) -> dict[str, Any]:
        import repro.service.loadgen  # noqa: F401
        import repro.sim.grid  # noqa: F401
        from repro.service.cli import main

        return {"main": main}

    def run(self, state: dict[str, Any], params: dict[str, Any],
            work: Path) -> dict[str, Any]:
        work.mkdir(parents=True, exist_ok=True)
        rc, text = _quiet(state["main"], [
            "bench", "--tenants", str(params["tenants"]),
            "--workflows", str(params["workflows"]),
            "--jobs", str(params["jobs"]), "--backend", "grid",
            "--seed", str(params["seed"]),
            "--json", str(work / "service.json"), "--quiet",
        ])
        return {"rc": rc, "out": text}

    def evaluate(self, state: dict[str, Any], params: dict[str, Any],
                 work: Path, raw: dict[str, Any]) -> Outcome:
        workflows = params["tenants"] * params["workflows"]
        out = Outcome(jobs=workflows * params["jobs"], attempted=workflows)
        path = work / "service.json"
        if raw["rc"] != 0 or not path.exists():
            out.fail(f"repro-service bench exited {raw['rc']}: {raw['out'][-300:]}")
            return out
        blob = path.read_bytes()
        doc = json.loads(blob)
        accounts = [row["account"] for row in doc["slo"].values()]
        rejected = sum(a["workflows_rejected"] for a in accounts)
        completed = sum(a["workflows_completed"] for a in accounts)
        if len(accounts) != params["tenants"]:
            out.fail(f"{len(accounts)} tenant ledgers for {params['tenants']} tenants")
        if rejected:
            out.fail(f"{rejected} workflow(s) rejected", ops=rejected)
        if completed != workflows or doc["workflows_completed"] != workflows:
            out.fail(f"{completed} of {workflows} workflows completed",
                     ops=workflows - completed)
        out.artifact_bytes = len(blob)
        out.fingerprint = hashlib.sha256(blob).hexdigest()
        out.facts = {
            "attempts": doc["jobs_released"],
            # The ledgers count attempts, not distinct jobs: take the
            # planned jobs as the useful work.
            "jobs_done": out.jobs,
            "rejected": rejected,
            "workflows_failed": workflows - doc["workflows_succeeded"],
            "makespan_s": float(doc["makespan_s"]),
            # The worst tenant's p95 workflow turnaround.
            "p95_turnaround_s": max(doc["per_tenant_p95_turnaround_s"].values()),
        }
        return out


class Assembly:
    """BLASTX of a seeded transcriptome, then workflow-mode blast2cap3."""

    def prepare(self, run_dir: Path, seed: int, smoke: bool) -> dict[str, Any]:
        if smoke:
            sizes = {"proteins": 3, "length": 150, "fractions": [0.6, 0.8],
                     "partitions": 2, "workers": 2}
        else:
            sizes = {"proteins": 6, "length": 260, "fractions": [0.5, 0.65, 0.8],
                     "partitions": 4, "workers": 2}
        paths = generate_assembly_inputs(
            run_dir / "inputs", seed=seed, proteins=sizes["proteins"],
            length=sizes["length"], fractions=tuple(sizes["fractions"]),
        )
        return {**sizes, **paths, "reference": str(run_dir / "reference.json")}

    def setup(self, params: dict[str, Any]) -> dict[str, Any]:
        import repro.execution.local  # noqa: F401
        from repro.bio.fasta import read_fasta
        from repro.blast.blastx import blastx_many
        from repro.blast.database import ProteinDatabase
        from repro.core.cli import main

        database = ProteinDatabase(records=list(read_fasta(params["proteins"])))
        queries = list(read_fasta(params["transcripts"]))
        return {"main": main, "blastx_many": blastx_many,
                "tabular": importlib.import_module("repro.blast.tabular"),
                "database": database,
                "queries": queries, "runs": [],
                "factory": importlib.import_module("repro.core.workflow_factory")}

    def run(self, state: dict[str, Any], params: dict[str, Any],
            work: Path) -> dict[str, Any]:
        work.mkdir(parents=True, exist_ok=True)
        hits_path = work / "alignments.out"
        start = time.perf_counter()
        hits = list(state["blastx_many"](state["queries"], state["database"]))
        # Looked up per call, so the span tracer's wrapper is seen.
        state["tabular"].write_tabular(hits_path, hits)
        mid = time.perf_counter()
        # The CLI does not hand its run result back; keep it for the
        # kickstart read-out with a pass-through around run_local.
        factory = state["factory"]
        run_local = factory.run_local

        def keep_result(*args: Any, **kwargs: Any) -> Any:
            result = run_local(*args, **kwargs)
            state["runs"].append(result)
            return result

        factory.run_local = keep_result
        try:
            rc, text = _quiet(state["main"], [
                "--transcripts", params["transcripts"],
                "--alignments", str(hits_path),
                "--output", str(work / "merged.fasta"),
                "-n", str(params["partitions"]),
                "--workers", str(params["workers"]),
                "--workdir", str(work / "workdir"), "--no-cache",
            ])
        finally:
            factory.run_local = run_local
        end = time.perf_counter()
        return {"rc": rc, "out": text, "blastx_s": mid - start,
                "blast2cap3_s": end - mid}

    def evaluate(self, state: dict[str, Any], params: dict[str, Any],
                 work: Path, raw: dict[str, Any]) -> Outcome:
        from repro.bio.fasta import read_fasta
        from repro.blast.tabular import read_tabular
        from repro.core.blast2cap3 import blast2cap3_serial

        queries = state["queries"]
        out = Outcome(jobs=len(queries), attempted=len(queries))
        hits_path = work / "alignments.out"
        if raw["rc"] != 0 or not hits_path.exists():
            out.fail(f"repro-blast2cap3 exited {raw['rc']}: {raw['out'][-300:]}")
            return out
        hits_blob = hits_path.read_bytes()
        hits = list(read_tabular(hits_path))
        origin = json.loads(Path(params["origin"]).read_text())
        best: dict[str, str] = {}
        for hit in hits:
            best.setdefault(hit.qseqid, hit.sseqid)
        misses = [q.id for q in queries if best.get(q.id) != origin.get(q.id)]
        if misses:
            out.fail(f"{len(misses)} transcript(s) whose best hit is not their "
                     f"protein of origin, e.g. {misses[0]!r}", ops=len(misses))
        produced = sorted((r.id, r.seq) for r in read_fasta(work / "merged.fasta"))
        # The serial reference depends only on the inputs and the hits;
        # compute it once per run and reuse it while the hits agree.
        hits_digest = hashlib.sha256(hits_blob).hexdigest()
        ref_path = Path(params["reference"])
        reference = None
        if ref_path.exists():
            cached = json.loads(ref_path.read_text())
            if cached["hits_sha256"] == hits_digest:
                reference = [tuple(r) for r in cached["records"]]
        if reference is None:
            serial = blast2cap3_serial(queries, hits)
            reference = sorted((r.id, r.seq) for r in serial.output_records)
            ref_path.write_text(json.dumps(
                {"hits_sha256": hits_digest, "records": reference}))
        if produced != reference:
            out.fail(f"workflow output ({len(produced)} records) differs from "
                     f"blast2cap3_serial ({len(reference)} records)")
        result = state["runs"][-1] if state["runs"] else None
        attempts = list(result.dagman.trace.attempts) if result else []
        if not attempts:
            out.fail("no kickstart records from the workflow run")
        out.artifact_bytes = _tree_bytes(work)
        digest = hashlib.sha256(hits_blob)
        digest.update(json.dumps(produced).encode())
        out.fingerprint = digest.hexdigest()
        out.facts = {
            "attempts": len(attempts),
            "jobs_done": sum(1 for a in attempts if a.status.value == "succeeded"),
            "payload": _kickstart_payload(result, attempts),
            "blastx_s": raw["blastx_s"],
            "blast2cap3_s": raw["blast2cap3_s"],
            "workers": params["workers"],
            "local_wall_s": (max(a.exec_end for a in attempts)
                             - min(a.submit_time for a in attempts)) if attempts else 0.0,
        }
        return out


def _kickstart_payload(result: Any, attempts: list[Any]) -> dict[str, float]:
    """Payload seconds by role, plus the critical path through the DAG."""
    payload = {a.job_name: a.exec_end - a.exec_start
               for a in attempts if a.status.value == "succeeded"}
    by_role = {"run_cap3": [], "split": [], "merge": [], "all": []}
    for a in attempts:
        seconds = a.exec_end - a.exec_start
        by_role["all"].append(seconds)
        if a.transformation == "run_cap3":
            by_role["run_cap3"].append(seconds)
        elif a.transformation.startswith("split"):
            by_role["split"].append(seconds)
        elif a.transformation.startswith(("merge", "concat")):
            by_role["merge"].append(seconds)
    critical = 0.0
    if result is not None:
        dag = result.planned.dag
        parents: dict[str, list[str]] = {name: [] for name in dag.jobs}
        for parent, child in dag.edges():
            parents[child].append(parent)
        finish: dict[str, float] = {}

        def longest(name: str) -> float:
            if name not in finish:
                finish[name] = payload.get(name, 0.0) + max(
                    (longest(p) for p in parents[name]), default=0.0)
            return finish[name]

        critical = max((longest(name) for name in dag.jobs), default=0.0)
    return {
        "run_cap3_s": sum(by_role["run_cap3"]),
        "run_cap3_max_s": max(by_role["run_cap3"], default=0.0),
        "split_s": sum(by_role["split"]),
        "merge_s": sum(by_role["merge"]),
        "total_s": sum(by_role["all"]),
        "critical_path_s": critical,
    }


WORKLOADS = {
    "osg_run": SimWorkflow("osg", journal=False),
    "sandhills_journal": SimWorkflow("sandhills", journal=True),
    "service_grid": ServiceGrid(),
    "assembly": Assembly(),
}
