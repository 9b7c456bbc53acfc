"""The repository benchmark: what a user pays per run, priced by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload osg_run --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in
``perfbench/workloads.py``. The driver writes the seeded inputs, then
starts one fresh interpreter (``worker.py``) per iteration until
``--seconds`` have passed, so peak RSS and set-up time are per
iteration. Every iteration repeats the same inputs, and its outputs are
checked and fingerprinted; all fingerprints of a run must agree.

``--trace 0`` reports the end-to-end metrics as medians over the
iterations. ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics as medians over the traced ones, plus the
tracing overhead against the untraced ones; the traced outputs must
equal the untraced outputs. ``--smoke`` shrinks every input for the
benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the
program's sources next to it the benchmark exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
#: No run may exceed the benchmark contract's 180 s: no iteration starts
#: after DEADLINE_S, and none outlives LIMIT_S.
DEADLINE_S = 150.0
LIMIT_S = 170.0


def _iterate(name: str, params_path: Path, run_dir: Path, index: int,
             traced: bool, spans: Path | None, timeout: float) -> dict[str, Any]:
    """One worker process; returns its result (or the failure)."""
    work = run_dir / f"iter-{index}"
    out = run_dir / f"iter-{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--params", str(params_path), "--work", str(work), "--out", str(out),
        "--trace", "1" if traced else "0",
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # A fixed hash seed keeps dict and set layouts, and so timings,
    # comparable across iterations. Bytecode caching stays on, as for an
    # installed package, so set-up measures imports, not compilation.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.time()
    # Its own session, so a timeout also stops the worker's pool processes.
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crashed": f"worker timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        return {"crashed": (stderr or stdout)[-2000:]}
    result = json.loads(out.read_text())
    result["traced"] = traced
    return result


def _median(results: list[dict[str, Any]], section: str) -> dict[str, float]:
    keys = results[0][section].keys()
    return {k: statistics.median(r[section][k] for r in results) for k in keys}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(names)})", file=sys.stderr)
        return 2
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans_path = RUNS / f"{args.workload}.spans.tsv"
    started = time.perf_counter()
    results: list[dict[str, Any]] = []
    crashes: list[str] = []
    try:
        run_dir.mkdir(parents=True)
        params = workload.prepare(run_dir, args.seed, args.smoke)
        params_path = run_dir / "params.json"
        params_path.write_text(json.dumps(params))
        index = 0
        durations: list[float] = []
        # Untraced and traced iterations alternate under --trace 1, so
        # both see the same share of any drift in host speed. The last
        # iteration starts only if it should end nearer the target than
        # stopping now would, so a run lasts about --seconds.
        while True:
            elapsed = time.perf_counter() - started
            expected = statistics.mean(durations) if durations else 0.0
            need_more = index < (2 if args.trace else 1)
            if elapsed >= DEADLINE_S or (
                    not need_more and elapsed + expected / 2 >= args.seconds):
                break
            traced = bool(args.trace) and index % 2 == 1
            began = time.perf_counter()
            result = _iterate(args.workload, params_path, run_dir, index,
                              traced, spans_path if traced else None,
                              timeout=LIMIT_S - elapsed)
            durations.append(time.perf_counter() - began)
            index += 1
            if "crashed" in result:
                crashes.append(result["crashed"])
            else:
                results.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for crash in crashes:
        print(f"perfbench: worker failed:\n{crash}", file=sys.stderr)
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no iteration produced a result", file=sys.stderr)
        return 1

    errors = [e for r in results for e in r["errors"]]
    fingerprints = {r["fingerprint"] for r in results}
    if len(fingerprints) != 1:
        errors.append(f"{len(fingerprints)} different outputs across "
                      f"{len(results)} iterations of the same inputs "
                      "(traced and untraced runs must agree)")
    for r in traced:
        tiling = r["tiling_ns"]
        if tiling["root"] != tiling["sum_self"]:
            errors.append(f"self times {tiling['sum_self']} ns do not tile the "
                          f"traced wall {tiling['root']} ns")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    # A crashed iteration attempted something and delivered nothing.
    attempted += len(crashes)
    failed += len(crashes)

    if args.trace:
        values = _median(traced, "layers")
        base = statistics.median(r["wall_s"] for r in untraced)
        values["bench.trace_overhead_pct"] = (
            100.0 * (statistics.median(r["wall_s"] for r in traced) / base - 1.0))
        values.update(_median(untraced, "stages"))
    else:
        values = _median(untraced, "metrics")
    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    for message in sorted(set(errors)):
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced iteration(s) "
          f"in {time.perf_counter() - started:.1f} s")
    for name, entry in metrics.items():
        print(f"#   {name:44s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
