"""Benchmark entry point: run one workload of braidhom CLI jobs and report metrics.

    python3 perfbench/run.py --workload flagship --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each job runs in a fresh interpreter
(`child.py`), one at a time, with `BRAIDHOM_THREADS` removed from its
environment.  The run repeats passes over the workload's jobs for about
`--seconds` seconds and reports per-job medians summed over the workload.
With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json; with
`--trace 1` each job runs untraced and then traced, and it prints the
per-layer metrics.  Every output is checked against `expected.json`; the
last line of stdout is the JSON result.  Scratch files go to `.perfbench_run/`
in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
from workloads import WORKLOADS, write_group_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_run"
JOB_TIMEOUT_S = 90.0
MIN_PASSES = 2  # so every median has at least two samples, even when a pass is slow
PROBES_PER_PASS = 4  # extra interpreter starts per pass that only sample set-up time
RUN_LIMIT_S = 150.0  # no job may run past this point of a run


def _child(result_path: Path, args: list[str], timeout: float):
    """Run child.py in a fresh interpreter: (exit code or None on timeout, stderr, record)."""
    result_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "BRAIDHOM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(result_path), *args],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "", {}
    rec = {}
    if result_path.is_file():
        with open(result_path) as fh:
            rec = json.load(fh)
        rec["setup_s"] = rec.pop("imported_at") - t_spawn
    return proc.returncode, err, rec


def probe_setup() -> float | None:
    """Set-up time of one interpreter that imports braidhom and exits."""
    _rc, _err, rec = _child(ROOT / WORK / "probe.result.json", ["--probe"], JOB_TIMEOUT_S)
    return rec.get("setup_s")


def run_job(job, argv: list[str], expected: dict, traced: bool, timeout: float) -> dict:
    """Run one job in a fresh interpreter; return its timings and output."""
    spans_path = ROOT / WORK / f"{job.name}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    rc, err, rec = _child(ROOT / WORK / f"{job.name}.result.json",
                          [str(spans_path) if traced else "-", "--", *argv], timeout)
    rec["job"] = job.name
    if rc is None:
        rec["error"] = "timeout"
        return rec
    if rec.get("rc", 0) != 0:
        rc = rec["rc"]
    rec["error"] = gate.check(rc, rec.get("output"), expected)
    if rec["error"] and err.strip():
        rec["stderr"] = err.strip().splitlines()[-1]
    if traced and rec["error"] is None:
        rec["layers"] = tracing.job_totals(spans_path)
    return rec


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Passes of untraced (and, with trace, traced) job records, and set-up samples."""
    jobs = WORKLOADS[name]
    expected = gate.load_expected()
    groups = write_group_files(jobs, seed, ROOT, f"{WORK}/groups")
    start = time.monotonic()
    plain, traced, pass_s, setups = [], [], [], []
    while True:
        elapsed = time.monotonic() - start
        if len(pass_s) >= MIN_PASSES and (elapsed + statistics.mean(pass_s) / 2 > seconds
                                          or elapsed + 1.5 * max(pass_s) > RUN_LIMIT_S):
            break
        t0 = time.monotonic()
        setups.extend(probe_setup() for _ in range(PROBES_PER_PASS))
        plain.append([])
        traced.append([])
        for job in jobs:
            argv = job.argv(groups[job.group])
            for is_traced in ((False, True) if trace else (False,) * job.repeat):
                timeout = min(JOB_TIMEOUT_S, max(1.0, RUN_LIMIT_S - (time.monotonic() - start)))
                rec = run_job(job, argv, expected[job.name], is_traced, timeout)
                (traced if is_traced else plain)[-1].append(rec)
            if trace and traced[-1][-1]["error"] is None \
                    and traced[-1][-1]["output"] != plain[-1][-1].get("output"):
                traced[-1][-1]["error"] = "traced output differs from untraced output"
        pass_s.append(time.monotonic() - t0)
    setups.extend(r["setup_s"] for recs in plain + traced for r in recs if r["error"] is None)
    return plain, traced, [s for s in setups if s is not None]


def _median_by_job(passes: list[list[dict]], value) -> dict[str, float]:
    by_job: dict[str, list[float]] = {}
    for recs in passes:
        for rec in recs:
            if rec["error"] is None:
                by_job.setdefault(rec["job"], []).append(value(rec))
    return {job: statistics.median(v) for job, v in by_job.items()}


def end_to_end(name: str, plain: list[list[dict]], setups: list[float]) -> dict[str, float]:
    fields = {job.name: job.field for job in WORKLOADS[name]}
    ref = _median_by_job(plain, lambda r: r["wall_s"] / r["ref_s"])
    runs = [r for recs in plain for r in recs]
    return {
        "wall_s": sum(_median_by_job(plain, lambda r: r["wall_s"]).values()),
        "cpu_s": sum(_median_by_job(plain, lambda r: r["cpu_s"]).values()),
        "wall_ref": sum(ref.values()),
        "wall_ref_q": sum(v for job, v in ref.items() if fields[job] == "q"),
        "wall_ref_fp": sum(v for job, v in ref.items() if fields[job] == "fp"),
        "cpu_ref": sum(_median_by_job(plain, lambda r: r["cpu_s"] / r["ref_cpu_s"]).values()),
        # every job pays the same start-up, so the median over all of them,
        # times the number of jobs, is a steadier estimate of their sum
        "setup_s": len(fields) * statistics.median(setups) if setups else 0.0,
        "peak_rss_mib": max((r["peak_rss_kib"] for r in runs if "peak_rss_kib" in r), default=0) / 1024,
    }


def per_layer(plain: list[list[dict]], traced: list[list[dict]]) -> dict[str, float]:
    per_pass = []
    for recs_plain, recs_traced in zip(plain, traced):
        if any(r["error"] is not None for r in recs_plain + recs_traced):
            continue
        m = tracing.combine([r["layers"] for r in recs_traced])
        ref_traced = sum(r["wall_s"] / r["ref_s"] for r in recs_traced)
        ref_plain = sum(r["wall_s"] / r["ref_s"] for r in recs_plain)
        m["trace.overhead_frac"] = ref_traced / ref_plain - 1
        m["job.untraced_wall_s"] = sum(r["wall_s"] for r in recs_plain)
        m["job.untraced_cpu_s"] = sum(r["cpu_s"] for r in recs_plain)
        per_pass.append(m)
    names = set().union(*per_pass) if per_pass else set()
    return {k: statistics.median(m.get(k, 0) for m in per_pass) for k in names}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": os.getloadavg(),
        "commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "braidhom" / "cli.py").is_file():
        print(f"error: no braidhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    (ROOT / WORK).mkdir(exist_ok=True)
    info = machine(args.seed)
    plain, traced, setups = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info["loadavg_after"] = os.getloadavg()
    if args.trace:
        values = per_layer(plain, traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args.workload, plain, setups)
        wanted = spec["end_to_end"]
    runs = [r for passes in (plain, traced) for recs in passes for r in recs]
    failed = [r for r in runs if r["error"] is not None]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    record = {"workload": args.workload, "trace": args.trace, "machine": info,
              "passes": len(plain), "metrics": metrics, "values": values, "setup_samples": setups,
              "runs": [{k: v for k, v in r.items() if k not in ("output", "layers")} for r in runs]}
    with open(ROOT / WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for job, wall in _median_by_job(plain, lambda r: r["wall_s"]).items():
        ref = _median_by_job(plain, lambda r: r["wall_s"] / r["ref_s"])[job]
        print(f"{job}: median wall {wall:.3f} s, {ref:.1f} ref over {len(plain)} passes")
    for r in failed:
        print(f"FAILED {r['job']}: {r['error']} {r.get('stderr', '')}".rstrip())
    print("machine: " + json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
