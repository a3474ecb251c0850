"""Tests of the benchmark's own pieces: output gate, seeded inputs, reference
kernel, tracer and result format.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gate
import refkernel
import tracing
from workloads import GROUPS, WORKLOADS, group_file_text, point_map

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = gate.load_expected()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _render(d: dict) -> str:
    """A CLI-style CSV output with the given digest (non-orbits schemas)."""
    lines = [f"# {k}={v}" for k, v in sorted({**d["flags"], "schema": d["schema"]}.items())]
    lines.append(",".join(d["columns"]))
    lines.extend(",".join(r) for r in d["rows"])
    return "\n".join(lines) + "\n"


def _child(tmp_path: Path, args: list[str], traced: bool) -> tuple[int, dict, Path]:
    result = tmp_path / ("traced.json" if traced else "plain.json")
    spans = tmp_path / "traced.spans.jsonl"
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(result),
                           str(spans) if traced else "-", "--", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(result.read_text()), spans


# the gate ------------------------------------------------------------------------

def test_every_job_has_an_expected_table():
    assert set(EXPECTED) == {job.name for jobs in WORKLOADS.values() for job in jobs}


def test_expected_tables_agree_with_values_the_tests_pin():
    verify_q = EXPECTED["verify-S3-Q"]
    n3 = [r for r in verify_q["rows"] if r[0] == "3"]
    assert [int(r[2]) for r in n3] == [6, 9, 3, 0]
    assert [int(r[3]) for r in n3] == [6, 9, 3, 0]
    assert verify_q["flags"] == {"result": "pass"}
    nichols = EXPECTED["nichols-S3-Q"]
    assert [int(r[1]) for r in nichols["rows"]] == [1, 3, 4, 3, 1, 0, 0]
    assert nichols["flags"] == {"stably_zero": "True"}
    for name in ("koszul-S4-Q", "koszul-S4-F5"):
        assert EXPECTED[name]["flags"]["identities_anticommute"] == "True"


def test_gate_accepts_the_expected_table():
    exp = EXPECTED["verify-S3-F2"]
    assert gate.check(0, _render(exp), exp) is None


def test_gate_fails_a_corrupted_table():
    exp = EXPECTED["verify-S3-F2"]
    bad = json.loads(json.dumps(exp))
    bad["rows"][5][2] = str(int(bad["rows"][5][2]) + 1)
    assert gate.check(0, _render(bad), exp) is not None
    flipped = json.loads(json.dumps(exp))
    flipped["flags"]["result"] = "fail"
    assert gate.check(0, _render(flipped), exp) is not None
    assert gate.check(0, "", exp) is not None


def test_gate_fails_a_nonzero_exit():
    exp = EXPECTED["verify-S3-F2"]
    assert gate.check(1, _render(exp), exp) == "exit code 1"
    assert gate.check(None, None, exp) is not None


def test_gate_matches_orbit_rows_by_subgroup_order():
    def orbits(subgroups, rows):
        return (f"# schema=orbits\n# subgroups={subgroups}\nn,orbit_count,subgroup,count\n"
                + "".join(f"{r}\n" for r in rows))

    a = orbits("H0|order=2|gens=(1 2); H1|order=6|gens=(1 2);(2 3)", ["2,5,H0,3", "2,5,H1,2"])
    b = orbits("H0|order=6|gens=(1 3);(2 3); H1|order=2|gens=(1 3)", ["2,5,H1,3", "2,5,H0,2"])
    c = orbits("H0|order=6|gens=(1 3);(2 3); H1|order=2|gens=(1 3)", ["2,5,H0,3", "2,5,H1,2"])
    assert gate.digest(a) == gate.digest(b)
    assert gate.digest(a) != gate.digest(c)


# seeded inputs -------------------------------------------------------------------

def test_seed_zero_keeps_the_builtin_labels():
    assert group_file_text("S4", 0) == "degree 4\n(1 2)\n(1 2 3 4)\n"
    assert group_file_text("D4", 0) == "degree 4\n(1 2 3 4)\n(1 3)\n"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_other_seeds_pad_and_relabel_deterministically(group):
    m, _ = GROUPS[group]
    texts = {group_file_text(group, seed) for seed in range(1, 6)}
    assert len(texts) > 1
    for seed in range(1, 6):
        assert group_file_text(group, seed) == group_file_text(group, seed)
        degree, pmap = point_map(group, seed)
        assert degree > m
        assert sorted(pmap) == list(range(1, m + 1)) and len(set(pmap.values())) == m


@pytest.mark.parametrize("group,classes", [("S3", "transpositions"), ("S4", "transpositions"),
                                           ("A4", "3-cycles"), ("D4", "all")])
def test_padding_changes_the_rack_label_order(group, classes):
    from braidhom import braided, cli

    def label_order(seed):
        G = braided.load_group(group_file_text(group, seed))
        _degree, pmap = point_map(group, seed)
        back = {v - 1: k - 1 for k, v in pmap.items()}
        m = GROUPS[group][0]
        # each rack label written back in the builtin labelling
        return [tuple(back[g[pmap[k + 1] - 1]] for k in range(m))
                for g in cli.class_selector(G, classes).elements]

    base = label_order(0)
    orders = [label_order(seed) for seed in range(1, 5)]
    assert all(sorted(o) == sorted(base) for o in orders)
    assert any(o != base for o in orders)


# reference kernel ----------------------------------------------------------------

def test_reference_kernel_never_imports_braidhom():
    code = ("import sys; import refkernel; refkernel.time_kernel(); "
            "print(any(m.split('.')[0] == 'braidhom' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "False"
    assert refkernel.reference_kernel() == refkernel.reference_kernel()


def test_sampler_times_the_kernel_during_the_block():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    stolen = []
    with refkernel.Sampler(stolen.append) as s:
        end = time.perf_counter() + 3.5 * refkernel.INTERVAL
        while time.perf_counter() < end:
            pass
    assert len(s.samples) >= 2 * refkernel.REPS + 2
    assert s.stolen_s == pytest.approx(sum(stolen)) and s.stolen_s > 0
    assert s.ref_s > 0 and s.ref_cpu_s > 0
    assert signal.getsignal(signal.SIGALRM) == before


# tracer --------------------------------------------------------------------------

def test_absent_targets_are_reported_not_fatal():
    t = tracing.Tracer(targets=[("gone.fn", "exactla", "no_such_function", None, None),
                                ("gone.method", "exactla", "SparseMatrix.no_such_method", None, None),
                                ("gone.module", "no_such_module", "f", None, None)])
    t.install()
    assert t.absent == ["gone.fn", "gone.method", "gone.module"]


def test_job_totals_split_self_time(tmp_path):
    header = {"job": "j", "absent": ["x"], "errors": 0}

    def span(i, name, t0, t1, parent, stolen=0.0, **counters):
        return {"job": "j", "id": i, "name": name, "start": t0, "end": t1, "parent": parent,
                "ovh": 0.0, "stolen": stolen, **counters}

    spans = [span(0, "job", 0.0, 10.0, None),
             span(1, "exactla.homology_rank", 1.0, 5.0, 0, stolen=0.5),
             span(2, "exactla.matmul", 2.0, 3.0, 1, mults=7),
             span(3, "exactla.rank", 6.0, 8.0, 0, field="q", key=1, nnz_in=4),
             span(4, "exactla.rank", 8.0, 9.0, 0, field="fp", key=1, nnz_in=2)]
    path = tmp_path / "j.spans.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *spans]))
    m = tracing.combine([tracing.job_totals(path)])
    assert m["exactla.homology_rank.self_s"] == pytest.approx(2.5)
    assert m["exactla.matmul.in_homology_rank_s"] == pytest.approx(1.0)
    assert m["exactla.matmul.mults"] == 7
    assert m["exactla.rank.q_self_s"] == pytest.approx(2.0)
    assert m["exactla.rank.fp_self_s"] == pytest.approx(1.0)
    assert m["exactla.rank.unique_ratio"] == pytest.approx(0.5)
    assert m["exactla.rank.nnz_in"] == 6
    assert m["job.wall_s"] == pytest.approx(9.5)
    assert m["job.unattributed_frac"] == pytest.approx(3.0 / 9.5)
    assert m["trace.absent"] == 1


def test_traced_output_is_byte_identical_and_rebinds_imported_names(tmp_path):
    args = ["verify", "--group", "S3", "--classes", "transpositions", "--nmax", "4", "--field", "Q"]
    rc_plain, plain, _ = _child(tmp_path, args, traced=False)
    rc_traced, traced, spans_path = _child(tmp_path, args, traced=True)
    assert rc_plain == rc_traced == 0
    assert traced["output"] == plain["output"]
    lines = spans_path.read_text().splitlines()
    header, spans = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    assert header["absent"] == [] and header["errors"] == 0
    names = {s["name"] for s in spans}
    # homology_rank is only ever called through the name fnf imported
    assert {"job", "qsa.verify_main_cor", "exactla.rank", "exactla.homology_rank",
            "fnf.complex_for_system", "fnf.check_complex", "qsa.bar_complex"} <= names
    m = tracing.combine([tracing.job_totals(spans_path)])
    assert 0 <= m["job.unattributed_frac"] < 0.1


# result format -------------------------------------------------------------------

PER_LAYER_SUFFIXES = ("calls", "self_s", "total_s", "q_self_s", "fp_self_s", "unique_ratio",
                      "hit_ratio", "nnz_in", "mults", "word_actions", "nnz_out", "words",
                      "in_homology_rank_s", "in_check_s")


def test_per_layer_metrics_name_traced_layers():
    spans = {t[0] for t in tracing.TARGETS}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name.startswith(("job.", "trace.")):
            continue
        layer, _, suffix = name.rpartition(".")
        assert layer in spans and suffix in PER_LAYER_SUFFIXES, name


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_pass_of_a_workload_reports_every_metric(trace):
    out = _run("hurwitz", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    jobs = WORKLOADS["hurwitz"]
    per_pass = 2 * len(jobs) if trace else sum(job.repeat for job in jobs)
    assert result["attempted"] == 2 * per_pass  # the minimum of two passes
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("hurwitz", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
