"""Outside-in layer trace: wrap braidhom's public callables from the outside.

`Tracer.install` rebinds each target in every `braidhom.*` namespace that
binds it (the package itself, the defining module, and every module that
imported the name, such as `fnf`'s `homology_rank`), and patches methods on
their class.  A target that no longer exists is recorded as absent.  Each
call records a span (name, start, end, parent) plus counters computed from
its arguments and result; counter work happens outside the span and is
charged to no layer.  Spans stay in memory and are written as JSON lines
when the job ends.  `job_totals` and `combine` turn the span files of a set
of jobs into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from math import factorial
from time import perf_counter


def _field(F) -> dict:
    return {"field": "q" if F.characteristic == 0 else "fp"}


def _rank_pre(M, F):
    return {**_field(F), "nnz_in": M.nnz,
            "key": hash((M.rows, M.cols, frozenset(M.entries.items()), F.characteristic))}


def _matmul_pre(A, B, F):
    cols_a = Counter(j for _i, j in A.entries)
    rows_b = Counter(i for i, _j in B.entries)
    return {"mults": sum(n * rows_b.get(k, 0) for k, n in cols_a.items())}


def _solve_pre(A, b, F):
    return {**_field(F), "key": hash((tuple(map(tuple, A)), F.characteristic))}


def _closure_pre(group, gens):
    return {"key": hash(frozenset(gens))}


def _symmetrizer_pre(V, n):
    return {"word_actions": factorial(n) * V.rank ** n if n > 1 else 0}


def _complex_pre(system, n, F):
    return {"key": hash((id(getattr(system, "V", system)), n, F.characteristic))}


def _nnz_out(result, counters, _seen):
    return {**(counters or {}), "nnz_out": sum(m.nnz for m in result.diff.values())}


def _orbits_post(result, counters, seen):
    hit = id(result) in seen
    seen[id(result)] = result  # keep it alive so its id is never reused
    return {"words": sum(rec.size for rec in getattr(result, "orbits", ())), "hit": int(hit)}


def _monodromy_pre(word, G):
    return {"key": hash(frozenset(word))}


def _skew_pre(data, v, p):
    return {"key": hash((id(data), v, p))}


def _d_pre(K, p, q):
    return {"key": hash((id(K), p, q))}


# (span name, module, attribute or Class.method, counters from the arguments,
#  counters from the result and the tracer's dict of results already returned)
TARGETS = [
    ("exactla.rank", "exactla", "rank", _rank_pre, None),
    ("exactla.matmul", "exactla", "SparseMatrix.matmul", _matmul_pre, None),
    ("exactla.solve_dense", "exactla", "solve_dense", _solve_pre, None),
    ("exactla.homology_rank", "exactla", "homology_rank", None, None),
    ("braided.subgroup_closure", "braided", "PermGroup.subgroup_closure", _closure_pre, None),
    ("shuffle.quantum_symmetrizer", "shuffle", "quantum_symmetrizer", _symmetrizer_pre, None),
    ("fnf.complex_for_system", "fnf", "complex_for_system", _complex_pre, _nnz_out),
    ("fnf.check_complex", "fnf", "GradedComplex.check_complex", None, None),
    ("qsa.bar_complex", "qsa", "bar_complex", None, _nnz_out),
    ("qsa.verify_main_cor", "qsa", "verify_main_cor", None, None),
    ("hurwitz.rack_orbits", "hurwitz", "rack_orbits", None, _orbits_post),
    ("hurwitz.monodromy_group", "hurwitz", "monodromy_group", _monodromy_pre, None),
    ("hurwitz.nielsen_components", "hurwitz", "nielsen_components", None, None),
    ("nichols.build_to", "nichols", "NicholsData.build_to", None, None),
    ("nichols.reduce_dual", "nichols", "NicholsData.reduce_dual", None, None),
    ("nichols.skew_derivation", "nichols", "skew_derivation", _skew_pre, None),
    ("koszul.KoszulComplex.d", "koszul", "KoszulComplex.d", _d_pre, None),
    ("koszul.koszul_complex", "koszul", "koszul_complex", None, None),
    ("koszul.koszul_homology", "koszul", "koszul_homology", None, None),
    ("koszul.verify_koszul_identities", "koszul", "verify_koszul_identities", None, None),
]

PACKAGE = "braidhom"
JOB_SPAN = "job"  # name of the span around the whole entry-point call


class Tracer:
    """Span recorder for one job process."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []  # (name, start, end, parent index, wrapper overhead, counters)
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.errors = 0
        self.stolen: dict[int, float] = {}  # span index -> time taken by the reference sampler
        self._seen_results: dict[int, object] = {}

    # installation ---------------------------------------------------------------

    def install(self) -> None:
        for name, modname, attr, pre, post in self.targets:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, fname = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                orig = vars(owner).get(fname) if isinstance(owner, type) else None
            else:
                orig = getattr(mod, fname, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, pre, post)
            if owner_name:
                setattr(owner, fname, wrapper)
                continue
            for modobj in list(sys.modules.values()):
                if getattr(modobj, "__name__", "").partition(".")[0] != PACKAGE:
                    continue
                for key, value in list(vars(modobj).items()):
                    if value is orig:
                        setattr(modobj, key, wrapper)

    def _wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            o0 = perf_counter()
            counters = pre(*args, **kwargs) if pre is not None else None
            idx = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                self.errors += 1
                spans[idx] = (name, t0, t1, parent, t0 - o0, {**(counters or {}), "error": 1})
                raise
            t1 = perf_counter()
            stack.pop()
            if post is not None:
                counters = post(result, counters, self._seen_results)
            spans[idx] = (name, t0, t1, parent, (t0 - o0) + (perf_counter() - t1), counters)
            return result

        return wrapper

    # recording -------------------------------------------------------------------

    @contextmanager
    def root(self):
        """The job span; everything the job runs nests inside it."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[idx] = (JOB_SPAN, t0, t1, None, 0.0, None)

    def steal(self, dt: float) -> None:
        """Charge time spent outside braidhom to no layer."""
        if self.stack:
            idx = self.stack[-1]
            self.stolen[idx] = self.stolen.get(idx, 0.0) + dt

    def write(self, path: str, job: str = "") -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"job": job, "absent": self.absent, "errors": self.errors}) + "\n")
            for i, (name, t0, t1, parent, ovh, counters) in enumerate(self.spans):
                rec = {"job": job, "id": i, "name": name, "start": t0, "end": t1,
                       "parent": parent, "ovh": ovh, "stolen": self.stolen.get(i, 0.0)}
                if counters:
                    rec.update(counters)
                fh.write(json.dumps(rec) + "\n")


# aggregation -----------------------------------------------------------------------

SUMMED = ("nnz_in", "mults", "word_actions", "nnz_out", "words", "hit")


def job_totals(path) -> dict:
    """Per-layer sums over one job's span file; `combine` derives the ratios."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    out = Counter({"trace.layer_errors": header["errors"], "trace.absent": len(header["absent"])})
    keys: dict[str, set] = {}
    covered = [s["stolen"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"] + s["ovh"]
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        self_s = dur - covered[s["id"]]
        if name == JOB_SPAN:
            out["job.wall_s"] += dur - sum(x["stolen"] for x in spans)
            out["job.root_self_s"] += self_s
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name}.total_s"] += dur
        if "field" in s:
            out[f"{name}.{s['field']}_self_s"] += self_s
        for k in SUMMED:
            if k in s:
                out[f"{name}.{k}"] += s[k]
        if "key" in s:
            keys.setdefault(name, set()).add(s["key"])
        if name == "exactla.matmul":
            above = _ancestors(spans, s)
            if "exactla.homology_rank" in above:
                out["exactla.matmul.in_homology_rank_s"] += dur
            if "fnf.check_complex" in above or "koszul.koszul_complex" in above:
                out["exactla.matmul.in_check_s"] += dur
    for name, ks in keys.items():
        out[f"{name}.distinct"] = len(ks)
    return dict(out)


def combine(jobs: list[dict]) -> dict:
    """Sum per-job totals and derive the ratio metrics."""
    out: dict = {}
    for totals in jobs:
        for k, v in totals.items():
            out[k] = max(out.get(k, 0), v) if k == "trace.absent" else out.get(k, 0) + v
    for k in list(out):
        layer, _, metric = k.rpartition(".")
        if metric == "distinct":
            out[f"{layer}.unique_ratio"] = out[k] / out[f"{layer}.calls"]
        elif metric == "hit":
            out[f"{layer}.hit_ratio"] = out[k] / out[f"{layer}.calls"]
    if out.get("job.wall_s"):
        out["job.unattributed_frac"] = out["job.root_self_s"] / out["job.wall_s"]
    return out


def _ancestors(spans: list[dict], s: dict) -> set:
    names = set()
    p = s["parent"]
    while p is not None:
        names.add(spans[p]["name"])
        p = spans[p]["parent"]
    return names
