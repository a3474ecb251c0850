"""Label-invariant output check behind `fail_frac`.

A job passes when it exits 0 and its CSV output agrees with the expected
table in `expected.json` on everything that does not depend on how the group
is labelled:

- the data rows (ranks, Betti numbers, dimensions, orbit counts);
- the header flags `result`, `stably_zero` and `identities_*`;
- for `orbits`, each `H<i>` row with the subgroup index replaced by the
  subgroup's order, compared as a multiset, because the index depends on the
  order of group elements.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
_SUBGROUP = re.compile(r"H(\d+)\|order=(\d+)")


def digest(text: str) -> dict:
    """The label-invariant part of one CSV output."""
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line.split(","))
    if not body:
        raise ValueError("output has no column header")
    flags = {k: v for k, v in meta.items()
             if k in ("result", "stably_zero") or k.startswith("identities_")}
    columns, rows = body[0], body[1:]
    if meta.get("schema") == "orbits":
        orders = {f"H{i}": f"order={o}" for i, o in _SUBGROUP.findall(meta.get("subgroups", ""))}
        rows = sorted([n, count_n, orders.get(sub, sub), count] for n, count_n, sub, count in rows)
    return {"schema": meta.get("schema"), "flags": flags, "columns": columns, "rows": rows}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(rc: int | None, output: str | None, expected: dict) -> str | None:
    """None when the job passed, otherwise the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    if output is None:
        return "no output"
    try:
        got = digest(output)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    if got != expected:
        return "output differs from the expected table"
    return None
