"""The benchmark's workloads: CLI jobs on seeded, relabelled groups.

Every job names a builtin group by its generators.  The workload seed only
changes how those generators are written down: seed 0 keeps the builtin
labels, and any other seed maps the m points injectively into m + PAD points
in a random order.  The program receives the group only as a generated
`--group-file`, so it never sees the seed.  Relabelling alone would change
nothing for S_m, whose elements are sorted; the padding is what changes the
order of group elements, rack labels and matrix columns.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

PAD = 2

# Generators of the builtin groups used here, as `braidhom.cli.builtin_group`
# defines them, in 1-based cycle notation.
GROUPS = {
    "S3": (3, ["(1 2)", "(1 2 3)"]),
    "S4": (4, ["(1 2)", "(1 2 3 4)"]),
    "A4": (4, ["(1 2 3)", "(2 3 4)"]),
    "D4": (4, ["(1 2 3 4)", "(1 3)"]),
}


@dataclass(frozen=True)
class Job:
    name: str
    group: str
    args: tuple[str, ...]
    field: str | None  # "q", "fp", or None for jobs that do no linear algebra
    repeat: int = 1  # runs per untraced pass; short jobs repeat so their median settles

    def argv(self, group_file: str) -> list[str]:
        return [self.args[0], "--group-file", group_file, *self.args[1:]]


_T = ("--classes", "transpositions")
_KOSZUL = ("koszul", *_T, "--epsilon", "--module", "R", "--pmax", "3", "--qmax", "4")

WORKLOADS: dict[str, list[Job]] = {
    "flagship": [
        Job("verify-S3-Q", "S3", ("verify", *_T, "--nmax", "5", "--field", "Q"), "q"),
        Job("verify-S3-F2", "S3", ("verify", *_T, "--nmax", "5", "--field", "2"), "fp"),
    ],
    "hurwitz": [
        Job("orbits-S4", "S4", ("orbits", *_T, "--nmax", "5"), None),
        Job("orbits-A4", "A4", ("orbits", "--classes", "3-cycles", "--nmax", "5"), None),
        Job("orbits-D4", "D4", ("orbits", "--classes", "all", "--nmax", "5"), None),
        Job("components-S4-Q", "S4", ("orbits", *_T, "--nmax", "4", "--components", "--field", "Q"), "q", 4),
        Job("components-S4-F5", "S4", ("orbits", *_T, "--nmax", "4", "--components", "--field", "5"), "fp", 4),
    ],
    "koszul": [
        Job("koszul-S4-Q", "S4", (*_KOSZUL, "--field", "Q"), "q"),
        Job("koszul-S4-F5", "S4", (*_KOSZUL, "--field", "5"), "fp", 3),
        Job("nichols-S3-Q", "S3", ("nichols", *_T, "--epsilon", "--nmax", "6", "--field", "Q"), "q"),
    ],
}


def point_map(group: str, seed: int) -> tuple[int, dict[int, int]]:
    """(degree, injection of the builtin points 1..m) for this group and seed."""
    m, _gens = GROUPS[group]
    if seed == 0:
        return m, {k: k for k in range(1, m + 1)}
    rng = random.Random(f"{group}:{seed}")
    degree = m + PAD
    image = rng.sample(range(1, degree + 1), m)
    return degree, dict(zip(range(1, m + 1), image))


def group_file_text(group: str, seed: int) -> str:
    """The relabelled group in the CLI's group-file format."""
    degree, pmap = point_map(group, seed)
    _m, gens = GROUPS[group]
    lines = [f"degree {degree}"]
    for gen in gens:
        lines.append(re.sub(r"\d+", lambda t: str(pmap[int(t.group())]), gen))
    return "\n".join(lines) + "\n"


def write_group_files(jobs: list[Job], seed: int, root: Path, rel_dir: str) -> dict[str, str]:
    """Write one group file per group the jobs use; map group -> path relative to root."""
    (root / rel_dir).mkdir(parents=True, exist_ok=True)
    paths = {}
    for group in sorted({job.group for job in jobs}):
        rel = f"{rel_dir}/{group}-seed{seed}.txt"
        (root / rel).write_text(group_file_text(group, seed))
        paths[group] = rel
    return paths
