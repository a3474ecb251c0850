"""Command-line frontend with stable, machine-readable outputs.

Every subcommand echoes its fully resolved job (including defaulted caps and
the chosen field) as a header, writes CSV or JSON, and is byte-for-byte
deterministic across runs.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 truncated window (increase koszul --pmax).

A job's options are parsed by `parse_job` from the table its subcommand's
`add_argument` calls declare; options are spelled in full, and an option
error is a usage error like any other.  argparse (`build_parser`) is built
only to print the help or to refuse a missing or unknown command, so a job
never imports it.

Builtin groups: S2..S6, A3..A5, Z1..Z12 (also spelled Z/n), D4.  Class
selectors: 'all', 'transpositions', 'k-cycles' (e.g. '3-cycles'), or an
explicit cycle type such as '2+2'.  A group can instead be read from a file
('degree m' header, one generator per line in cycle notation).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import braided, fnf, hurwitz, koszul, malle, nichols, qsa
from .braided import ConjClassSet, PermGroup, cycle_notation, cycle_type, parse_cycles
from .exactla import QQ, CoefficientField, ComplexIntegrityError, GF, _is_prime


class UsageError(ValueError):
    pass


class Default(str):
    """The text of an option's default, as the job echoes it.  It equals the
    same text given on the command line and is told apart from it by its
    type, so a job can refuse an option it would not read only when the
    option was given."""


# builtin groups and class selectors ------------------------------------------

def builtin_group(name: str) -> PermGroup:
    name = name.strip()
    key = name.upper().replace("/", "")
    if key.startswith("S") and key[1:].isdecimal():
        m = int(key[1:])
        if 2 <= m <= 6:
            gens = [parse_cycles("(1 2)", m)]
            if m > 2:
                gens.append(tuple(list(range(1, m)) + [0]))
            return PermGroup(m, gens, name=f"S{m}")
    if key.startswith("A") and key[1:].isdecimal():
        m = int(key[1:])
        if 3 <= m <= 5:
            gens = [parse_cycles("(1 2 3)", m)]
            if m == 4:
                gens.append(parse_cycles("(2 3 4)", m))
            elif m == 5:
                gens.append(parse_cycles("(1 2 3 4 5)", m))
            return PermGroup(m, gens, name=f"A{m}")
    if key.startswith("Z") and key[1:].isdecimal():
        m = int(key[1:])
        if 1 <= m <= 12:
            gen = tuple(list(range(1, m)) + [0]) if m > 1 else (0,)
            return PermGroup(m, [gen], name=f"Z{m}")
    if key == "D4":
        return PermGroup(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)], name="D4")
    raise UsageError(f"unknown builtin group {name!r} (try S2..S6, A3..A5, Z1..Z12, D4)")


def resolve_group(args) -> PermGroup:
    if args.group is not None and args.group_file is not None:
        raise UsageError("give only one of --group and --group-file")
    if args.group_file:
        with open(args.group_file) as fh:
            text = fh.read()
        try:
            return braided.load_group(text, name=args.group_file)
        except ValueError as exc:
            raise UsageError(f"{args.group_file}: {exc}") from None
    if args.group:
        return builtin_group(args.group)
    raise UsageError("a group is required (--group or --group-file)")


def class_selector(G: PermGroup, spec: str) -> ConjClassSet:
    spec = spec.strip().lower()
    if spec in ("all", "nontrivial"):
        target = None
    elif spec == "transpositions":
        target = (2,)
    elif spec.endswith("-cycles") and spec.split("-")[0].isdecimal():
        target = (int(spec.split("-")[0]),)
    else:
        try:
            target = tuple(sorted((int(t) for t in spec.split("+")), reverse=True))
        except ValueError:
            raise UsageError(f"unknown class selector {spec!r}")
    # cycle type is a class invariant, read once per class; the identity's class comes first
    E = G.elements
    elems = [E[i] for cl in G.class_indices[1:] if target is None or cycle_type(E[cl[0]]) == target for i in cl]
    if not elems:
        raise UsageError(f"class selector {spec!r} matches no elements of {G.name}")
    return ConjClassSet(G, elems)


def resolve_field(args, G: PermGroup | None) -> CoefficientField:
    spec = args.field
    if spec is None:
        # a prime dividing |G|, or the numerator or denominator of a rank-one
        # braiding scalar (nonzero, as `resolve_space` has checked), is skipped
        order = G.order if G is not None else 1
        if getattr(args, "rank1", False):
            sigma = Fraction(args.sigma)
            order *= sigma.numerator * sigma.denominator
        p = 2
        while order % p == 0:
            p += 1
            while not _is_prime(p):
                p += 1
        return GF(p)
    if spec.upper() == "Q":
        return QQ
    if spec.isdecimal() and _is_prime(int(spec)):
        p = int(spec)
        if getattr(args, "rank1", False) and Fraction(args.sigma).numerator % p == 0:
            raise UsageError(f"--sigma {args.sigma} vanishes in F_{p}, so the braiding is not invertible there")
        return GF(p)
    raise UsageError(f"field must be 'Q' or a prime, got {spec!r}")


def at_least(flag: str, value: int, least: int) -> int:
    """`value` of the option `flag`; a value below `least` is a usage error."""
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")
    return value


def resolve_nmax(args, default: int, least: int = 1) -> int:
    """--nmax as given, or `default` when absent; a value below `least` is a usage error."""
    return default if args.nmax is None else at_least("--nmax", args.nmax, least)


def resolve_space(args):
    """(braided space, group or None, class set or None) from shared V flags."""
    if getattr(args, "rank1", False):
        if args.group is not None or args.group_file is not None:
            raise UsageError("--rank1 builds a rank-one space; give it no --group or --group-file")
        refuse(args, "--rank1 builds a rank-one space", "--classes", "--cocycle")
        try:
            sigma = Fraction(args.sigma)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--sigma must be a nonzero integer or fraction, got {args.sigma!r}") from None
        if sigma.denominator == 1:
            sigma = int(sigma)
        V = braided.rank_one_space(sigma)
        if args.epsilon:
            V = braided.sign_twist(V)
        return V, None, None
    if not isinstance(getattr(args, "sigma", Default("1")), Default):
        raise UsageError("--sigma is the braiding scalar of --rank1; a group space takes none")
    G = resolve_group(args)
    c = class_selector(G, args.classes or "all")
    x = braided.Cocycle.constant(c.rack, int(args.cocycle))
    V = braided.braided_space(c.rack, x, epsilon=args.epsilon,
                              group=G, name=f"{G.name}[{args.classes or 'all'}]")
    return V, G, c


def refuse(args, why: str, *flags: str) -> None:
    """A usage error naming the first of `flags` given on the command line,
    told from its default (None, False or a `Default`) by value: the options
    a job would echo in its header but not read."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not (value is None or value is False or isinstance(value, Default)):
            raise UsageError(f"{why}; give it no {flag}")


# output plumbing --------------------------------------------------------------

def job_meta(args, extra: dict) -> dict:
    skip = {"func", "out"}
    meta = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    meta.update(extra)
    return {k: (str(v) if isinstance(v, Fraction) else v) for k, v in sorted(meta.items())}


def emit(args, meta: dict, header: list[str], rows: list[list]) -> str:
    if args.format == "json":
        obj = {"meta": meta, "columns": header, "rows": rows}
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
        lines.append(",".join(header))
        lines.extend(",".join(str(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


# subcommands -------------------------------------------------------------------

def cmd_betti(args) -> int:
    V, G, _c = resolve_space(args)
    F = resolve_field(args, G)
    nmax = resolve_nmax(args, qsa.default_nmax(V))
    rows = []
    for n in range(1, nmax + 1):
        for j, r in enumerate(fnf.braid_homology(V, n, F)):
            rows.append([n, j, r])
    emit(args, job_meta(args, {"field_resolved": str(F), "nmax_resolved": nmax,
                               "space": V.name, "schema": "betti"}),
         ["n", "j", "rank"], rows)
    return 0


def cmd_ext(args) -> int:
    V, G, _c = resolve_space(args)
    F = resolve_field(args, G)
    nmax = resolve_nmax(args, qsa.default_nmax(V))
    table = qsa.ext_table(V, nmax, F)
    rows = [[s, n, r] for (s, n), r in table.items()]
    emit(args, job_meta(args, {"field_resolved": str(F), "nmax_resolved": nmax,
                               "space": V.name, "schema": "ext"}),
         ["s", "n", "rank"], rows)
    return 0


def cmd_verify(args) -> int:
    V, G, _c = resolve_space(args)
    F = resolve_field(args, G)
    nmax = resolve_nmax(args, min(qsa.default_nmax(V), 5))
    rows = []
    all_ok = True
    for n in range(1, nmax + 1):
        rep = qsa.verify_main_cor(V, n, F)
        all_ok = all_ok and rep.ok
        for j in range(n + 1):
            rows.append([n, j, rep.betti[j], rep.ext_diagonal[j],
                         "pass" if rep.ok else "FAIL"])
    emit(args, job_meta(args, {"field_resolved": str(F), "nmax_resolved": nmax,
                               "space": V.name, "schema": "verify",
                               "result": "pass" if all_ok else "fail"}),
         ["n", "j", "betti", "ext", "status"], rows)
    return 0 if all_ok else 1


def cmd_nichols(args) -> int:
    V, G, _c = resolve_space(args)
    F = resolve_field(args, G)
    nmax = resolve_nmax(args, qsa.default_nmax(V))
    dims, stable = nichols.nichols_dims(V, nmax, F)
    rows = [[n, d] for n, d in enumerate(dims)]
    emit(args, job_meta(args, {"field_resolved": str(F), "nmax_resolved": nmax,
                               "space": V.name, "stably_zero": stable,
                               "schema": "nichols"}),
         ["n", "dim"], rows)
    return 0


def cmd_orbits(args) -> int:
    refuse(args, f"{args.command} reads no braiding", "--cocycle", "--epsilon")
    at_least("--cap", args.cap, 1)
    G = resolve_group(args)
    c = class_selector(G, args.classes or "all")
    F = resolve_field(args, G)
    nmax = resolve_nmax(args, 5, least=0)
    lat = hurwitz.subgroup_lattice(c)
    rows = []
    for n in range(nmax + 1):
        table = hurwitz.rack_orbits(c.rack, n, cap=args.cap)
        by_sub = {}
        for h in hurwitz.monodromy_labels(c, n, cap=args.cap):
            if h in lat:  # the n = 0 empty word has trivial monodromy, outside the lattice
                by_sub[lat.index(h)] = by_sub.get(lat.index(h), 0) + 1
        for i in sorted(by_sub):
            rows.append([n, len(table), f"H{i}", by_sub[i]])
        if args.components:
            comps = hurwitz.nielsen_component_count(c, n, cap=args.cap)
            rows.append([n, len(table), "components", comps])
    meta = job_meta(args, {"field_resolved": str(F), "nmax_resolved": nmax,
                           "schema": "orbits",
                           "subgroups": "; ".join(lat.describe(i) for i in range(len(lat)))})
    emit(args, meta, ["n", "orbit_count", "subgroup", "count"], rows)
    return 0


def cmd_koszul(args) -> int:
    V, G, c = resolve_space(args)
    if V.rack is None or G is None:
        raise UsageError("the koszul subcommand needs a group-based space")
    if not args.epsilon and int(args.cocycle) == 1:
        raise UsageError("the Koszul complex expects the sign-twisted space; pass --epsilon")
    at_least("--pmax", args.pmax, 0)
    at_least("--qmax", args.qmax, 1)
    F = resolve_field(args, G)
    if args.module == "R":
        spec = "R"
    else:
        lat = hurwitz.subgroup_lattice(c)
        kind, _, idx = args.module.partition(":")
        if kind not in ("exact", "sub") or not idx.isdecimal() or int(idx) >= len(lat):
            raise UsageError("module must be 'R', 'exact:<k>', or 'sub:<k>' with k a lattice index")
        spec = (kind, lat.subgroups[int(idx)])
    K = koszul.koszul_complex(V, spec, pmax=args.pmax, qmax=args.qmax, F=F, c=c)
    table = koszul.koszul_homology(K, by_multigrade=args.multigrade)
    rows = [list(key) + [r] for key, r in table.items()]
    rep = koszul.verify_koszul_identities(K, pr=K.pmax, qr=args.qmax - 2)
    meta = job_meta(args, {
        "field_resolved": str(F), "space": V.name, "schema": "koszul",
        "module_resolved": K.module.name, "pmax_resolved": K.pmax,
        "identities_anticommute": rep.anticommute_ok,
        "identities_trivial_action": rep.trivial_action_ok,
        "identities_nullhomotopy": rep.nullhomotopy_ok,
    })
    emit(args, meta, list(table.axes) + ["rank"], rows)
    return 0 if rep.ok else 1


def cmd_malle(args) -> int:
    refuse(args, f"{args.command} reads no braiding", "--cocycle", "--epsilon")
    at_least("--cap", args.cap, 1)
    G = resolve_group(args)
    c = class_selector(G, args.classes or "all")
    window = None
    if args.window is not None:
        window = [len(hurwitz.rack_orbits(c.rack, n, cap=args.cap))
                  for n in range(at_least("--window", args.window, 0) + 1)]
    mc = malle.malle_constants(G, c, orbit_window=window)
    rows = [[i, cycle_notation(cl[0]), len(cl), ind]
            for i, (cl, ind) in enumerate(zip(c.classes, mc.class_indices))]
    extra = {"a": str(mc.a), "center_order": mc.center_order,
             "rational_classes": c.rational, "schema": "malle"}
    if window is not None:
        extra["growth_degree_windowed"] = "none" if mc.growth_degree is None else mc.growth_degree
        extra["orbit_window"] = " ".join(str(v) for v in window)
    emit(args, job_meta(args, extra), ["class", "representative", "size", "ind"], rows)
    return 0


def cmd_bound(args) -> int:
    if (args.betti is None) == (args.betti_file is None):
        raise UsageError("give exactly one of --betti and --betti-file")
    if args.betti_file is not None:
        with open(args.betti_file) as fh:
            tokens, source = fh.read().replace(",", " ").split(), f"--betti-file {args.betti_file}"
    else:
        tokens, source = args.betti.split(","), "--betti"
    betti = []
    for t in tokens:
        try:
            betti.append(int(t))
        except ValueError:
            raise UsageError(f"{source}: Betti entries must be integers, got {t!r}") from None
    d = at_least("--d", args.d, 0)
    b = malle.point_count_bound(args.q, at_least("--n", args.n, 1 if d else 0), betti, d=d)
    val = b.value()
    rows = [[str(b.rational_part), str(b.sqrt_part), str(val),
             str(b.normalized[0]), str(b.normalized[1])]]
    emit(args, job_meta(args, {"schema": "bound"}),
         ["rational_part", "sqrt_part", "value", "normalized_rational", "normalized_sqrt"],
         rows)
    return 0


# parser ------------------------------------------------------------------------

def _add_space_flags(p, group_required=False):
    p.add_argument("--group", help="builtin group name (S2..S6, A3..A5, Z1..Z12, D4)")
    p.add_argument("--group-file", help="group file: 'degree m' header, one generator per line")
    p.add_argument("--classes", help="class selector: all, transpositions, 3-cycles, or a cycle type like 2+2")
    p.add_argument("--cocycle", default=Default("1"), choices=["1", "-1"], help="constant rack cocycle")
    p.add_argument("--epsilon", action="store_true", help="apply the sign twist to the braiding")
    if not group_required:
        p.add_argument("--rank1", action="store_true", help="use a rank-one space instead of a group")
        p.add_argument("--sigma", default=Default("1"), help="braiding scalar for --rank1 (integer or fraction)")


def _add_common(p, field_help="'Q' or a prime p (default: smallest prime not dividing |G|, "
                                "nor sigma's numerator or denominator for --rank1)"):
    p.add_argument("--field", help=field_help)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", help="output path (default stdout)")


def _space_job_args(p):
    _add_space_flags(p)
    p.add_argument("--nmax", type=int)
    _add_common(p)


def _orbits_args(p):
    _add_space_flags(p, group_required=True)
    p.add_argument("--nmax", type=int)
    p.add_argument("--components", action="store_true", help="also count connected-cover components")
    p.add_argument("--cap", type=int, default=hurwitz.DEFAULT_STATE_CAP,
                   help="refuse word lengths n with d^n above this (default 10^7)")
    _add_common(p, field_help="'Q' or a prime p; only echoed as field_resolved, since no "
                              "linear algebra runs (default: smallest prime not dividing |G|)")


def _koszul_args(p):
    _add_space_flags(p, group_required=True)
    p.add_argument("--module", default="R", help="'R', 'exact:<k>', or 'sub:<k>' (k = lattice index)")
    p.add_argument("--pmax", type=int, default=4)
    p.add_argument("--qmax", type=int, default=6)
    p.add_argument("--multigrade", action="store_true")
    _add_common(p)


def _malle_args(p):
    _add_space_flags(p, group_required=True)
    p.add_argument("--window", type=int, help="also fit a growth degree to orbit counts up to this n")
    p.add_argument("--cap", type=int, default=hurwitz.DEFAULT_STATE_CAP,
                   help="refuse word lengths n with d^n above this (default 10^7)")
    _add_common(p)


def _bound_args(p):
    p.add_argument("--betti", help="comma-separated ranks b_0,b_1,...")
    p.add_argument("--betti-file", help="file of whitespace- or comma-separated ranks")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=0)
    _add_common(p)


# name: (help line, adds the arguments to an ArgumentParser or an OptionTable,
#        runs the job)
SUBCOMMANDS = {
    "betti": ("braid group homology ranks H_j(B_n; V^n)", _space_job_args, cmd_betti),
    "ext": ("Ext ranks of the quantum shuffle algebra", _space_job_args, cmd_ext),
    "verify": ("cross-check braid homology against the Ext table", _space_job_args, cmd_verify),
    "nichols": ("Nichols algebra Hilbert dimensions", _space_job_args, cmd_nichols),
    "orbits": ("Hurwitz orbit counts and monodromy stratification", _orbits_args, cmd_orbits),
    "koszul": ("Koszul complex homology and identity checks", _koszul_args, cmd_koszul),
    "malle": ("index arithmetic: per-class ind, a(G,c), center order", _malle_args, cmd_malle),
    "bound": ("point-count upper bound from a Betti vector", _bound_args, cmd_bound),
}


class OptionTable:
    """The options one subcommand's `add_argument` calls declare, recorded
    without argparse: flag -> (dest, takes a value, type, choices), each
    dest's default, and the required flags."""

    def __init__(self, command: str):
        self.command = command
        self.options: dict[str, tuple] = {}
        self.defaults: dict[str, object] = {}
        self.required: list[str] = []
        SUBCOMMANDS[command][1](self)

    def add_argument(self, flag, *, action=None, type=None, default=None, choices=None,
                     required=False, help=None):
        dest = flag[2:].replace("-", "_")
        self.options[flag] = (dest, action is None, type, choices)
        self.defaults[dest] = default if action is None else False
        if required:
            self.required.append(flag)

    def parse(self, tokens: list[str]) -> SimpleNamespace:
        """The namespace argparse gives for these option tokens, which must
        spell each option in full; anything else raises UsageError naming
        the token."""
        values = dict(self.defaults)
        given = set()
        i = 0
        while i < len(tokens):
            token = tokens[i]
            i += 1
            flag, eq, value = token.partition("=")
            if flag not in self.options:
                kind = "option" if token.startswith("-") else "argument"
                raise UsageError(f"{self.command}: unrecognized {kind} {token!r}")
            dest, takes_value, convert, choices = self.options[flag]
            if not takes_value:
                if eq:
                    raise UsageError(f"{flag} takes no value, got {token!r}")
                value = True
            elif not eq:
                if i == len(tokens) or tokens[i].startswith("--"):
                    after = f", got {tokens[i]!r}" if i < len(tokens) else ""
                    raise UsageError(f"{flag} needs a value{after}")
                value = tokens[i]
                i += 1
            if convert is not None:
                try:
                    value = convert(value)
                except ValueError:
                    raise UsageError(f"{flag} needs an integer, got {value!r}") from None
            if choices is not None and value not in choices:
                raise UsageError(f"{flag} must be one of {', '.join(map(str, choices))}, got {value!r}")
            values[dest] = value
            given.add(flag)
        for flag in self.required:
            if flag not in given:
                raise UsageError(f"{self.command}: the option {flag} is required")
        return SimpleNamespace(command=self.command, func=SUBCOMMANDS[self.command][2], **values)


def parse_job(argv: list[str]) -> SimpleNamespace:
    """The namespace of the job `argv` asks for; its first token must be a
    subcommand.  For options spelled in full this is the namespace
    `build_parser().parse_args(argv)` gives."""
    if not argv or argv[0] not in SUBCOMMANDS:
        raise UsageError(f"the first argument must be one of {', '.join(SUBCOMMANDS)}")
    return OptionTable(argv[0]).parse(argv[1:])


def build_parser():
    """The argparse parser, with every subcommand and its arguments.  `main`
    builds it only to print the help or to refuse a missing or unknown
    command; `parse_job` parses a job's options from the same declarations."""
    import argparse

    ap = argparse.ArgumentParser(prog="braidhom",
                                 description="Exact braid group homology, shuffle algebra Ext, "
                                             "Hurwitz orbits, and related tables.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, func) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in SUBCOMMANDS or "-h" in argv or "--help" in argv:
            build_parser().parse_args(argv)  # prints the help or the usage error and exits
        args = parse_job(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComplexIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except koszul.TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
