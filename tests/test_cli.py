import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidhom import braided, hurwitz, koszul, orbits, qsa
from braidhom.braided import cycle_notation, load_group
from braidhom.cli import SUBCOMMANDS, OptionTable, build_parser, builtin_group, class_selector, main, parse_job
from braidhom.exactla import ComplexIntegrityError


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_builtin_groups():
    assert builtin_group("S4").order == 24
    assert builtin_group("A4").order == 12
    assert builtin_group("A5").order == 60
    assert builtin_group("Z/6").order == 6
    assert builtin_group("D4").order == 8
    with pytest.raises(Exception):
        builtin_group("S9")


def test_class_selectors():
    G = builtin_group("S4")
    assert len(class_selector(G, "transpositions")) == 6
    assert len(class_selector(G, "3-cycles")) == 8
    assert len(class_selector(G, "2+2")) == 3
    assert len(class_selector(G, "all")) == 23


def test_betti_rank1(capsys):
    rc, out = run(capsys, ["betti", "--rank1", "--nmax", "4", "--field", "Q"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,j,rank"
    rows = {tuple(map(int, ln.split(",")[:2])): int(ln.split(",")[2]) for ln in lines[1:]}
    for n in (2, 3, 4):
        assert rows[(n, 0)] == 1 and rows[(n, 1)] == 1
        assert all(rows[(n, j)] == 0 for j in range(2, n + 1))


def test_meta_echoes_defaults(capsys):
    rc, out = run(capsys, ["betti", "--rank1", "--nmax", "2"])
    assert rc == 0
    assert "# field_resolved=F_2" in out  # rank-one space: smallest prime is 2
    assert "# nmax_resolved=2" in out


def test_default_field_avoids_sigma(capsys):
    # sigma = 1/2 has no value mod 2, so the default working prime is 3
    rc, out = run(capsys, ["betti", "--rank1", "--sigma", "1/2", "--nmax", "3"])
    assert rc == 0
    assert "# field_resolved=F_3" in out
    rc, out = run(capsys, ["betti", "--rank1", "--sigma", "6", "--nmax", "2"])
    assert rc == 0
    assert "# field_resolved=F_5" in out


def test_default_field_avoids_group_order(capsys):
    # |S3| = 6, so the default working prime is 5
    rc, out = run(capsys, ["malle", "--group", "S3", "--classes", "all"])
    assert rc == 0
    rc, out = run(capsys, ["nichols", "--group", "S3", "--classes", "transpositions",
                           "--epsilon", "--nmax", "2"])
    assert rc == 0
    assert "# field_resolved=F_5" in out


def test_verify_pass_and_exit_codes(capsys):
    rc, out = run(capsys, ["verify", "--group", "S3", "--classes", "transpositions",
                           "--nmax", "3", "--field", "2"])
    assert rc == 0
    assert "# result=pass" in out


def test_verify_fails_when_a_bar_block_operator_differs(monkeypatch, capsys):
    # the bar operator negated on two single letters negates the top bar
    # differential at n = 2 and n = 3 and nothing else, so each bar complex
    # stays a complex with the FNF ranks, but the operators differ
    real_bar_blocks = qsa.bar_blocks

    def negated_on_letters(V, n, F, words=None):
        block = real_bar_blocks(V, n, F, words)
        return lambda a, b, offset: ([{j: F.neg(cf) for j, cf in vec.items()} for vec in block(a, b, offset)]
                                     if (a, b) == (1, 1) else block(a, b, offset))

    monkeypatch.setattr(qsa, "bar_blocks", negated_on_letters)
    rc, out = run(capsys, ["verify", "--group", "S3", "--classes", "transpositions", "--nmax", "3", "--field", "Q"])
    assert rc == 1
    assert "# result=fail" in out
    assert [ln.rsplit(",", 1)[1] for ln in out.splitlines() if ln[:2] in ("1,", "2,", "3,")] == \
        ["pass"] * 2 + ["FAIL"] * 7


def test_ext_json(capsys):
    rc, out = run(capsys, ["ext", "--rank1", "--sigma", "-2", "--nmax", "4",
                           "--field", "Q", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["columns"] == ["s", "n", "rank"]
    assert obj["rows"] == [[0, 0, 1], [1, 1, 1]]
    assert obj["meta"]["schema"] == "ext"


def test_nichols_subcommand(capsys):
    rc, out = run(capsys, ["nichols", "--group", "S3", "--classes", "transpositions",
                           "--epsilon", "--nmax", "5", "--field", "Q"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines == ["n,dim", "0,1", "1,3", "2,4", "3,3", "4,1", "5,0"]


def test_orbits_subcommand(capsys):
    rc, out = run(capsys, ["orbits", "--group", "S3", "--classes", "transpositions",
                           "--nmax", "2", "--components"])
    assert rc == 0
    assert "2,5,components,1" in out


def test_orbit_components_build_no_betti_complex(monkeypatch, capsys):
    def no_betti(system, n, F):
        raise AssertionError("orbits --components built a Betti complex")

    monkeypatch.setattr(hurwitz, "complex_for_system", no_betti)
    rc, out = run(capsys, ["orbits", "--group", "S4", "--classes", "transpositions",
                           "--nmax", "4", "--components", "--field", "Q"])
    assert rc == 0
    assert "4,38,components,2" in out


def test_koszul_on_the_full_ring_builds_no_lattice(monkeypatch, capsys):
    def no_lattice(c):
        raise AssertionError("koszul --module R built the subgroup lattice")

    monkeypatch.setattr(hurwitz, "subgroup_lattice", no_lattice)
    rc, _ = run(capsys, ["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon",
                         "--module", "R", "--pmax", "2", "--qmax", "3", "--field", "Q"])
    assert rc == 0


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("orbits_S4_transpositions_nmax4_components.csv",
     ["orbits", "--group", "S4", "--classes", "transpositions", "--nmax", "4", "--components"]),
    ("orbits_A4_3-cycles_nmax5.csv",
     ["orbits", "--group", "A4", "--classes", "3-cycles", "--nmax", "5"]),
    ("orbits_D4_all_nmax5.csv",
     ["orbits", "--group", "D4", "--classes", "all", "--nmax", "5"]),
    ("orbits_S4_transpositions_nmax6_components.csv",
     ["orbits", "--group", "S4", "--classes", "transpositions", "--nmax", "6", "--components"]),
    ("orbits_S5_transpositions_nmax7_components.csv",
     ["orbits", "--group", "S5", "--classes", "transpositions", "--nmax", "7", "--components"]),
    ("orbits_S6_transpositions_nmax5_components.csv",
     ["orbits", "--group", "S6", "--classes", "transpositions", "--nmax", "5", "--components"]),
])
def test_orbits_golden(name, argv, capsys):
    # stdout recorded from earlier orbit engines: the first two when orbits
    # were a tuple BFS over sigma_i and its inverse, and components were
    # counted by a BFS over Nielsen classes; the next two when orbits were a
    # sweep of the word codes under sigma_i and every monodromy label was a
    # subgroup closure, before orbits were built by induction on n; the fifth
    # when each level was built and labelled with a pass over every word
    # code; the last, which pins the H<i> ids of a lattice of 202 subgroups,
    # when each lattice subgroup was closed from the identity under every
    # letter of its generating mask
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


def test_koszul_golden(capsys):
    # stdout recorded: for the S4 stratum, when the nullhomotopy check
    # conjugated letters by group products and every lattice subgroup was
    # closed over tuples; for the S5 and D4 rings, when every diagonal was
    # ranked whole rather than one G-grade per conjugacy class
    for name, argv in [
        ("koszul_S4_transpositions_epsilon_exact3_pmax3_qmax4_Q.csv",
         ["--group", "S4", "--classes", "transpositions", "--module", "exact:3", "--pmax", "3", "--qmax", "4",
          "--field", "Q"]),
        ("koszul_S5_transpositions_epsilon_R_pmax4_qmax3_F5.csv",
         ["--group", "S5", "--classes", "transpositions", "--module", "R", "--pmax", "4", "--qmax", "3",
          "--field", "5"]),
        ("koszul_D4_all_epsilon_R_pmax3_qmax4_F5.csv",
         ["--group", "D4", "--classes", "all", "--module", "R", "--pmax", "3", "--qmax", "4", "--field", "5"]),
    ]:
        rc, out = run(capsys, ["koszul", "--epsilon", *argv])
        assert rc == 0
        assert out == (GOLDEN / name).read_text(), name


@pytest.mark.parametrize("name, argv", [
    ("koszul_S4_transpositions_epsilon_exact13_pmax4_qmax5_Q.csv",
     ["koszul", "--group", "S4", "--classes", "transpositions", "--epsilon",
      "--module", "exact:13", "--pmax", "4", "--qmax", "5", "--field", "Q"]),
    ("koszul_A4_3-cycles_epsilon_exact4_pmax3_qmax4_F5.csv",
     ["koszul", "--group", "A4", "--classes", "3-cycles", "--epsilon",
      "--module", "exact:4", "--pmax", "3", "--qmax", "4", "--field", "5"]),
])
def test_full_monodromy_stratum_golden(name, argv, capsys):
    # stdout recorded when the trivial-action check lifted a basis of cycle
    # representatives and tested each image for membership in the boundaries
    rc, out = run(capsys, argv)
    assert rc == 0
    assert "# identities_trivial_action=True" in out
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name, argv", [
    ("koszul_S4_transpositions_epsilon_R_pmax3_qmax4_Q.csv",
     ["koszul", "--group", "S4", "--classes", "transpositions", "--epsilon",
      "--module", "R", "--pmax", "3", "--qmax", "4", "--field", "Q"]),
    ("koszul_S4_transpositions_epsilon_R_pmax3_qmax4_F5.csv",
     ["koszul", "--group", "S4", "--classes", "transpositions", "--epsilon",
      "--module", "R", "--pmax", "3", "--qmax", "4", "--field", "5"]),
    ("nichols_S3_transpositions_epsilon_nmax6_Q.csv",
     ["nichols", "--group", "S3", "--classes", "transpositions", "--epsilon", "--nmax", "6", "--field", "Q"]),
])
def test_nichols_jobs_golden(name, argv, capsys):
    # stdout recorded when every Nichols degree rebuilt its symmetrizer from
    # degree 1 and the truncation test built the whole next symmetrizer
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


_S4_KOSZUL = ["koszul", "--group", "S4", "--classes", "transpositions", "--epsilon"]
_S4_NICHOLS = ["nichols", "--group", "S4", "--classes", "transpositions", "--epsilon"]


@pytest.mark.parametrize("name, argv", [
    ("koszul_S4_transpositions_epsilon_R_pmax4_qmax5_Q.csv",
     _S4_KOSZUL + ["--module", "R", "--pmax", "4", "--qmax", "5", "--field", "Q"]),
    ("koszul_S4_transpositions_epsilon_R_pmax4_qmax5_F5.csv",
     _S4_KOSZUL + ["--module", "R", "--pmax", "4", "--qmax", "5", "--field", "5"]),
    ("koszul_S4_transpositions_epsilon_sub5_pmax4_qmax5_F5.csv",
     _S4_KOSZUL + ["--module", "sub:5", "--pmax", "4", "--qmax", "5", "--field", "5"]),
    ("koszul_S4_transpositions_epsilon_R_multigrade_pmax4_qmax5_F5.csv",
     _S4_KOSZUL + ["--module", "R", "--multigrade", "--pmax", "4", "--qmax", "5", "--field", "5"]),
    ("nichols_D4_all_nmax4_Q.csv",
     ["nichols", "--group", "D4", "--classes", "all", "--nmax", "4", "--field", "Q"]),
    ("nichols_S4_transpositions_epsilon_nmax5_Q.csv", _S4_NICHOLS + ["--nmax", "5", "--field", "Q"]),
    ("nichols_S4_transpositions_epsilon_nmax5_F3.csv", _S4_NICHOLS + ["--nmax", "5", "--field", "3"]),
    # two group classes against three rack components
    ("koszul_D4_2+2_epsilon_R_multigrade_pmax3_qmax4_F5.csv",
     ["koszul", "--group", "D4", "--classes", "2+2", "--epsilon", "--module", "R", "--pmax", "3", "--qmax", "4",
      "--multigrade", "--field", "5"]),
])
def test_symmetrizer_era_golden(name, argv, capsys):
    # stdout recorded when each Nichols degree was the image of the quantum
    # symmetrizer and the Koszul derivations were solved through inverse Gram
    # matrices, before degrees were built by the derivation recursion (the D4
    # file: when every orbit record carried its multigrade)
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("field", ["Q", "5"])
def test_fomin_kirillov_four_to_its_top(field, capsys):
    # FK_4, the Nichols algebra of the S4 transpositions with the sign twist,
    # has dimension 576 and top degree 12 (Fomin-Kirillov 1999)
    rc, out = run(capsys, _S4_NICHOLS + ["--nmax", "14", "--field", field])
    assert rc == 0
    assert "# stably_zero=True" in out
    assert [int(r.split(",")[1]) for r in data_rows(out)] == \
        [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1, 0, 0]


def test_koszul_reaches_the_top_of_fk4(capsys):
    # the dual algebra vanishes in degree 13, so degree 12 is genuine
    rc, out = run(capsys, _S4_KOSZUL + ["--module", "R", "--pmax", "13", "--qmax", "2", "--field", "5"])
    assert rc == 0
    assert "# pmax_resolved=12" in out


def test_koszul_subcommand(capsys):
    rc, out = run(capsys, ["koszul", "--group", "S3", "--classes", "transpositions",
                           "--epsilon", "--module", "R", "--pmax", "4", "--qmax", "5",
                           "--field", "Q"])
    assert rc == 0
    assert "# identities_anticommute=True" in out
    assert "# identities_nullhomotopy=True" in out
    assert "0,0,1" in out


def test_malle_subcommand(capsys):
    rc, out = run(capsys, ["malle", "--group", "S3", "--classes", "all"])
    assert rc == 0
    assert "# a=1" in out and "# center_order=1" in out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[1].endswith(",1") and lines[2].endswith(",2")


def test_bound_subcommand(capsys):
    rc, out = run(capsys, ["bound", "--betti", "1", "--q", "7", "--n", "3"])
    assert rc == 0
    assert "343,0,343,1,0" in out


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "grp.txt"
    path.write_text("degree 3\n(1 2)\n(1 2 3)\n")
    rc, out = run(capsys, ["malle", "--group-file", str(path), "--classes", "all"])
    assert rc == 0
    assert "# a=1" in out


def relabelled_group_file(path, name, image):
    """Write builtin group `name` to a group file with point i moved to
    image[i] (1-based), in a degree that leaves the points off the image
    fixed; return the group read back."""
    G = builtin_group(name)
    degree = max(image.values())
    lines = [f"degree {degree}"]
    for g in G.generators:
        moved = list(range(degree))
        for i, gi in enumerate(g):
            moved[image[i + 1] - 1] = image[gi + 1] - 1
        lines.append(cycle_notation(tuple(moved)))
    path.write_text("\n".join(lines) + "\n")
    return load_group(path.read_text())


def label_free(out):
    """A CSV output with what names the group's points dropped: the header
    but for the group, space and subgroup fields, the data rows with each
    subgroup H<i> replaced by its order, as a multiset."""
    lines = out.splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    orders = {}
    for entry in meta.pop("subgroups", "").split("; "):
        if entry:
            label, order, _gens = entry.split("|")
            orders[label] = order
    for key in ("group", "group_file", "space"):
        meta.pop(key, None)
    rows = Counter(",".join(orders.get(field, field) for field in line.split(","))
                   for line in lines if not line.startswith("#"))
    return meta, rows


@pytest.mark.parametrize("name, image, argvs", [
    ("S4", {1: 5, 2: 2, 3: 6, 4: 3}, [
        ["orbits", "--classes", "transpositions", "--nmax", "4", "--components"],
        ["orbits", "--classes", "all", "--nmax", "3", "--components", "--field", "Q"],
        ["koszul", "--classes", "transpositions", "--epsilon", "--module", "R", "--pmax", "4", "--qmax", "4",
         "--field", "5"],
        ["koszul", "--classes", "all", "--epsilon", "--module", "R", "--pmax", "2", "--qmax", "3", "--field", "5"],
    ]),
    ("S3", {1: 4, 2: 1, 3: 5}, [["verify", "--classes", "transpositions", "--nmax", "4", "--field", "Q"]]),
], ids=["S4", "S3"])
def test_relabelled_group_files_give_label_free_output(name, image, argvs, tmp_path, capsys):
    # the group's index tables follow the order of its sorted elements, which
    # a relabelling changes; what the output says of the group does not
    path = tmp_path / "grp.txt"
    G, H = builtin_group(name), relabelled_group_file(path, name, image)
    back = {image[i + 1] - 1: i for i in range(G.degree)}
    restricted = [tuple(back[h[image[i + 1] - 1]] for i in range(G.degree)) for h in H.elements]
    assert sorted(restricted) == G.elements and restricted != G.elements
    for argv in argvs:
        rc, out = run(capsys, [argv[0], "--group", name, *argv[1:]])
        rc_file, out_file = run(capsys, [argv[0], "--group-file", str(path), *argv[1:]])
        assert rc == rc_file == 0
        assert label_free(out_file) == label_free(out)
        assert len(label_free(out)[1]) > 1


def test_orbits_job_makes_tuple_products_only_in_the_group_closure(monkeypatch, capsys):
    # group arithmetic runs on element indices: the closure's products x*s
    # are the only tuple products, the inverse table takes one tuple inverse
    # per element, and no conjugate is composed from tuples
    argv = ["orbits", "--group", "S4", "--classes", "transpositions", "--nmax", "5", "--components"]
    G = builtin_group("S4")
    rc, expected = run(capsys, argv)
    callers, counts = [], Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            if name == "pmul":
                callers.append(sys._getframe(1).f_code)
            return fn(*args)
        return wrapper

    for name in ("pmul", "pinv", "conj"):
        monkeypatch.setattr(braided, name, counted(name, getattr(braided, name)))
    assert run(capsys, argv) == (rc, expected) and rc == 0
    assert counts["pmul"] <= G.order * len(G.generators)
    assert set(callers) == {braided.PermGroup.__init__.__code__}
    assert counts["pinv"] <= G.order and counts["conj"] == 0


@pytest.mark.parametrize("text, message", [
    ("degree\n(1 2)\n", "error: group file header 'degree' is not 'degree m' with m a positive integer"),
    ("degree x\n(1 2)\n", "error: group file header 'degree x' is not 'degree m' with m a positive integer"),
    ("degree 3\n(1 2\n(1 2 3)\n", "error: text '(1 2' outside the cycles of '(1 2'"),
    ("degree 3\n(1 2)(1 3)\n", "error: point 1 appears twice in '(1 2)(1 3)'"),
    ("degree 3\n(1 a)\n", "error: point 'a' in cycle (1 a) of '(1 a)' is not a positive integer"),
    ("degree 3\n", "error: group file lists no generators"),
])
def test_malformed_group_file_is_a_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "grp.txt"
    path.write_text(text)
    rc = main(["orbits", "--group-file", str(path), "--classes", "all", "--nmax", "2"])
    assert rc == 2
    # the message follows the path of the file it read
    assert capsys.readouterr().err.strip() == message.replace("error: ", f"error: {path}: ", 1)


def test_usage_errors(capsys):
    rc, _ = run(capsys, ["betti", "--group", "NOPE"])
    assert rc == 2
    rc, _ = run(capsys, ["betti", "--rank1", "--field", "six"])
    assert rc == 2
    rc, _ = run(capsys, ["koszul", "--group", "S3", "--classes", "transpositions"])
    assert rc == 2  # missing --epsilon


def test_integrity_failure_exits_1(monkeypatch, capsys):
    def broken(V, n, F):
        raise ComplexIntegrityError("d^2 != 0 between degrees 3 and 1")

    monkeypatch.setattr(qsa, "verify_main_cor", broken)
    rc = main(["verify", "--rank1", "--nmax", "2", "--field", "Q"])
    assert rc == 1
    assert "d^2 != 0" in capsys.readouterr().err


def test_truncation_exits_3(monkeypatch, capsys):
    # the CLI leaves itself one module degree of headroom; take it away
    real = koszul.koszul_homology

    def too_wide(K, by_multigrade):
        K.homology_rank(1, K.qmax)
        return real(K, by_multigrade=by_multigrade)

    monkeypatch.setattr(koszul, "koszul_homology", too_wide)
    rc = main(["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon",
               "--pmax", "3", "--qmax", "4", "--field", "2"])
    assert rc == 3
    assert "increase qmax" in capsys.readouterr().err


def test_empty_dual_window_exits_3(capsys):
    # with pmax 0 the only dual degree is the truncation boundary
    rc = main(["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon",
               "--pmax", "0", "--field", "Q"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "increase pmax" in captured.err


def test_oversized_koszul_complex_exits_2(monkeypatch, capsys):
    # S3 transpositions with pmax 2 and qmax 2: the derivations out of dual
    # degrees 1 and 2 have 3 and 8 nonzero entries, and the module dimensions
    # are 1 and 3; degree 2 is a truncation boundary, so d(2, 1) is not
    # assembled, and the terms (1, 0), (2, 0), (1, 1) hold 3 + 8 + 9 = 20
    argv = ["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon",
            "--pmax", "2", "--qmax", "2", "--field", "5"]
    monkeypatch.setattr(orbits, "DEFAULT_STATE_CAP", 19)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: the Koszul differentials would hold up to 20 entries, "
                            "over the cap of 19; lower --pmax or --qmax\n")
    monkeypatch.setattr(orbits, "DEFAULT_STATE_CAP", 20)
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["orbits", "--group", "S4", "--classes", "transpositions", "--nmax", "5", "--cap", "100"],
    ["malle", "--group", "S4", "--classes", "transpositions", "--window", "5", "--cap", "100"],
])
def test_orbit_cap_exits_2(argv, capsys):
    # 6^3 words already exceed the cap of 100
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "exceeds cap 100" in captured.err


def data_rows(out):
    return [ln for ln in out.splitlines() if not ln.startswith("#")][1:]


@pytest.mark.parametrize("field, betti_nonzero, nichols_dims", [
    ("Q", ["1,0,1"], [1, 1, 1, 1, 1, 1, 1]),
    ("5", ["1,0,1", "4,2,1", "4,3,1", "5,2,1", "5,3,1"], [1, 1, 1, 1, 0, 0, 0]),
])
def test_non_integral_sigma(field, betti_nonzero, nichols_dims, capsys):
    # sigma = 1/2 keeps Fractions in every differential; values recorded when
    # every rational scalar was a Fraction
    rc, out = run(capsys, ["betti", "--rank1", "--sigma", "1/2", "--nmax", "5", "--field", field])
    assert rc == 0 and "# sigma=1/2" in out
    assert [r for r in data_rows(out) if not r.endswith(",0")] == betti_nonzero
    rc, out = run(capsys, ["nichols", "--rank1", "--sigma", "1/2", "--nmax", "6", "--field", field])
    assert rc == 0
    assert data_rows(out) == [f"{n},{d}" for n, d in enumerate(nichols_dims)]


@pytest.mark.parametrize("argv", [
    ["betti", "--rank1", "--nmax", "3", "--field", "Q"],
    ["ext", "--group", "S3", "--classes", "transpositions", "--nmax", "3", "--field", "2"],
    ["verify", "--rank1", "--sigma", "-1", "--nmax", "3", "--field", "Q"],
    ["nichols", "--group", "S3", "--classes", "transpositions", "--epsilon",
     "--nmax", "4", "--field", "Q"],
    ["orbits", "--group", "S3", "--classes", "transpositions", "--nmax", "3"],
    ["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon",
     "--pmax", "3", "--qmax", "4", "--field", "2"],
    ["malle", "--group", "D4", "--classes", "all"],
    ["bound", "--betti", "1,1,2", "--q", "4", "--n", "2"],
])
def test_determinism_all_subcommands(argv, capsys, tmp_path):
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("betti_S4_transpositions_nmax4_F5.csv",
     ["betti", "--group", "S4", "--classes", "transpositions", "--nmax", "4", "--field", "5"]),
    ("ext_S3_transpositions_epsilon_nmax5_F2.csv",
     ["ext", "--group", "S3", "--classes", "transpositions", "--epsilon", "--nmax", "5", "--field", "2"]),
    ("verify_D4_all_cocycle-1_nmax3_Q.csv",
     ["verify", "--group", "D4", "--classes", "all", "--cocycle", "-1", "--nmax", "3", "--field", "Q"]),
    # almost every pivot of this elimination over Q is a unit
    ("verify_S3_transpositions_nmax5_Q.csv",
     ["verify", "--group", "S3", "--classes", "transpositions", "--nmax", "5", "--field", "Q"]),
    # unit and non-unit pivots in about equal numbers
    ("verify_S3_transpositions_epsilon_nmax5_Q.csv",
     ["verify", "--group", "S3", "--classes", "transpositions", "--epsilon", "--nmax", "5", "--field", "Q"]),
    ("betti_S4_transpositions_nmax5_F5.csv",
     ["betti", "--group", "S4", "--classes", "transpositions", "--nmax", "5", "--field", "5"]),
    # bar ranks on a rank-6 space
    ("ext_S4_transpositions_nmax4_F5.csv",
     ["ext", "--group", "S4", "--classes", "transpositions", "--nmax", "4", "--field", "5"]),
    # the S3 FNF ranks over a prime field
    ("verify_S3_transpositions_nmax6_F2.csv",
     ["verify", "--group", "S3", "--classes", "transpositions", "--nmax", "6", "--field", "2"]),
    ("betti_S3_transpositions_nmax6_F2.csv",
     ["betti", "--group", "S3", "--classes", "transpositions", "--nmax", "6", "--field", "2"]),
])
def test_homology_golden(name, argv, capsys):
    # stdout recorded when every complex was built, checked and ranked whole,
    # before homology was summed over one block per class of braid orbits (the
    # two S3 verify files: when every Q pivot step rebuilt its row and divided
    # it by its content; the S4 n <= 5 file: when each differential was ranked
    # on its own, before the top-down clearing sweep; the S4 ext file: when
    # each shuffle lift was applied move by move, before lifts shared prefixes;
    # the two S3 F_2 files: when the sparsest-column heap was pushed on every
    # fall of a column's count)
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_help_matches_the_fully_built_parser(command, capsys):
    # main prints the help with `build_parser`, which builds the arguments of
    # every subcommand; its help texts must be that parser's
    argv = ["-h"] if command is None else [command, "-h"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 0
    want = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == want
    assert "usage: braidhom" in want


@pytest.mark.parametrize("spec", ["0", "1", "4"])
def test_field_must_be_q_or_a_prime(spec, capsys):
    rc = main(["betti", "--rank1", "--nmax", "2", "--field", spec])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"field must be 'Q' or a prime, got '{spec}'" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["orbits", "--group", "S²", "--classes", "transpositions", "--nmax", "2"], "unknown builtin group 'S²'"),
    (["orbits", "--group", "A²", "--classes", "3-cycles", "--nmax", "2"], "unknown builtin group 'A²'"),
    (["orbits", "--group", "Z²", "--classes", "all", "--nmax", "2"], "unknown builtin group 'Z²'"),
    (["orbits", "--group", "S3", "--classes", "²-cycles", "--nmax", "2"], "unknown class selector '²-cycles'"),
    (["betti", "--rank1", "--nmax", "2", "--field", "²"], "field must be 'Q' or a prime, got '²'"),
    (["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon", "--field", "Q", "--module", "exact:²"],
     "module must be 'R', 'exact:<k>', or 'sub:<k>'"),
], ids=["group-S", "group-A", "group-Z", "classes", "field", "module"])
def test_superscript_digits_get_their_options_usage_error(argv, message, capsys):
    # '²'.isdigit() holds but int('²') fails; each option refuses it with its own message
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in captured.err and "invalid literal" not in captured.err


@pytest.mark.parametrize("command", ["betti", "ext", "verify", "nichols"])
@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_nmax_below_one_is_a_usage_error(command, nmax, capsys):
    rc = main([command, "--group", "S3", "--classes", "transpositions", "--nmax", nmax, "--field", "Q"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"--nmax must be at least 1, got {nmax}" in captured.err


def test_orbits_honours_nmax_zero(capsys):
    rc, out = run(capsys, ["orbits", "--group", "S3", "--classes", "transpositions", "--nmax", "0",
                           "--components"])
    assert rc == 0
    assert "# nmax_resolved=0" in out
    assert data_rows(out) == ["0,1,components,0"]
    rc = main(["orbits", "--group", "S3", "--classes", "transpositions", "--nmax", "-1"])
    captured = capsys.readouterr()
    assert rc == 2 and "--nmax must be at least 0, got -1" in captured.err


_S3_KOSZUL = ["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon", "--field", "Q"]


@pytest.mark.parametrize("argv, message", [
    (_S3_KOSZUL + ["--pmax", "-2"], "--pmax must be at least 0, got -2"),
    (_S3_KOSZUL + ["--pmax", "-1"], "--pmax must be at least 0, got -1"),
    (_S3_KOSZUL + ["--qmax", "0"], "--qmax must be at least 1, got 0"),
    (_S3_KOSZUL + ["--qmax", "-1"], "--qmax must be at least 1, got -1"),
    (["malle", "--group", "S3", "--classes", "all", "--window", "-1"], "--window must be at least 0, got -1"),
    (["orbits", "--group", "S3", "--classes", "transpositions", "--nmax", "2", "--cap", "0"],
     "--cap must be at least 1, got 0"),
    (["malle", "--group", "S3", "--classes", "all", "--window", "2", "--cap", "0"], "--cap must be at least 1, got 0"),
    (["bound", "--betti", "1", "--q", "7", "--n", "3", "--d", "-1"], "--d must be at least 0, got -1"),
    (["betti", "--rank1", "--sigma", "1/0"], "--sigma must be a nonzero integer or fraction, got '1/0'"),
    (["bound", "--betti", "1", "--q", "4", "--n", "0", "--d", "2"], "--n must be at least 1, got 0"),
    (["bound", "--betti", "1", "--q", "4", "--n", "-1"], "--n must be at least 0, got -1"),
    (["bound", "--q", "5", "--n", "3"], "give exactly one of --betti and --betti-file"),
    (["bound", "--betti", "1", "--betti-file", "ranks.txt", "--q", "5", "--n", "3"],
     "give exactly one of --betti and --betti-file"),
], ids=["pmax=-2", "pmax=-1", "qmax=0", "qmax=-1", "window=-1", "orbits-cap=0", "malle-cap=0", "d=-1", "sigma=1/0", "n=0", "n=-1",
        "no-betti", "both-betti"])
def test_out_of_range_options_are_usage_errors(argv, message, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", ["betti", "ext", "verify", "nichols"])
@pytest.mark.parametrize("sigma, field", [("2", "2"), ("-6", "3"), ("10/3", "5")])
def test_sigma_that_vanishes_in_the_field_is_a_usage_error(command, sigma, field, capsys):
    # sigma = 0 in F_p is no invertible braiding; the default field already
    # skips such primes, and a vanishing denominator already fails to coerce
    rc = main([command, "--rank1", "--sigma", sigma, "--nmax", "3", "--field", field])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"--sigma {sigma} vanishes in F_{field}" in captured.err
    rc, out = run(capsys, [command, "--rank1", "--sigma", sigma, "--nmax", "3"])
    assert rc == 0 and "# field_resolved=F_" in out and f"# field_resolved=F_{field}" not in out


def test_malle_honours_window_zero(capsys):
    rc, out = run(capsys, ["malle", "--group", "S3", "--classes", "all", "--window", "0"])
    assert rc == 0
    assert "# orbit_window=1" in out and "# growth_degree_windowed=none" in out


@pytest.mark.parametrize("command", ["betti", "orbits", "malle"])
def test_group_and_group_file_together_are_a_usage_error(command, tmp_path, capsys):
    # the table used to be the file's while the header echoed the builtin
    path = tmp_path / "grp.txt"
    path.write_text("degree 3\n(1 2)\n(1 2 3)\n")
    rc = main([command, "--group", "A4", "--group-file", str(path), "--classes", "all"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "give only one of --group and --group-file" in captured.err


@pytest.mark.parametrize("group", [["--group", "S4"], ["--group-file", "grp.txt"]], ids=["group", "group-file"])
def test_rank1_with_a_group_is_a_usage_error(group, capsys):
    # the rank-one line used to be computed while the header echoed the group
    rc = main(["betti", "--rank1", *group, "--classes", "transpositions", "--nmax", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "--rank1 builds a rank-one space; give it no --group or --group-file" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["betti", "--group", "S3", "--classes", "transpositions", "--sigma", "5", "--nmax", "1"],
     "--sigma is the braiding scalar of --rank1; a group space takes none"),
    (["nichols", "--group", "S3", "--sigma", "1", "--nmax", "1"],
     "--sigma is the braiding scalar of --rank1; a group space takes none"),
    (["betti", "--rank1", "--sigma", "1/2", "--cocycle", "-1", "--classes", "transpositions", "--nmax", "1",
      "--field", "3"],
     "--rank1 builds a rank-one space; give it no --classes"),
    (["verify", "--rank1", "--cocycle", "1", "--nmax", "1"], "--rank1 builds a rank-one space; give it no --cocycle"),
    (["ext", "--rank1", "--classes", "transpositions", "--nmax", "1"],
     "--rank1 builds a rank-one space; give it no --classes"),
], ids=["sigma-on-a-group", "default-sigma-given", "cocycle-and-classes", "default-cocycle-given", "classes"])
def test_options_of_the_other_space_kind_are_usage_errors(argv, message, capsys):
    # they used to be echoed in the header and ignored, even when given as
    # their default text
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.strip() == f"error: {message}"


@pytest.mark.parametrize("command", [["orbits", "--nmax", "2"], ["malle"]], ids=["orbits", "malle"])
@pytest.mark.parametrize("flags, named", [
    (["--cocycle", "-1"], "--cocycle"),
    (["--cocycle", "1"], "--cocycle"),
    (["--epsilon"], "--epsilon"),
    (["--cocycle", "-1", "--epsilon"], "--cocycle"),
], ids=["cocycle", "default-cocycle-given", "epsilon", "both"])
def test_braiding_flags_on_commands_without_a_braiding_are_usage_errors(command, flags, named, capsys):
    # orbits and malle build no braided space; they used to echo these flags
    # in the header and read neither
    rc = main([*command, "--group", "S3", "--classes", "transpositions", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.strip() == f"error: {command[0]} reads no braiding; give it no {named}"
    rc, out = run(capsys, [*command, "--group", "S3", "--classes", "transpositions"])
    assert rc == 0 and "# cocycle=1\n" in out and "# epsilon=False\n" in out


def test_space_jobs_echo_the_defaults_of_the_other_space_kind(capsys):
    rc, out = run(capsys, ["betti", "--group", "S3", "--classes", "transpositions", "--nmax", "1"])
    assert rc == 0 and "# cocycle=1\n" in out and "# sigma=1\n" in out
    rc, out = run(capsys, ["betti", "--rank1", "--sigma", "1/2", "--nmax", "1", "--format", "json"])
    assert rc == 0 and json.loads(out)["meta"]["cocycle"] == "1"


@pytest.mark.parametrize("source", ["--betti", "--betti-file"])
def test_non_integer_betti_entry_names_its_source_and_token(source, tmp_path, capsys):
    path = tmp_path / "ranks.txt"
    path.write_text("1 x\n")
    value = "1,x" if source == "--betti" else str(path)
    rc = main(["bound", source, value, "--q", "7", "--n", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    named = "--betti" if source == "--betti" else f"--betti-file {path}"
    assert f"error: {named}: Betti entries must be integers, got 'x'" in captured.err


# option tokens argparse reads as values: no string value starts with "-"
# unless it is a negative integer
_TEXT_VALUES = st.one_of(st.text("abxyzAS3/+:=._", max_size=6), st.integers(-9, 9).map(str))


def _option_tokens(draw, flag, takes_value, convert, choices):
    if not takes_value:
        return [flag]
    if choices is not None:
        value = draw(st.sampled_from(choices))
    elif convert is int:
        value = str(draw(st.integers(-99, 99)))
    else:
        value = draw(_TEXT_VALUES)
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def job_argv(draw, command):
    """A valid argv for `command`: its declared options in any order and
    either spelling, some repeated, every required one present."""
    table = OptionTable(command)
    flags = draw(st.lists(st.sampled_from(sorted(table.options)), max_size=8)) + table.required
    argv = [command]
    for flag in draw(st.permutations(flags)):
        _dest, takes_value, convert, choices = table.options[flag]
        argv += _option_tokens(draw, flag, takes_value, convert, choices)
    return argv


@pytest.mark.parametrize("command", SUBCOMMANDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_job_options_parse_as_argparse_parses_them(command, data):
    argv = data.draw(job_argv(command))
    assert vars(parse_job(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, token", [
    (["verify", "--nm", "3"], "'--nm'"),
    (["verify", "--group", "S3", "--bogus"], "'--bogus'"),
    (["verify", "-x"], "'-x'"),
    (["verify", "--group", "S3", "--nmax"], "--nmax needs a value"),
    (["verify", "--nmax", "--field", "Q"], "--nmax needs a value, got '--field'"),
    (["verify", "--epsilon=1"], "'--epsilon=1'"),
    (["verify", "S3"], "'S3'"),
    (["verify", "--nmax", "three"], "'three'"),
    (["verify", "--nmax=3.5"], "'3.5'"),
    (["verify", "--cocycle", "2"], "'2'"),
    (["koszul", "--format=xml"], "'xml'"),
    (["bound", "--betti", "1", "--q", "5"], "--n is required"),
], ids=["abbreviation", "unknown", "single-dash", "value-ends-argv", "value-is-an-option", "flag-given-value",
        "positional", "not-an-int", "float", "cocycle-choice", "format-choice", "missing-required"])
def test_option_errors_are_usage_errors(argv, token, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and token in captured.err


ROOT = Path(__file__).resolve().parent.parent


def run_process(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


def test_cli_process_exit_codes_and_no_argparse_on_a_job(capsys):
    job = ["verify", "--group", "S3", "--classes", "transpositions", "--nmax", "3", "--field", "Q"]
    proc = run_process("-m", "braidhom.cli", *job)
    rc, out = run(capsys, job)
    assert proc.returncode == rc == 0 and proc.stdout == out
    proc = run_process("-m", "braidhom.cli", "verify", "--nm", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: verify: unrecognized option '--nm'\n"
    proc = run_process("-m", "braidhom.cli", "-h")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: braidhom")
    # pytest imports argparse itself, so a fresh interpreter runs the job
    proc = run_process("-c", "import sys; from braidhom.cli import main; rc = main(sys.argv[1:]); "
                             "print(rc, 'argparse' in sys.modules, file=sys.stderr)", *job)
    assert proc.returncode == 0 and proc.stdout == out and proc.stderr == "0 False\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "S3", "--classes", "transpositions", "--nmax", "4", "--field", "2"],
    ["betti", "--group", "S3", "--classes", "transpositions", "--nmax", "4", "--field", "Q"],
    ["betti", "--rank1", "--sigma", "-1", "--nmax", "4", "--field", "Q"],
    ["ext", "--group", "S3", "--classes", "transpositions", "--nmax", "3", "--field", "5"],
    ["nichols", "--group", "S3", "--classes", "transpositions", "--epsilon", "--nmax", "4", "--field", "Q"],
    ["orbits", "--group", "S4", "--classes", "transpositions", "--nmax", "4", "--components"],
    ["koszul", "--group", "S3", "--classes", "transpositions", "--epsilon", "--module", "R",
     "--pmax", "3", "--qmax", "3", "--field", "5"],
    ["malle", "--group", "S4"],
    ["bound", "--betti", "1,1,0", "--q", "4", "--n", "3"],
], ids=["verify", "betti", "betti-rank1", "ext", "nichols", "orbits", "koszul", "malle", "bound"])
def test_jobs_leave_no_cyclic_garbage(argv, capsys):
    # every table a job builds is freed by reference counting as soon as it
    # is dropped: nothing is left for the cycle collector
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out
