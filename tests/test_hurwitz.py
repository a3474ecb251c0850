import dataclasses
import gc
import random
import tracemalloc
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from braidhom import hurwitz
from braidhom.braided import (
    ConjClassSet,
    PermGroup,
    Rack,
    cycle_type,
    identity_perm,
    index_word,
    parse_cycles,
    word_index,
)
from braidhom.cli import builtin_group, class_selector
from braidhom.exactla import GF, QQ
from braidhom.hurwitz import (
    DEFAULT_STATE_CAP,
    filtered_module,
    monodromy_labels,
    nielsen_components,
    orbit_count_bound,
    orbit_ring_module,
    rack_orbits,
    restricted_ring_module,
    stabilization_thresholds,
    subgroup_lattice,
)
from tests.oracles import pairwise_join_orbits, tuple_closure
from tests.test_acceptance import _naive_orbit_count, signed_orbit_count
from tests.test_braided import S3, transpositions
from tests.test_fnf import small_class_sets


def test_orbit_basics():
    G = S3()
    c = transpositions(G)
    assert len(rack_orbits(c.rack, 0)) == 1
    assert len(rack_orbits(c.rack, 1)) == 3
    t2 = rack_orbits(c.rack, 2)
    assert len(t2) == 5
    sizes = sorted(rec.size for rec in t2.orbits)
    assert sizes == [1, 1, 1, 3, 3]
    assert sum(rec.size for rec in t2.orbits) == 9


def test_orbit_product_invariant():
    # the product of the letters, up to conjugacy, is constant on each orbit
    from braidhom.braided import pmul

    G = S3()
    c = transpositions(G)
    t2 = rack_orbits(c.rack, 2)
    for rec in t2.orbits:
        rep_prod = pmul(c.elements[rec.rep[0]], c.elements[rec.rep[1]])
        for code, oi in enumerate(t2.orbit_of):
            if oi != t2.index(rec.rep):
                continue
            w = index_word(code, len(c.elements), 2)
            prod = pmul(c.elements[w[0]], c.elements[w[1]])
            assert cycle_type(prod) == cycle_type(rep_prod)


def test_diagonal_orbits_have_small_monodromy():
    G = S3()
    c = transpositions(G)
    for rec, h in zip(rack_orbits(c.rack, 2).orbits, monodromy_labels(c, 2)):
        if rec.size == 1:
            assert len(h) == 2
        else:
            assert len(h) == 6


def assert_labels_match_per_word_monodromy(c, nmax):
    # the labels are built by induction over (prefix orbit, last letter)
    # nodes; recompute them word by word, by a subgroup closure of the letters
    for n in range(nmax + 1):
        labels = monodromy_labels(c, n)
        for code, oi in enumerate(rack_orbits(c.rack, n).orbit_of):
            w = index_word(code, len(c.elements), n)
            assert tuple_closure([c.elements[a] for a in w], identity_perm(c.parent.degree)) == labels[oi]


@pytest.mark.parametrize("group,classes", [
    ("S3", "transpositions"), ("S4", "transpositions"), ("A4", "3-cycles"), ("D4", "all"),
])
def test_orbit_labels_match_per_word_monodromy(group, classes):
    G = builtin_group(group)
    assert_labels_match_per_word_monodromy(class_selector(G, classes), 4)


def test_orbit_tables_are_cached_on_the_class_set_and_die_with_it():
    # with the cyclic collector off, reference counting alone must free the
    # tables and the lattice: neither refers back to its owner
    gc.disable()
    try:
        _check_orbit_tables_cached_and_freed()
    finally:
        gc.enable()


def _check_orbit_tables_cached_and_freed():
    G = S3()
    c = transpositions(G)
    rack = c.rack
    assert c.rack is rack
    assert c.lattice is None
    labels = monodromy_labels(c, 3)
    plain = rack_orbits(rack, 3)
    assert monodromy_labels(c, 3) is labels
    assert rack_orbits(rack, 3) is plain
    # one subgroup lattice per class set, shared by every caller, and the
    # labels of every word length up to 3 kept on it
    lattice = subgroup_lattice(c)
    assert subgroup_lattice(c) is lattice and c.lattice is lattice
    assert list(lattice.labels) == [0, 1, 2, 3] and lattice.labels[3] is labels
    assert filtered_module(c, frozenset(G.elements), 2).stratum == frozenset(G.elements)
    assert orbit_ring_module(rack, 3, class_of=c.class_of).stratum is None
    assert c.lattice is lattice
    # one table per word length, whatever grading or labels are read, and
    # one list of pair-braiding cycles for every level
    assert list(rack.orbit_tables) == [0, 1, 2, 3] and rack.orbit_tables[3] is plain
    cycles = rack.pair_cycles
    rack_orbits(rack, 4)
    assert cycles is not None and rack.pair_cycles is cycles
    refs = [weakref.ref(plain), weakref.ref(lattice)]
    del G, c, rack, labels, plain, lattice
    assert [r() for r in refs] == [None, None]


def tuple_bfs_orbits(rack, n):
    """Oracle: breadth-first closure of tuples under sigma_i and sigma_i^-1.

    Returns the partition of the words, as {word: representative}, and
    {representative: size}."""
    act, inv_act = rack.act, rack.inv_act
    rep_of, records = {}, {}
    for w0 in product(range(rack.size), repeat=n):
        if w0 in rep_of:
            continue
        comp, frontier = [w0], [w0]
        rep_of[w0] = w0
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(n - 1):
                    a, b = w[i], w[i + 1]
                    for w2 in (w[:i] + (b, act[a][b]) + w[i + 2:],
                               w[:i] + (inv_act[b][a], a) + w[i + 2:]):
                        if w2 not in rep_of:
                            rep_of[w2] = w0
                            comp.append(w2)
                            nxt.append(w2)
            frontier = nxt
        records[w0] = len(comp)
    return rep_of, records


def sweep_orbits(rack, n):
    """Oracle: a sweep of the word codes in increasing order, closing each new
    orbit under the forward moves sigma_i.

    Returns the orbit id of each word code and [(rep, size)] in order of first
    code."""
    d = rack.size
    dd = d * d
    sigma = [b * d + rack.act[a][b] for a in range(d) for b in range(d)]
    places = [d ** (n - 2 - i) for i in range(n - 1)]

    orbit_id = [-1] * d**n
    records = []
    for w0 in range(d**n):
        if orbit_id[w0] >= 0:
            continue
        orbit_id[w0] = len(records)
        comp = [w0]
        for w in comp:  # comp grows while it is walked
            for s in places:
                p = w // s % dd
                w2 = w + (sigma[p] - p) * s
                if orbit_id[w2] < 0:
                    orbit_id[w2] = len(records)
                    comp.append(w2)
        records.append((index_word(w0, d, n), len(comp)))
    return orbit_id, records


@st.composite
def class_sets_and_lengths(draw):
    G, c = draw(small_class_sets())
    nmax = max(n for n in range(6) if len(c.elements) ** n <= 1500)
    return G, c, draw(st.integers(0, nmax))


@settings(max_examples=40, deadline=None)
@given(class_sets_and_lengths())
def test_rack_orbits_match_tuple_bfs(case):
    # orbits built by induction on n, against the code sweep under sigma_i,
    # the tuple sweep under sigma_i and its inverse, and the build of every
    # level from pairwise joins
    G, c, n = case
    rack = c.rack
    table = rack_orbits(rack, n)
    orbit_id, records = sweep_orbits(rack, n)
    assert table.orbit_of == orbit_id
    assert [(rec.rep, rec.size) for rec in table.orbits] == records
    rep_of, by_rep = tuple_bfs_orbits(rack, n)
    assert all(table.canonical(w) == rep for w, rep in rep_of.items())
    assert [rec.rep for rec in table.orbits] == sorted(by_rep)
    assert [rec.size for rec in table.orbits] == [by_rep[r] for r in sorted(by_rep)]
    assert len(rack_orbits(c.rack, n)) == _naive_orbit_count(G, c, n)
    assert_matches_pairwise_joins(rack, n)


def assert_matches_pairwise_joins(rack, n):
    """Every level 0..n of the orbit tables equals, node for node, the build
    from pairwise joins."""
    for m, (nodes, reps, sizes) in enumerate(pairwise_join_orbits(rack, n)):
        table = rack_orbits(rack, m)
        assert table.nodes == nodes
        assert [rec.rep for rec in table.orbits] == reps
        assert [rec.size for rec in table.orbits] == sizes


@pytest.mark.parametrize("group, classes, n", [("S5", "transpositions", 7), ("A4", "3-cycles", 5),
                                               ("D4", "all", 5)])
def test_rack_orbits_match_pairwise_joins_on_builtin_groups(group, classes, n):
    assert_matches_pairwise_joins(class_selector(builtin_group(group), classes).rack, n)


@settings(max_examples=40, deadline=None)
@given(class_sets_and_lengths())
def test_orbit_labels_match_per_word_monodromy_on_small_class_sets(case):
    G, c, n = case
    assert_labels_match_per_word_monodromy(c, n)


def test_orbit_index_rejects_words_of_another_length():
    G = S3()
    c = transpositions(G)
    table = rack_orbits(c.rack, 3)
    assert table.index((0, 1, 2)) == table.orbit_of[word_index((0, 1, 2), 3)]
    for word in [(0, 1), (0, 1, 2, 0), ()]:
        with pytest.raises(ValueError, match=f"length {len(word)} .* length 3"):
            table.index(word)
        with pytest.raises(ValueError):
            table.canonical(word)


def test_labelled_orbit_table_stays_small_at_scale():
    # S5 transpositions at n = 7: 10^7 words in 390 orbits; the tables are
    # built from (prefix orbit, last letter) nodes and hold no per-word list
    G = builtin_group("S5")
    c = class_selector(G, "transpositions")
    tracemalloc.start()
    try:
        table = rack_orbits(c.rack, 7)
        labels = monodromy_labels(c, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == len(labels) == 390 and sum(rec.size for rec in table.orbits) == 10**7
    assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@st.composite
def graded_modules(draw):
    """A module over the orbit ring of a small class set, with its letter
    classes: the full ring graded by conjugacy classes or by rack components,
    or one monodromy stratum."""
    G, c = draw(small_class_sets())
    qmax = max(q for q in range(6) if len(c.elements) ** q <= 1500)
    kind = draw(st.sampled_from(["classes", "components", "stratum"]))
    group_classes = c.class_of
    if kind == "classes":
        return orbit_ring_module(c.rack, qmax, class_of=group_classes), group_classes
    if kind == "components":
        comps = [0] * len(c.elements)
        for k, block in enumerate(c.rack.components()):
            for a in block:
                comps[a] = k
        return orbit_ring_module(c.rack, qmax), comps
    lattice = subgroup_lattice(c)
    H = lattice.subgroups[draw(st.integers(0, len(lattice) - 1))]
    return filtered_module(c, H, qmax), group_classes


@settings(max_examples=40, deadline=None)
@given(graded_modules())
def test_module_grades_count_the_classes_of_every_word(case):
    # the grade of a basis orbit, read off its representative, against the
    # class counts of every word of the orbit
    mod, class_of = case
    m = max(class_of) + 1
    d = mod.rack.size
    for q, basis in mod.degrees.items():
        table = rack_orbits(mod.rack, q)
        pos = {k: i for i, k in enumerate(basis)}
        seen = set()
        for code, k in enumerate(table.orbit_of):
            if k in pos:
                w = index_word(code, d, q)
                assert mod.grades[q][pos[k]] == tuple(sum(class_of[a] == i for a in w) for i in range(m))
                seen.add(k)
        assert seen == set(basis)


def test_orbit_of_is_indexed_by_word_code():
    G = builtin_group("D4")
    c = class_selector(G, "all")
    d = len(c.elements)
    for n in range(5):
        table = rack_orbits(c.rack, n)
        assert len(table.orbit_of) == d**n
        for w in product(range(d), repeat=n):
            assert table.orbit_of[word_index(w, d)] == table.index(w)
            assert table.orbits[table.index(w)].rep == table.canonical(w) <= w


def all_class_sets():
    """Every class set `small_class_sets` can draw."""
    for name in ["S3", "S4", "A4", "D4", "Z2", "Z3", "Z4", "Z5"]:
        G = builtin_group(name)
        classes = [tuple(cl) for cl in ConjClassSet(G, [g for g in G.elements if g != identity_perm(G.degree)]).classes]
        for picked in product([False, True], repeat=len(classes)):
            if any(picked):
                yield G, ConjClassSet(G, set().union(*(cl for cl, p in zip(classes, picked) if p)))


def test_lattice_reads_off_every_generated_subgroup():
    # every letter subset of the small class sets; above 2^12 subsets, a fixed
    # sample of them
    rng = random.Random(0)
    for G, c in all_class_sets():
        d = len(c.elements)
        lattice = subgroup_lattice(c)
        masks = range(2**d) if d <= 12 else [0, 2**d - 1] + rng.sample(range(2**d), 1000)
        for mask in masks:
            gens = [g for a, g in enumerate(c.elements) if mask >> a & 1]
            assert lattice.generated_by(mask) == tuple_closure(gens, identity_perm(G.degree)), (G.name, d, mask)


def test_lattice_matches_tuple_closures():
    # the lattice against closures by tuple composition, which read no index
    # table: up to 2^10 letter subsets, the closures of all of them; above,
    # those reached by adding one letter at a time, and a fixed sample of 200 masks
    rng = random.Random(0)
    G5 = builtin_group("S5")
    for G, c in [*all_class_sets(), (G5, class_selector(G5, "transpositions"))]:
        d, e = len(c.elements), identity_perm(G.degree)
        lattice = subgroup_lattice(c)

        def closure(mask):
            return tuple_closure([g for a, g in enumerate(c.elements) if mask >> a & 1], e)

        if d <= 10:
            closures = {mask: closure(mask) for mask in range(2**d)}
            subgroups = {closures[mask] for mask in range(1, 2**d)}
        else:
            closures = {mask: closure(mask) for mask in [0, 2**d - 1] + rng.sample(range(2**d), 200)}
            subgroups, frontier = set(), {frozenset({e})}
            while frontier:
                frontier = {tuple_closure([*h, g], e) for h in frontier for g in c.elements} - subgroups
                subgroups |= frontier
        oracle = sorted(subgroups, key=lambda h: (len(h), sorted(h)))
        assert lattice.subgroups == oracle, (G.name, d)
        assert lattice.masks == [sum(1 << a for a, g in enumerate(c.elements) if g in h) for h in oracle]
        for mask, h in closures.items():
            assert lattice.generated_by(mask) == h, (G.name, d, mask)


def test_monodromy_examples():
    G = S3()
    e = identity_perm(3)
    assert tuple_closure([], e) == frozenset({e})
    g12 = parse_cycles("(1 2)", 3)
    g13 = parse_cycles("(1 3)", 3)
    assert len(tuple_closure([g12, g12], e)) == 2
    assert tuple_closure([g12, g13], e) == frozenset(G.elements)


def test_subgroup_lattice():
    G = S3()
    lat = subgroup_lattice(transpositions(G))
    assert [len(h) for h in lat] == [2, 2, 2, 6]
    c_all = ConjClassSet(G, [g for g in G.elements if g != identity_perm(3)])
    lat2 = subgroup_lattice(c_all)
    assert [len(h) for h in lat2] == [2, 2, 2, 3, 6]
    G2 = PermGroup(2, [parse_cycles("(1 2)", 2)], name="S2")
    lat3 = subgroup_lattice(ConjClassSet(G2, [parse_cycles("(1 2)", 2)]))
    assert [len(h) for h in lat3] == [2]


def test_filtered_module_strata():
    G = S3()
    c = transpositions(G)
    full = frozenset(G.elements)
    fm = filtered_module(c, full, 3)
    assert [fm.dim(q) for q in range(4)] == [0, 0, 2, 3]
    g12 = parse_cycles("(1 2)", 3)
    h = tuple_closure([g12], identity_perm(3))
    fm2 = filtered_module(c, h, 3)
    assert [fm2.dim(q) for q in range(4)] == [0, 1, 1, 1]
    with pytest.raises(ValueError):
        filtered_module(c, frozenset({identity_perm(3)}), 2)


def test_stratification_partitions_orbits():
    G = S3()
    c = transpositions(G)
    lat = subgroup_lattice(c)
    mods = [filtered_module(c, h, 5) for h in lat]
    for n in range(1, 6):
        assert sum(m.dim(n) for m in mods) == len(rack_orbits(c.rack, n))


def test_left_mult_stays_in_stratum():
    G = S3()
    c = transpositions(G)
    full = frozenset(G.elements)
    fm = filtered_module(c, full, 4)
    for q in (2, 3):
        for v in fm.letters:
            images = fm.left_mult(v, q)
            assert all(i is not None for i in images)


def fresh_products(mod, letter, q, left):
    """The images of the degree-q basis of mod under multiplication by a
    letter, looked up word by word in the orbit tables."""
    source, target, basis = rack_orbits(mod.rack, q), rack_orbits(mod.rack, q + 1), mod.degrees[q + 1]
    out = []
    for oi in mod.degrees[q]:
        w = source.orbits[oi].rep
        t = target.index((letter,) + w if left else w + (letter,))
        out.append(basis.index(t) if letter in mod.letters and t in basis else None)
    return tuple(out)


@pytest.mark.parametrize("which", ["R", "stratum", "sub"])
def test_module_products_are_kept_on_the_module(which):
    # the stratum of one transposition's group leaves the other letters out
    c = transpositions(S3())
    H = subgroup_lattice(c).subgroups[0]
    mod = {"R": lambda: orbit_ring_module(c.rack, 4), "stratum": lambda: filtered_module(c, H, 4),
           "sub": lambda: restricted_ring_module(c, frozenset(S3().elements), 4)[0]}[which]()
    for q in range(4):
        for v in range(mod.rack.size):
            for mult, left in ((mod.left_mult, True), (mod.right_mult, False)):
                table = mult(v, q)
                assert isinstance(table, tuple) and mult(v, q) is table
                assert table == fresh_products(mod, v, q, left), (q, v, left)
    if which == "stratum":
        out = next(v for v in range(mod.rack.size) if v not in mod.letters)
        assert mod.right_mult(out, 2) == (None,) * mod.dim(2)


def test_a_replaced_module_builds_its_own_products(monkeypatch):
    # restricted_ring_module renames the ring it builds with dataclasses.replace;
    # the copy must not share the ring's tables
    c = transpositions(S3())
    built = []

    def recording(*args, **kwargs):
        built.append(orbit_ring_module(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hurwitz, "orbit_ring_module", recording)
    mod, _ = restricted_ring_module(c, frozenset(S3().elements), 3)
    (ring,) = built
    assert mod is not ring and mod.name != ring.name
    for q in range(3):
        for v in range(mod.rack.size):
            assert mod.right_mult(v, q) == ring.right_mult(v, q)
            assert mod.right_mult(v, q) is not ring.right_mult(v, q)
    copy = dataclasses.replace(mod, name="copy")
    assert copy.left_mult(0, 2) == mod.left_mult(0, 2) and copy.left_mult(0, 2) is not mod.left_mult(0, 2)


def test_orbit_bound():
    G = S3()
    c = transpositions(G)
    for n in range(9):
        assert len(rack_orbits(c.rack, n)) <= orbit_count_bound(n, 3)
    assert orbit_count_bound(2, 3) == 6


def test_multigrade_check_rejects_classes_the_braid_moves_mix():
    # one transposition in a class of its own: conjugating it by another one
    # gives a letter of the other class, so sigma_1 changes the multigrade of
    # some word of length 2, and of every length above
    G = S3()
    c = transpositions(G)
    assert orbit_ring_module(c.rack, 4, class_of=[0, 0, 0]).grades[2] == [(2,)] * 5
    for qmax in (1, 2, 4):
        with pytest.raises(ValueError, match=r"letter 0\^1 = 2 leaves the class of letter 0"):
            orbit_ring_module(c.rack, qmax, class_of=[0, 1, 1])


def test_state_cap():
    G = S3()
    c = transpositions(G)
    with pytest.raises(ValueError):
        monodromy_labels(c, 4, cap=10)
    monodromy_labels(c, 4)  # cached labels must not bypass a smaller cap
    with pytest.raises(ValueError):
        monodromy_labels(c, 4, cap=10)
    # a cap above the default also holds for the word lengths below: 3^15
    # words are over the default cap, 3^14 are not
    assert 3**14 <= DEFAULT_STATE_CAP < 3**15
    with pytest.raises(ValueError, match=f"exceeds cap {DEFAULT_STATE_CAP}"):
        monodromy_labels(c, 15)
    assert len(monodromy_labels(c, 15, cap=3**15)) == len(rack_orbits(c.rack, 15, cap=3**15))


def test_signed_orbit_count():
    G = S3()
    c = transpositions(G)
    rack = c.rack
    assert [signed_orbit_count(rack, n) for n in range(4)] == [1, 3, 0, 0]
    assert signed_orbit_count(rack, 2, sign_value=1) == 5


def test_nielsen_components():
    G = S3()
    c = transpositions(G)
    assert nielsen_components(c, 1, QQ)[0] == 0  # no single transposition generates
    comps, betti = nielsen_components(c, 2, QQ)
    assert comps == 1
    assert betti[0] == comps
    comps3, betti3 = nielsen_components(c, 3, QQ)
    assert comps3 == 1 and betti3[0] == 1
    # a cyclic group: one generator suffices
    Z3 = PermGroup(3, [parse_cycles("(1 2 3)", 3)], name="Z3")
    cz = ConjClassSet(Z3, [g for g in Z3.elements if g != identity_perm(3)])
    assert nielsen_components(cz, 1, QQ)[0] == 2


def test_nielsen_h0_equals_components():
    # H_0 of the cover's complex on Nielsen classes, against the count of
    # conjugation classes of full-monodromy orbits read off the orbit table
    for group, classes in [("S3", "transpositions"), ("S4", "transpositions"),
                           ("A4", "3-cycles"), ("D4", "all")]:
        G = builtin_group(group)
        c = class_selector(G, classes)
        for F in (QQ, GF(5)):
            for n in (2, 3, 4):
                comps, betti = nielsen_components(c, n, F)
                assert betti[0] == comps, (group, F, n)


def test_stabilization_s3():
    G = S3()
    c = transpositions(G)
    rep = stabilization_thresholds(c, 0, 6)
    assert rep.stabilized
    assert rep.observed == 3
    # all letters in one class see the same threshold
    assert len(set(rep.thresholds.values())) == 1


def test_stabilization_central_involution():
    Z2 = PermGroup(2, [parse_cycles("(1 2)", 2)], name="Z2")
    cz = ConjClassSet(Z2, [parse_cycles("(1 2)", 2)])
    rep = stabilization_thresholds(cz, 0, 5)
    assert rep.stabilized and rep.observed <= 1


def test_stabilization_two_classes():
    G = S3()
    c_all = ConjClassSet(G, [g for g in G.elements if g != identity_perm(3)])
    rep = stabilization_thresholds(c_all, 0, {0: 3, 1: 2})
    assert rep.window == (3, 2)
    assert rep.thresholds


@pytest.mark.parametrize("group, classes, class_index, window, message", [
    ("S3", "transpositions", -1, 3, r"class_index -1 is not a class of c \(0\.\.0\)"),
    ("S3", "transpositions", 1, 3, r"class_index 1 is not a class of c \(0\.\.0\)"),
    ("S3", "transpositions", 0, {}, r"window keys \[\] are not the classes of c \(0\.\.0\)"),
    ("D4", "all", 0, {0: 1, 1: 1}, r"window keys \[0, 1\] are not the classes of c \(0\.\.3\)"),
    ("S3", "transpositions", 0, {0: 2, 7: 5}, r"window keys \[0, 7\] are not the classes of c \(0\.\.0\)"),
    ("S3", "transpositions", 0, -1, r"window \{0: -1\} has a negative bound"),
    ("S3", "transpositions", 0, {0: -1}, r"window \{0: -1\} has a negative bound"),
], ids=["class_-1", "class_1", "window_empty", "window_missing_class", "window_extra_class",
        "bound_-1", "window_bound_-1"])
def test_stabilization_thresholds_refuses_a_bad_class_or_window(group, classes, class_index, window, message):
    # a class or window that does not fit c is refused by name: not an
    # empty max(), a bare KeyError, an extra key summed into the degree
    # bound, nor a negative bound reported as "not stabilized"
    c = class_selector(builtin_group(group), classes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        stabilization_thresholds(c, class_index, window)


def test_restricted_ring_module():
    G = S3()
    c = transpositions(G)
    g12 = parse_cycles("(1 2)", 3)
    h = tuple_closure([g12], identity_perm(3))
    mod, H = restricted_ring_module(c, h, 4)
    assert [mod.dim(q) for q in range(5)] == [1, 1, 1, 1, 1]
    assert H.generators == [g12] and frozenset(H.elements) == h


def test_rack_orbits_free_rack():
    # one-element rack: a single orbit in every degree
    triv = Rack(["*"], {("*", "*"): "*"})
    assert [len(rack_orbits(triv, n)) for n in range(5)] == [1, 1, 1, 1, 1]
    # empty rack: only the empty word
    empty = Rack([], {})
    tables = [rack_orbits(empty, n) for n in range(4)]
    assert [(len(t), t.orbit_of) for t in tables] == [(1, [0]), (0, []), (0, []), (0, [])]
    assert_matches_pairwise_joins(triv, 4)
    assert_matches_pairwise_joins(empty, 3)


def test_orbit_ring_module_multiplication():
    G = S3()
    c = transpositions(G)
    rack = c.rack
    mod = orbit_ring_module(rack, 3)
    # left multiplication is defined everywhere on the full ring
    for q in (0, 1, 2):
        for v in range(rack.size):
            assert all(i is not None for i in mod.left_mult(v, q))
