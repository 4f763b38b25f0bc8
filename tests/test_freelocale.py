import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import freelocale
from cqlogic import lattice as lat
from cqlogic import spaces as sp
from cqlogic.errors import SizeLimit
from cqlogic.freelocale import FreeLocale

DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168}


def downclose(sets):
    """The down-closure of a family of sets, built from its definition."""
    return frozenset(frozenset(c) for s in map(frozenset, sets)
                     for k in range(len(s) + 1) for c in combinations(s, k))


# -- the slow twin: the free locale as frozensets of frozensets -------------------


def down_families(ground):
    """Every down-closed family of subsets of ``ground``.

    For the last element g, such a family is F0 ∪ {s ∪ {g} : s ∈ F1} for
    down-closed families F1 ⊆ F0 over the other elements.
    """
    if not ground:
        return [frozenset(), frozenset([frozenset()])]
    last = frozenset(ground[-1:])
    smaller = down_families(ground[:-1])
    return [low | frozenset(s | last for s in high)
            for low in smaller for high in smaller if high <= low]


class FrozensetLocale:
    """The free locale with each element a frozenset of frozensets, built
    from the definitions: the twin that `FreeLocale` is checked against."""

    def __init__(self, ground):
        self.ground = tuple(str(g) for g in ground)

    def carrier(self):
        """The down-closed families by member count, then by the members'
        sizes and sorted names."""
        return sorted(down_families(self.ground),
                      key=lambda p: (len(p), sorted((len(s), sorted(s)) for s in p)))

    def principal(self, s):
        """↓s, every subset of the subset s of the ground set."""
        s = sorted(s)
        return frozenset(frozenset(c) for k in range(len(s) + 1) for c in combinations(s, k))

    def maximal_members(self, p):
        """The members of p inside no other member, largest first."""
        maximal = []
        for s in sorted(p, key=len, reverse=True):
            if not any(s < t for t in maximal):
                maximal.append(s)
        return maximal

    def element_name(self, p):
        parts = sorted((len(s), sorted(s)) for s in self.maximal_members(p))
        return "{%s}" % ",".join("+".join(names) if names else "0" for _, names in parts)

    def mask(self, p):
        """The family p as a mask over the subsets, the subset s at bit (s as a mask)."""
        bit = {g: 1 << i for i, g in enumerate(self.ground)}
        return sum(1 << sum(map(bit.get, s)) for s in p)

    def materialize(self):
        families = self.carrier()
        index = {p: i for i, p in enumerate(families)}
        order = np.array([[q <= p for q in families] for p in families])
        add = np.array([[index[p & q] for q in families] for p in families])
        lattice = lat.validate_lattice(order, [self.element_name(p) for p in families])
        return cq.validate_coquantale(lattice, add)


@pytest.mark.parametrize("ground", [(), "a", "ab", "abc", "abcd", ("b", "a"),
                                    ("d", "b", "a", "c"), ("x10", "x2", "x1")])
def test_masks_match_the_frozenset_twin(ground):
    """The same families in the same order, and the same names, order,
    addition, dualizers and principal index, on sorted and unsorted grounds."""
    fl, twin = FreeLocale(ground), FrozensetLocale(ground)
    families = twin.carrier()
    assert fl.families.tolist() == [twin.mask(p) for p in families]
    table, expected = fl.materialize(), twin.materialize()
    assert [table.element_name(e) for e in table.carrier()] == \
        [expected.element_name(e) for e in expected.carrier()]
    assert (table.lattice.leq == expected.lattice.leq).all()
    assert (table.add == expected.add).all()
    assert table.dualizers == expected.dualizers
    index = {p: i for i, p in enumerate(families)}
    assert fl.principal_index().tolist() == \
        [index[twin.principal(g for i, g in enumerate(fl.ground) if S >> i & 1)]
         for S in range(1 << len(fl.ground))]


def test_carrier_counts_match_dedekind_numbers():
    for k, expected in DEDEKIND.items():
        fl = FreeLocale("abcd"[:k])
        assert len(fl.families) == expected, k


def test_carrier_not_enumerable_beyond_cap(monkeypatch):
    """On five names the enumeration, the tables and the principal index are
    refused before the 2^32-entry position table, or any large array, exists."""
    fl = FreeLocale("abcde")

    def refuse(shape, *args, **kwargs):
        raise AssertionError("a table of %s entries was asked for" % (shape,))

    monkeypatch.setattr(np, "full", refuse)
    tracemalloc.start()
    try:
        for build in (lambda: fl.families, fl.materialize, fl.principal_index):
            with pytest.raises(SizeLimit):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # its principal down-sets still work: ↓{a,b} lies below ↓{a}
    V = fl.principals()
    assert V.lattice.leq[0b00011, 0b00001] and not V.lattice.leq[0b00001, 0b00011]
    assert V.is_positive(V.bottom)


@settings(max_examples=10)
@given(k=st.integers(0, 4))
def test_symbolic_operations_match_materialized_tables(k):
    """The principal masks against the materialized tables, on every pair
    of the 2^k masks: +, ∨, ≤ and ≺ (all bitwise) and the names."""
    fl = FreeLocale("abcd"[:k])
    V, table, index = fl.principals(), fl.materialize(), fl.principal_index()
    masks = np.arange(V.size)
    S, T = masks[:, None], masks[None, :]
    iS, iT = index[S], index[T]
    assert (index[V.add[S, T]] == table.add[iS, iT]).all()
    assert (index[V.lattice.join[S, T]] == table.lattice.join[iS, iT]).all()
    assert (V.lattice.leq[S, T] == table.lattice.leq[iS, iT]).all()
    assert (V.lattice.cwb[S, T] == table.lattice.cwb[iS, iT]).all()
    assert [V.element_name(S) for S in masks] == [table.element_name(i) for i in index]
    assert index[V.bottom] == table.bottom


def test_closed_forms_match_definitions():
    """The carrier is every down-closed family, ≺ is "some member of p
    contains every member of q" and the names list the maximal members."""
    for k in range(4):
        fl = FrozensetLocale("abc"[:k])
        psets = [frozenset(c) for n in range(k + 1) for c in combinations(fl.ground, n)]
        families = []
        for mask in range(1 << len(psets)):
            family = frozenset(psets[i] for i in range(len(psets)) if mask >> i & 1)
            if all(t in family for s in family for t in downclose([s])):
                families.append(family)
        assert set(fl.carrier()) == set(families)
        table = FreeLocale(fl.ground).materialize()
        index = {p: i for i, p in enumerate(fl.carrier())}
        for p in families:
            assert sorted(map(sorted, fl.maximal_members(p))) == sorted(
                sorted(s) for s in p if not any(s < t for t in p))
            for q in families:
                assert table.lattice.cwb[index[p], index[q]] == \
                    any(all(t <= s for t in q) for s in p)


def test_bottom_and_top():
    """The tables' bottom is the whole powerset and their top the empty
    family; the bottom mask is ↓R, the identity of + and below every mask."""
    fl = FreeLocale("ab")
    table, families = fl.materialize(), FrozensetLocale("ab").carrier()
    assert families[table.bottom] == downclose(["ab"])
    assert families[table.top] == frozenset()
    assert fl.families[table.bottom] == 0b1111 and fl.families[table.top] == 0
    V = fl.principals()
    masks = np.arange(V.size)
    assert fl.principal_index()[V.bottom] == table.bottom
    assert (V.add[masks, V.bottom] == masks).all()
    assert V.lattice.leq[V.bottom, masks].all()


def test_every_element_is_positive():
    for k in range(4):
        fl = FreeLocale("abc"[:k])
        table = fl.materialize()
        assert list(table.positives()) == list(table.carrier())
        V = fl.principals()
        assert all(V.is_positive(S) for S in range(V.size))
        assert V.lattice.cwb[V.bottom, np.arange(V.size)].all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_principal_is_the_down_closure(data):
    """↓s against building it, on grounds of 0 to 8 names; the mask of s is
    named as the free locale names ↓s."""
    k = data.draw(st.integers(0, 8))
    ground = ["g%d" % i for i in range(k)]
    fl, twin = FreeLocale(ground), FrozensetLocale(ground)
    chosen = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    s = frozenset(g for g, keep in zip(fl.ground, chosen) if keep)
    assert twin.principal(s) == downclose([s])
    mask = sum(1 << i for i, keep in enumerate(chosen) if keep)
    assert fl.principals().element_name(mask) == twin.element_name(downclose([s]))


def test_dedekind4_tables_match_family_operations():
    """At n = 168 the materialized order is reverse inclusion, the meet is
    family union and the join (and addition) is family intersection."""
    table = FreeLocale("abcd").materialize()
    families = FrozensetLocale("abcd").carrier()
    assert table.size == DEDEKIND[4]
    index = {p: i for i, p in enumerate(families)}
    assert table.lattice.leq.tolist() == [[q <= p for q in families] for p in families]
    meet = [[index[p | q] for q in families] for p in families]
    join = [[index[p & q] for q in families] for p in families]
    assert table.lattice.meet.tolist() == meet
    assert table.lattice.join.tolist() == join
    assert table.add.tolist() == join


# -- sharing per ground set ------------------------------------------------------


def test_materialize_shared_per_ground():
    table = FreeLocale("abc").materialize()
    assert FreeLocale("abc").materialize() is table
    assert FreeLocale("abc") is FreeLocale(("a", "b", "c"))
    assert FreeLocale("abc").families is FreeLocale("abc").families
    assert FreeLocale("abc").principal_index() is FreeLocale("abc").principal_index()
    assert FreeLocale("abc").principals() is FreeLocale("abc").principals()
    assert FreeLocale("ab").materialize() is not table


def test_shared_materializations_keep_their_names():
    named = cq.builtin("freelocale:3")
    unnamed = FreeLocale("abc").materialize()
    assert named.name == "freelocale:3"
    assert unnamed.name == "freelocale(a,b,c)"
    assert cq.builtin("freelocale:3") is named
    assert FreeLocale("abc").materialize() is unnamed


def test_shared_tables_are_read_only():
    table = FreeLocale("ab").materialize()
    lattice = table.lattice
    for array in (table.add, table.tsub, table.dsym,
                  lattice.leq, lattice.meet, lattice.join, lattice.cwb):
        with pytest.raises(ValueError):
            array[0, 0] = array[0, 1]


def test_flagg_round_trip_validates_once_per_ground_size(monkeypatch):
    """Every topology on at most three points, in all three modes, costs one
    lattice and one co-quantale validation per ground size (2, 3, 4 opens)."""
    monkeypatch.setattr(freelocale, "_SHARED", {})
    validated = {"lattice": [], "coquantale": []}

    def counting(kind, validate):
        def wrapped(*args, **kwargs):
            result = validate(*args, **kwargs)
            validated[kind].append(len(result.carrier()))
            return result
        return wrapped

    monkeypatch.setattr(lat, "validate_lattice", counting("lattice", lat.validate_lattice))
    monkeypatch.setattr(freelocale, "validate_coquantale",
                        counting("coquantale", freelocale.validate_coquantale))
    for points in (["a"], ["a", "b"], ["a", "b", "c"]):
        for topo in sp.enumerate_topologies(points):
            modes = ["auto", False] + ([True] if len(topo.opens) <= 4 else [])
            for mode in modes:
                space = sp.space_from_topology(topo, materialize=mode)
                assert sp.induced_topology(space).opens == topo.opens
    # Dedekind(2), Dedekind(3), Dedekind(4) elements
    assert {k: sorted(v) for k, v in validated.items()} == \
        {"lattice": [6, 20, 168], "coquantale": [6, 20, 168]}


@st.composite
def topologies_on_four_points(draw):
    """One to three nonempty proper subsets of four points, closed under ∪
    and ∩ together with ∅ and the whole set."""
    points = "abcd"
    opens = {frozenset(), frozenset(points)}
    opens |= {frozenset(p for i, p in enumerate(points) if mask >> i & 1)
              for mask in draw(st.lists(st.integers(1, 14), min_size=1, max_size=3))}
    while True:
        closed = opens | {f(u, w) for u in opens for w in opens
                          for f in (frozenset.union, frozenset.intersection)}
        if closed == opens:
            break
        opens = closed
    return sp.validate_topology(list(points), opens)


@settings(max_examples=40, deadline=None)
@given(topo=topologies_on_four_points())
def test_flagg_distances_on_four_points_match_their_definition(topo):
    """Each symbolic distance is the mask of {U : a ∉ U or b ∈ U}, the
    induced topology is the source, and with at most four opens the
    materialized distances have the symbolic names."""
    opens = sp.sorted_opens(topo)
    symbolic = sp.space_from_topology(topo, materialize=False)
    for i, a in enumerate(topo.points):
        for j, b in enumerate(topo.points):
            assert symbolic.dist[i, j] == sum(1 << n for n, u in enumerate(opens)
                                              if a not in u or b in u)
    assert sp.induced_topology(symbolic).opens == topo.opens
    if len(opens) <= freelocale.MATERIALIZE_MAX:
        table = sp.space_from_topology(topo, materialize=True)
        assert sp.induced_topology(table).opens == topo.opens
        assert [[table.V.element_name(e) for e in row] for row in table.dist] == \
            [[symbolic.V.element_name(e) for e in row] for row in symbolic.dist]


def test_flagg_names_with_five_to_eight_opens_are_the_definitional_ones():
    """Every topology on four points with 5 to 8 opens: each distance is
    named as the free locale names the down-closure of {U : a ∉ U or b ∈ U}."""
    checked = 0
    for topo in sp.enumerate_topologies("abcd"):
        if not 5 <= len(topo.opens) <= 8:
            continue
        opens = sp.sorted_opens(topo)
        space = sp.space_from_topology(topo)
        fl = FrozensetLocale(space.V.ground)
        assert space.V.dtype == np.uint64
        for i, a in enumerate(topo.points):
            for j, b in enumerate(topo.points):
                family = downclose([{g for g, u in zip(fl.ground, opens) if a not in u or b in u}])
                assert space.V.element_name(space.dist[i, j]) == fl.element_name(family)
        checked += 1
    assert checked == 60 + 72 + 54 + 54
