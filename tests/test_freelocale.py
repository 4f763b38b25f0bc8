import pytest
from hypothesis import assume, given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import freelocale
from cqlogic import lattice as lat
from cqlogic import spaces as sp
from cqlogic.errors import SizeLimit, UnknownElement
from cqlogic.freelocale import FreeLocale, downclose

DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168}


def test_carrier_counts_match_dedekind_numbers():
    for k, expected in DEDEKIND.items():
        fl = FreeLocale("abcd"[:k])
        assert len(fl.carrier()) == expected, k


def test_carrier_not_enumerable_beyond_cap():
    fl = FreeLocale("abcde")
    with pytest.raises(SizeLimit):
        fl.carrier()
    # symbolic operations still work
    p = downclose([frozenset("ab")])
    q = downclose([frozenset("c")])
    assert fl.lattice.leq[fl.meet_of([p, q]), p]
    assert fl.is_positive(fl.bottom)


def test_symbolic_operations_match_materialized_tables():
    """The closed forms (set ops, the ≺ characterization, the residual)
    against the generic table machinery, exhaustively per ground size."""
    for k in range(4):
        fl = FreeLocale("abc"[:k])
        table = fl.materialize()
        families = fl.carrier()
        index = {p: i for i, p in enumerate(families)}
        for p in families:
            assert fl.contains(p)
            ip = index[p]
            assert table.element_name(ip) == fl.element_name(p)
            for q in families:
                iq = index[q]
                assert fl.lattice.leq[p, q] == table.lattice.leq[ip, iq]
                assert index[fl.meet_of([p, q])] == table.lattice.meet[ip, iq]
                assert index[fl.join_of([p, q])] == table.lattice.join[ip, iq]
                assert index[fl.lattice.join[p, q]] == table.lattice.join[ip, iq]
                assert index[fl.add[p, q]] == table.add[ip, iq]
                assert index[fl.sub(p, q)] == table.tsub[ip, iq], (k, p, q)
                assert index[fl.sym_dist(p, q)] == table.dsym[ip, iq]
                assert fl.cwb(p, q) == fl.lattice.cwb[p, q] == table.lattice.cwb[ip, iq]


def test_closed_forms_match_definitions():
    """The carrier is every down-closed family, ≺ is "some member of p
    contains every member of q" and the names list the maximal members."""
    for k in range(4):
        fl = FreeLocale("abc"[:k])
        psets = [frozenset(s) for s in fl._psets]
        families = []
        for mask in range(1 << len(psets)):
            family = frozenset(psets[i] for i in range(len(psets)) if mask >> i & 1)
            if all(t in family for s in family for t in downclose([s])):
                families.append(family)
        assert set(fl.carrier()) == set(families)
        for p in families:
            assert sorted(map(sorted, fl.maximal_members(p))) == sorted(
                sorted(s) for s in p if not any(s < t for t in p))
            for q in families:
                assert fl.cwb(p, q) == any(all(t <= s for t in q) for s in p)


def test_bottom_and_top():
    fl = FreeLocale("ab")
    assert fl.lattice.leq[fl.bottom, fl.top]
    assert fl.meet_of([fl.top, fl.bottom]) == fl.bottom
    assert fl.lattice.join[fl.top, fl.bottom] == fl.top
    # the monoid identity is the bottom family
    for p in fl.carrier():
        assert fl.add[p, fl.bottom] == p


def test_every_element_is_positive():
    for k in range(4):
        fl = FreeLocale("abc"[:k])
        assert all(fl.is_positive(p) for p in fl.carrier())


def test_name_parse_round_trip():
    for k in range(4):
        fl = FreeLocale("abc"[:k])
        for p in fl.carrier():
            assert fl.parse_element(fl.element_name(p)) == p
    fl = FreeLocale("ab")
    with pytest.raises(UnknownElement):
        fl.parse_element("{z}")
    with pytest.raises(UnknownElement):
        fl.parse_element("a")
    # non-canonical literals normalize: a redundant empty-set generator
    assert fl.parse_element("{0,a}") == fl.parse_element("{a}")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_principal_is_the_down_closure(data):
    """The shared ↓s against building it, on grounds of 0 to SYMBOLIC_MAX names."""
    k = data.draw(st.integers(0, freelocale.SYMBOLIC_MAX))
    fl = FreeLocale(["g%d" % i for i in range(k)])
    chosen = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    s = frozenset(g for g, keep in zip(fl.ground, chosen) if keep)
    assert fl.principal(s) == downclose([s])
    assert fl.contains(fl.principal(s))


def test_contains_rejects_non_families():
    fl = FreeLocale("ab")
    assert not fl.contains(frozenset([frozenset("a"), frozenset("ab")]))  # not down-closed
    assert not fl.contains("junk")
    assert fl.contains(downclose([frozenset("ab")]))


def test_dedekind4_tables_match_family_operations():
    """At n = 168 the materialized order is reverse inclusion, the meet is
    family union and the join (and addition) is family intersection."""
    fl = FreeLocale("abcd")
    table = fl.materialize()
    families = fl.carrier()
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
    assert FreeLocale("abc").carrier() is FreeLocale("abc").carrier()
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
    monkeypatch.setattr(freelocale, "_CARRIERS", {})
    monkeypatch.setattr(freelocale, "_MATERIALIZED", {})
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
    and ∩ together with ∅ and the whole set, kept when at most SYMBOLIC_MAX
    opens result."""
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
    assume(len(opens) <= freelocale.SYMBOLIC_MAX)
    return sp.validate_topology(list(points), opens)


@settings(max_examples=40, deadline=None)
@given(topo=topologies_on_four_points())
def test_flagg_distances_on_four_points_match_their_definition(topo):
    """Each symbolic distance is the down-closure of {U : a ∉ U or b ∈ U},
    the induced topology is the source, and with at most four opens the
    materialized distances have the symbolic names."""
    opens = sp.sorted_opens(topo)
    symbolic = sp.space_from_topology(topo, materialize=False)
    ground = symbolic.V.ground
    for i, a in enumerate(topo.points):
        for j, b in enumerate(topo.points):
            assert symbolic.dist[i, j] == downclose(
                [{g for g, u in zip(ground, opens) if a not in u or b in u}])
    assert sp.induced_topology(symbolic).opens == topo.opens
    if len(opens) <= freelocale.MATERIALIZE_MAX:
        table = sp.space_from_topology(topo, materialize=True)
        assert sp.induced_topology(table).opens == topo.opens
        assert [[table.V.element_name(e) for e in row] for row in table.dist] == \
            [[symbolic.V.element_name(e) for e in row] for row in symbolic.dist]
