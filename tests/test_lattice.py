import random

import numpy as np
import pytest

from cqlogic import lattice as lat
from cqlogic.errors import NoBoundedness, NotALattice, NotAPartialOrder

from conftest import diamond_lattice


def chain_lattice(n):
    order = np.fromfunction(lambda i, j: i <= j, (n + 1, n + 1), dtype=int)
    return lat.validate_lattice(order, [str(i) for i in range(n + 1)])


def brute_glb(lattice, subset):
    """Independent oracle: scan all elements for the greatest lower bound."""
    lbs = [z for z in lattice.carrier()
           if all(lattice.leq[z, a] for a in subset)]
    best = [z for z in lbs if all(lattice.leq[w, z] for w in lbs)]
    assert len(best) == 1
    return best[0]


def brute_lub(lattice, subset):
    ubs = [z for z in lattice.carrier()
           if all(lattice.leq[a, z] for a in subset)]
    best = [z for z in ubs if all(lattice.leq[z, w] for w in ubs)]
    assert len(best) == 1
    return best[0]


def m3_lattice():
    # three incomparable atoms between the bounds; a lattice but not
    # distributive, which keeps the ≺ oracle honest beyond the value cases
    order = np.eye(5, dtype=bool)
    order[0, :] = True
    order[:, 4] = True
    return lat.validate_lattice(order, ["0", "a", "b", "c", "1"])


def small_corpus():
    return [chain_lattice(1), chain_lattice(2), chain_lattice(4),
            diamond_lattice(), m3_lattice()]


# -- validation -----------------------------------------------------------------


def test_two_element_chain():
    lattice = chain_lattice(1)
    assert lattice.bottom == 0 and lattice.top == 1


def test_antichain_without_bounds_rejected():
    with pytest.raises((NotALattice, NoBoundedness)):
        lat.validate_lattice(np.eye(3, dtype=bool), ["a", "b", "c"])


def test_pair_without_meet_rejected():
    # 0 < a,b < c,d < 1 : the pair (c,d) has two maximal lower bounds
    names = ["0", "a", "b", "c", "d", "1"]
    order = np.eye(6, dtype=bool)
    rel = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    for x, y in rel:
        order[x, y] = True
    for _ in range(6):
        order |= (order.astype(np.uint8) @ order.astype(np.uint8)) > 0
    with pytest.raises(NotALattice):
        lat.validate_lattice(order, names)


def test_partial_order_violations_report_witnesses():
    bad = np.array([[1, 1], [1, 1]], dtype=bool)
    with pytest.raises(NotAPartialOrder, match="antisymmetric"):
        lat.validate_lattice(bad, ["a", "b"])
    order = np.eye(3, dtype=bool)
    order[0, 1] = order[1, 2] = True
    with pytest.raises(NotAPartialOrder, match="transitive"):
        lat.validate_lattice(order, ["a", "b", "c"])
    with pytest.raises(NotAPartialOrder, match="reflexive"):
        lat.validate_lattice(np.zeros((1, 1), dtype=bool), ["a"])


def test_transitivity_check_counts_past_256_paths():
    # x < y1..y256 < z without x <= z: 256 two-step paths from x to z, a
    # count that an 8-bit product would wrap to zero
    n = 258
    order = np.eye(n, dtype=bool)
    order[0, 1:n - 1] = True
    order[1:n - 1, n - 1] = True
    with pytest.raises(NotAPartialOrder, match="transitive"):
        lat.validate_lattice(order)


def random_poset(rng, n, bounded):
    """A seeded random partial order on n elements in shuffled index order,
    optionally with a bottom and a top added."""
    p = rng.random()
    order = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            order[i, j] = rng.random() < p
    if bounded and n > 1:
        order[0, :] = True
        order[:, n - 1] = True
    for _ in range(n):
        order |= (order.astype(np.uint8) @ order.astype(np.uint8)) > 0
    perm = list(range(n))
    rng.shuffle(perm)
    return order[np.ix_(perm, perm)]


def brute_bound_table(leq, names, kind):
    """The definition: the greatest common lower bound of every pair, with
    the first pair in (x, y) order that has none as the witness."""
    n = leq.shape[0]
    table = np.zeros((n, n), dtype=np.int32)
    for x in range(n):
        for y in range(n):
            lbs = [z for z in range(n) if leq[z, x] and leq[z, y]]
            best = [z for z in lbs if all(leq[w, z] for w in lbs)]
            if not best:
                raise NotALattice("no %s for pair (%s, %s)" % (kind, names[x], names[y]))
            table[x, y] = best[0]
    return table


def test_bound_tables_match_definition_on_random_posets():
    rng = random.Random(2468)
    outcomes = {"lattice": 0, "not a lattice": 0}
    for trial in range(600):
        order = random_poset(rng, rng.randrange(1, 8), bounded=trial % 2 == 0)
        names = ["e%d" % i for i in range(order.shape[0])]
        for leq, kind in ((order, "meet"), (order.T, "join")):
            try:
                expected = brute_bound_table(leq, names, kind)
            except NotALattice as exc:
                outcomes["not a lattice"] += 1
                with pytest.raises(NotALattice) as err:
                    lat._bound_table(leq, names, kind)
                assert str(err.value) == str(exc)
            else:
                outcomes["lattice"] += 1
                assert (lat._bound_table(leq, names, kind) == expected).all()
    # both branches are exercised in earnest
    assert min(outcomes.values()) > 200, outcomes


def test_diamond_meet_join_match_brute_force():
    d = diamond_lattice()
    a, b = d.index("a"), d.index("b")
    assert d.meet[a, b] == d.index("0")
    assert d.join[a, b] == d.index("1")
    for x in d.carrier():
        for y in d.carrier():
            assert d.meet[x, y] == brute_glb(d, [x, y])
            assert d.join[x, y] == brute_lub(d, [x, y])


def test_one_element_lattice_accepted():
    one = lat.validate_lattice([[True]], ["*"])
    assert one.bottom == one.top == 0
    assert lat.is_completely_distributive(one)
    # 0 = top here, and top is never co-well below top, so not a value lattice
    assert not lat.is_value_lattice(one)
    assert lat.positives(one) == []


# -- subset meets ---------------------------------------------------------------


def test_subset_meet_conventions():
    d = diamond_lattice()
    assert d.meet_of([]) == d.top
    assert d.join_of([]) == d.bottom
    for x in d.carrier():
        assert d.meet_of([x]) == x
    assert d.meet_of([d.index("a"), d.index("b")]) == d.index("0")


def test_fold_meets_equal_brute_force_on_all_subsets():
    for lattice in small_corpus():
        n = lattice.n
        for mask in range(1, 1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            assert lattice.meet_of(subset) == brute_glb(lattice, subset)
            assert lattice.join_of(subset) == brute_lub(lattice, subset)


# -- co-well-below ----------------------------------------------------------------


def test_cwb_examples():
    two = chain_lattice(1)
    assert two.cwb[0, 0]  # only subsets containing 0 meet to 0
    assert two.cwb[0, 1]
    d = diamond_lattice()
    assert not d.cwb[d.index("0"), d.index("0")]  # A = {a, b}
    # x ≺ top for every x except the top itself (the empty subset witnesses
    # the failure at the corner; see the closed form)
    for lattice in small_corpus():
        for x in lattice.carrier():
            assert lattice.cwb[x, lattice.top] == (x != lattice.top)


def test_cwb_matches_subset_oracle_exhaustively():
    for lattice in small_corpus():
        for x in lattice.carrier():
            for y in lattice.carrier():
                assert lattice.cwb[x, y] == \
                    lat.co_well_below_oracle(lattice, x, y), (lattice.elements, x, y)


def test_cwb_basic_lemma_triples():
    for lattice in small_corpus():
        for x in lattice.carrier():
            for y in lattice.carrier():
                if lattice.cwb[y, x]:
                    assert lattice.leq[y, x]
                for z in lattice.carrier():
                    if lattice.leq[z, y] and lattice.cwb[y, x]:
                        assert lattice.cwb[z, x]
                    if lattice.cwb[y, x] and lattice.leq[x, z]:
                        assert lattice.cwb[y, z]


def test_cwb_continuity_lemma():
    # ⋀A ≺ x iff some member of A is ≺ x, over every subset
    for lattice in small_corpus():
        n = lattice.n
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            meet = lattice.meet_of(subset)
            for x in lattice.carrier():
                assert lattice.cwb[meet, x] == any(lattice.cwb[a, x] for a in subset)


def test_density_lemma_in_distributive_lattices():
    for lattice in small_corpus():
        if not lat.is_completely_distributive(lattice):
            continue
        for x in lattice.carrier():
            for y in lattice.carrier():
                if lattice.cwb[x, y]:
                    assert any(lattice.cwb[x, z] and lattice.cwb[z, y]
                               for z in lattice.carrier())


# -- value lattice predicates ---------------------------------------------------


def test_chains_are_value_lattices():
    for n in (1, 2, 4, 8):
        lattice = chain_lattice(n)
        assert lat.is_completely_distributive(lattice)
        assert lat.is_value_lattice(lattice)
        # every element is positive on a finite chain
        assert lat.positives(lattice) == list(lattice.carrier())


def test_bool2_positives():
    two = chain_lattice(1)
    assert lat.is_value_lattice(two)
    assert lat.positives(two) == [0, 1]


def test_diamond_is_distributive_but_not_value():
    d = diamond_lattice()
    assert lat.is_completely_distributive(d)
    assert d.cwb[d.bottom, d.top]
    pos = lat.positives(d)
    assert d.index("0") not in pos
    assert set(pos) == {d.index("a"), d.index("b"), d.index("1")}
    # the two atoms meet to 0, which is not positive: the filter fails
    assert not lat.is_value_lattice(d)


# -- irreducibles ---------------------------------------------------------------


def random_lattices(rng, count):
    """Seeded random lattices of at most 7 elements (bounded posets that
    happen to have all meets and joins)."""
    found = []
    while len(found) < count:
        order = random_poset(rng, rng.randrange(1, 8), bounded=True)
        try:
            found.append(lat.validate_lattice(order))
        except NotALattice:
            pass
    return found


def test_irreducibles_match_definition():
    rng = random.Random(1357)
    for lattice in small_corpus() + random_lattices(rng, 150):
        pairs = [(a, b) for a in lattice.carrier() for b in lattice.carrier()]
        join_irr = [j for j in lattice.carrier() if j != lattice.bottom and all(
            j in (a, b) for a, b in pairs if lattice.join[a, b] == j)]
        meet_irr = [m for m in lattice.carrier() if m != lattice.top and all(
            m in (a, b) for a, b in pairs if lattice.meet[a, b] == m)]
        assert list(lat.join_irreducibles(lattice)) == join_irr
        assert list(lat.meet_irreducibles(lattice)) == meet_irr


def test_distributivity_predicates_match_folds():
    rng = random.Random(8642)
    for lattice in small_corpus() + random_lattices(rng, 150):
        cd = all(lattice.meet_of(np.flatnonzero(lattice.cwb[a])) == a
                 for a in lattice.carrier())
        assert lat.is_completely_distributive(lattice) == cd
        pos = lat.positives(lattice)
        value = cd and bool(lattice.cwb[lattice.bottom, lattice.top]) and all(
            lattice.cwb[lattice.bottom, lattice.meet[d, e]] for d in pos for e in pos)
        assert lat.is_value_lattice(lattice) == value
