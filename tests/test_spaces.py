import os
import random
import subprocess
import sys
from itertools import chain, combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic.errors import (NoMeets, NotAPreorder, NotATopology, NotPositive,
                            ReflexivityViolation, SizeLimit,
                            TransitivityViolation, VerificationFailed)
from cqlogic.formulas import Signature, identity_modulus
from cqlogic.freelocale import FreeLocale

SYMBOLIC = FreeLocale(("a", "b")).principals()     # the principal masks on two names

from conftest import diamond_lattice, metric_closure, space_corpus


# -- validation -----------------------------------------------------------------


def test_one_point_space(bool2):
    X = sp.validate_space(bool2, ["p"], [[0]])
    assert X.m == 1


def test_asymmetric_distances_allowed(bool2, sierpinski):
    assert sierpinski.d(0, 1) == 0 and sierpinski.d(1, 0) == 1
    assert not sp.is_symmetric(sierpinski)


def test_validation_errors(bool2):
    with pytest.raises(ReflexivityViolation):
        sp.validate_space(bool2, ["p"], [[1]])
    with pytest.raises(TransitivityViolation):
        sp.validate_space(bool2, ["p", "q", "r"],
                          [[0, 1, 0], [1, 0, 1], [1, 0, 0]])
    with pytest.raises(ReflexivityViolation):
        sp.validate_space(bool2, ["p", "q"], [[0, 7], [0, 0]])


def _first_triangle_failure(V, points, dist):
    """The TransitivityViolation text of a brute-force triple loop, or None."""
    m = len(points)
    for x, y, z in product(range(m), repeat=3):
        if not V.lattice.leq[dist[x][y], V.add[dist[x][z], dist[z][y]]]:
            return ("d(%s,%s) > d(%s,%s) + d(%s,%s)"
                    % (points[x], points[y], points[x], points[z], points[z], points[y]))
    return None


@pytest.mark.parametrize("budget", [sp.CELL_BUDGET, 20, 7])
@pytest.mark.parametrize("spec", ["chain:4", "freelocale:2", "symbolic:2"])
def test_triangle_check_matches_brute_force(roster, monkeypatch, spec, budget):
    """Seeded tables, half of them repaired to the triangle law and then
    perhaps raised at one entry; a small budget splits the rows into blocks."""
    V = SYMBOLIC if spec == "symbolic:2" else roster[spec]
    elements = list(range(V.size))
    monkeypatch.setattr(sp, "CELL_BUDGET", budget)
    rng = random.Random("%s/%d" % (spec, budget))
    outcomes = set()
    for _ in range(160):
        m = rng.randint(1, 8)
        points = ["p%d" % i for i in range(m)]
        dist = [[V.bottom if x == y else rng.choice(elements) for y in range(m)]
                for x in range(m)]
        if rng.random() < 0.5:
            dist = metric_closure(V, dist)
            if m > 1 and rng.random() < 0.5:
                x, y = rng.sample(range(m), 2)
                dist[x][y] = rng.choice(elements)
        expected = _first_triangle_failure(V, points, dist)
        try:
            sp.validate_space(V, points, dist)
            got = None
        except TransitivityViolation as exc:
            got = str(exc)
        assert got == expected, (m, dist)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_triangle_witness_through_twin_copies(chain4, monkeypatch):
    """u1, u2 are twins and so are v1, v2; only d(u,v) = 4 > d(u,w) + d(w,v)
    = 2 fails, so every failing triple passes through a twin class. The
    kernel runs once, on the representatives u1, w, v1, and its witness
    (0, 2, 1) there is (0, 3, 2) here."""
    base = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]                # u, w, v
    of = [0, 0, 1, 2, 2]
    dist = [[base[a][b] for b in of] for a in of]
    seen = []
    kernel = sp._triangle_witness

    def spy(values, tables):
        seen.append(tables.shape)
        return kernel(values, tables)

    monkeypatch.setattr(sp, "_triangle_witness", spy)
    with pytest.raises(TransitivityViolation) as info:
        sp.validate_space(chain4, ["u1", "u2", "w", "v1", "v2"], dist)
    assert str(info.value) == "d(u1,v1) > d(u1,w) + d(w,v1)"
    assert str(info.value) == _first_triangle_failure(chain4, ["u1", "u2", "w", "v1", "v2"], dist)
    assert seen == [(1, 3, 3)]


@pytest.mark.parametrize("symbolic", [False, True], ids=["table", "symbolic"])
def test_malformed_tables_raise_reflexivity_violation(roster, symbolic):
    V = SYMBOLIC if symbolic else roster["freelocale:2"]
    o, t = V.bottom, 0                                  # 0: the top table index, the mask ↓∅
    for dist in ([[o, 1.0], [t, o]],                   # not an integer
                 [[o, "1"], [t, o]],                   # a string
                 [[o, V.size], [t, o]],                # outside the carrier
                 [[o, -1], [t, o]],
                 [[o, t], [t]],                        # ragged rows
                 [[o, t], [t, o], [t, t]],             # three rows
                 [[o, t, t], [t, o, t]],
                 [[t, t], [t, o]],                     # d(p,p) is not the bottom
                 np.array([[0, 1.0], [1, 0]]),
                 np.array([[o, t], [float(t), o]], dtype=object)):   # equal to t, not one
        with pytest.raises(ReflexivityViolation):
            sp.validate_space(V, ["p", "q"], dist)


def test_dist_is_one_read_only_array(chain4):
    given = np.array([[0, 1], [1, 0]])
    X = sp.validate_space(chain4, ["p", "q"], given)
    assert X.dist.dtype == np.int32 and not X.dist.flags.writeable
    with pytest.raises(ValueError):
        X.dist[0, 1] = 2
    given[0, 1] = 3                                   # the space holds its own copy
    assert X.d(0, 1) == 1
    sig = Signature(predicates=[("P", 1, identity_modulus(chain4))])
    assert sem.validate_structure(X, sig, {"P": [0, 1]}).dist is X.dist
    topo = sp.validate_topology(["a", "b"], [frozenset(), frozenset("b"), frozenset("ab")])
    S = sp.space_from_topology(topo, materialize=False)
    assert S.dist.dtype == np.uint64 and S.dist.shape == (2, 2)
    assert not S.dist.flags.writeable
    assert not sp.dual_space(S).dist.flags.writeable


# -- constructions ------------------------------------------------------------------


def test_dual_transposes(sierpinski):
    dual = sp.dual_space(sierpinski)
    assert dual.d(0, 1) == 1 and dual.d(1, 0) == 0


def test_symmetric_idempotent(chain4):
    X = sp.validate_space(chain4, ["p", "q"], [[0, 2], [2, 0]])
    Y = sp.symmetric_space(X)
    assert np.array_equal(Y.dist, X.dist)
    Z = sp.symmetric_space(sp.validate_space(chain4, ["p", "q"], [[0, 1], [3, 0]]))
    assert Z.d(0, 1) == Z.d(1, 0) == 3


def test_product_of_single_points(bool2):
    one = sp.validate_space(bool2, ["p"], [[0]])
    two = sp.product_space(one, one)
    assert two.m == 1 and two.d(0, 0) == 0


def test_product_distance_is_pairwise_join(chain4):
    X = sp.validate_space(chain4, ["a", "b"], [[0, 1], [2, 0]])
    Y = sp.validate_space(chain4, ["u", "v"], [[0, 3], [1, 0]])
    P = sp.product_space(X, Y)
    for (i1, j1) in product(range(2), repeat=2):
        for (i2, j2) in product(range(2), repeat=2):
            got = P.d(P.index("%s|%s" % (X.points[i1], Y.points[j1])),
                      P.index("%s|%s" % (X.points[i2], Y.points[j2])))
            assert got == max(X.d(i1, i2), Y.d(j1, j2))


def _random_space(V, m, rng, name="p"):
    elements = list(range(V.size))
    dist = [[V.bottom if x == y else rng.choice(elements) for y in range(m)] for x in range(m)]
    return sp.validate_space(V, ["%s%d" % (name, i) for i in range(m)], metric_closure(V, dist))


@pytest.mark.parametrize("spec", ["chain:4", "symbolic:2"])
def test_joins_read_the_carrier_tables(roster, spec):
    """Symmetrizations and products join through ``V.lattice.join``: int32
    tables equal to the pairwise `join_of` on a table carrier, uint64 mask
    intersections on the principal masks."""
    symbolic = spec == "symbolic:2"
    V = SYMBOLIC if symbolic else roster[spec]
    join = (lambda p, q: p & q) if symbolic else (lambda a, b: V.join_of([a, b]))
    rng = random.Random(spec)
    for _ in range(10):
        X = _random_space(V, rng.randint(1, 4), rng)
        Y = _random_space(V, rng.randint(1, 3), rng, "q")
        S, P = sp.symmetric_space(X), sp.product_space(X, Y)
        assert S.dist.dtype == P.dist.dtype == (np.uint64 if symbolic else np.int32)
        assert S.dist.tolist() == [[join(X.d(x, y), X.d(y, x)) for y in range(X.m)]
                                   for x in range(X.m)]
        assert P.dist.tolist() == [[join(X.d(i1, i2), Y.d(j1, j2))
                                    for i2 in range(X.m) for j2 in range(Y.m)]
                                   for i1 in range(X.m) for j1 in range(Y.m)]


def test_failing_symbolic_table_stops_after_its_witness_block(monkeypatch):
    """One (table, row) pair per block: the witness d(0,1) > d(0,2) + d(2,1)
    lies in row 0, so only that block's m² sums are looked up; a valid table
    looks up all m blocks."""
    V = SYMBOLIC
    m = 6
    table = np.full((m, m), V.bottom, dtype=V.dtype)
    table[0, 1] = 0                                   # ↓∅, above every other mask
    monkeypatch.setattr(sp, "CELL_BUDGET", m * m)
    cells, add = [], V.add

    class Counting:
        def __getitem__(self, pair):
            out = add[pair]
            cells.append(out.size)
            return out

    monkeypatch.setattr(V, "add", Counting())
    assert sp._triangle_witness(V, table[None]).tolist() == [[0, 1, 2]]
    assert cells == [m * m]
    table[0, 1] = V.bottom
    cells.clear()
    assert sp._triangle_witness(V, table[None]).tolist() == [[-1, -1, -1]]
    assert cells == [m * m] * m


# -- discs ---------------------------------------------------------------------------


def test_center_in_own_disc(sierpinski, bool2):
    for p in sierpinski.points:
        for eps in bool2.positives():
            assert p in sp.disc(sierpinski, p, eps)


def test_sierpinski_disc_at_zero(sierpinski):
    assert sp.disc(sierpinski, "q", 0) == frozenset({"q"})
    assert sp.disc(sierpinski, "p", 0) == frozenset({"p", "q"})


def test_closed_disc_at_top_is_everything(sierpinski, bool2):
    for p in sierpinski.points:
        assert sp.closed_disc(sierpinski, p, bool2.top) == frozenset(sierpinski.points)


def test_disc_requires_positive_radius(diamond_join):
    X = sp.validate_space(diamond_join, ["p", "q"],
                          [[0, diamond_join.top], [diamond_join.top, 0]])
    with pytest.raises(NotPositive):
        sp.disc(X, "p", diamond_join.bottom)
    assert sp.closed_disc(X, "p", diamond_join.bottom) == frozenset({"p"})


# -- topology -----------------------------------------------------------------------


def test_indiscrete_and_discrete(bool2):
    allzero = sp.validate_space(bool2, ["a", "b", "c"],
                                [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    topo = sp.induced_topology(allzero)
    assert topo.opens == frozenset({frozenset(), frozenset("abc")})
    alltop = sp.validate_space(bool2, ["a", "b"], [[0, 1], [1, 0]])
    assert len(sp.induced_topology(alltop).opens) == 4


def test_sierpinski_topology(sierpinski):
    topo = sp.induced_topology(sierpinski)
    assert topo.opens == frozenset({frozenset(), frozenset({"q"}),
                                    frozenset({"p", "q"})})


def _topology_carrier(spec):
    if spec == "symbolic:2":
        return SYMBOLIC
    if spec == "diamond_join":                     # 0 ≺ 0 fails: positives {a, b, 1}
        diamond = diamond_lattice()
        return cq.validate_coquantale(diamond, diamond.join, name="diamond-join")
    return cq.builtin(spec)


TOPOLOGY_CARRIERS = {spec: _topology_carrier(spec)
                     for spec in ("chain:4", "freelocale:2", "symbolic:2", "diamond_join")}


@pytest.mark.parametrize("spec", sorted(TOPOLOGY_CARRIERS))
@settings(max_examples=25)
@given(m=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_induced_topology_is_the_definitional_scan(spec, m, rng):
    """Every subset U such that each x in U has a disc B_ε(x) ⊆ U for some
    positive ε, scanned over every subset and every positive radius. Over
    diamond_join the positives are not meet-closed, so the family may miss
    an intersection and is then refused as a topology."""
    V = TOPOLOGY_CARRIERS[spec]
    assert V.is_positive(V.bottom) == (spec != "diamond_join")    # both radius branches
    X = _random_space(V, m, rng)
    positives = range(V.size) if spec == "symbolic:2" else V.positives()   # every mask is positive

    def disc(x, eps):
        return {y for y in range(m) if V.lattice.cwb[X.dist[x, y], eps]}

    opens = {X.point_set(u) for k in range(m + 1) for u in map(set, combinations(range(m), k))
             if all(any(disc(x, eps) <= u for eps in positives) for x in u)}
    if all(u & w in opens for u in opens for w in opens):
        assert sp.induced_topology(X).opens == opens
    else:
        with pytest.raises(NotATopology):
            sp.induced_topology(X)


CHAIN_OF_PAIRS = [set(), set("ab"), set("bc"), set("cd"), set("abcd")]


def test_topology_validation_errors():
    """A refusal names the first failing pair u < w in mask order,
    intersection before union, or the smallest set that is not made of
    points; members sorted."""
    with pytest.raises(NotATopology, match="^must contain the empty set and the full set$"):
        sp.validate_topology(["a", "b"], [frozenset(), frozenset("a")])
    with pytest.raises(NotATopology, match=r"^not closed under intersection: \{a,b\}, \{b,c\}$"):
        sp.validate_topology(["a", "b", "c"],
                             [frozenset(), frozenset("abc"),
                              frozenset("ab"), frozenset("bc")])
    with pytest.raises(NotATopology, match=r"^not closed under intersection: \{a,b\}, \{b,c\}$"):
        sp.validate_topology("abcd", CHAIN_OF_PAIRS)
    with pytest.raises(NotATopology, match=r"^not closed under union: \{b\}, \{c\}$"):
        sp.validate_topology("abcd", [set(), set("b"), set("c"), set("abcd")])
    with pytest.raises(NotATopology, match=r"^open set \{a,y\} is not a subset of the points$"):
        sp.validate_topology("abcd", [set(), set("zab"), set("ya"), set("abcd")])
    with pytest.raises(NotATopology, match="^points must be unique names$"):
        sp.validate_topology("aab", [set(), set("ab")])


def test_topology_refusals_do_not_depend_on_the_hash_seed():
    """Set iteration order changes with PYTHONHASHSEED; the witness does not.
    The preorder cases are a chain a → b → c → d without its composites
    and two pairs with unknown points."""
    src = os.path.dirname(os.path.dirname(sp.__file__))
    chain = [(p, p) for p in "abcd"] + [("a", "b"), ("b", "c"), ("c", "d")]
    calls = ["sp.validate_topology('abcd', %r)" % CHAIN_OF_PAIRS,
             "sp.preorder_dictionary('abcd', %r)" % chain,
             "sp.preorder_dictionary('ab', [('y', 'b'), ('a', 'x')])"]
    script = "from cqlogic import spaces as sp\n" + "".join(
        "try:\n    %s\nexcept Exception as e:\n    print(e)\n" % call for call in calls)
    for seed in ("1", "4"):
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                             check=True, timeout=60).stdout
        assert out.splitlines() == ["not closed under intersection: {a,b}, {b,c}",
                                    "not transitive: d(a,c) > d(a,b) + d(b,c)",
                                    "pair (a, x) mentions unknown points"]


# -- closure -----------------------------------------------------------------------


def test_dist_to_set_and_closure(sierpinski, bool2):
    assert sp.dist_to_set(sierpinski, "p", {"q"}) == 0
    assert sp.dist_to_set(sierpinski, "q", {"p"}) == 1
    assert sp.dist_to_set(sierpinski, "p", set()) == bool2.top
    assert sp.closure(sierpinski, {"q"}) == frozenset({"p", "q"})
    assert sp.closure(sierpinski, set()) == frozenset()


def test_member_has_zero_distance(chain4):
    X = sp.validate_space(chain4, ["a", "b"], [[0, 2], [1, 0]])
    for p in X.points:
        assert sp.dist_to_set(X, p, set(X.points)) == 0
        assert p in sp.closure(X, set(X.points))


def test_closure_is_kuratowski_on_corpus(bool2, chain4):
    corpus = space_corpus(bool2, 6, 4, seed=11) + space_corpus(chain4, 6, 4, seed=12)
    for X in corpus:
        pts = list(X.points)
        for mask in range(1 << X.m):
            A = frozenset(pts[i] for i in range(X.m) if mask >> i & 1)
            cl = sp.closure(X, A)
            assert A <= cl
            assert sp.closure(X, cl) == cl
            for mask2 in range(1 << X.m):
                B = frozenset(pts[i] for i in range(X.m) if mask2 >> i & 1)
                assert sp.closure(X, A | B) == sp.closure(X, A) | sp.closure(X, B)


def test_closure_agrees_with_topological_closure(bool2, chain4):
    for X in space_corpus(bool2, 4, 4, seed=3) + space_corpus(chain4, 4, 4, seed=4):
        topo = sp.induced_topology(X)
        closed = {frozenset(X.points) - u for u in topo.opens}
        for mask in range(1 << X.m):
            A = frozenset(X.points[i] for i in range(X.m) if mask >> i & 1)
            smallest = frozenset(X.points)
            for c in closed:
                if A <= c and c < smallest:
                    smallest = c
            assert sp.closure(X, A) == smallest


def test_diameter(chain4):
    X = sp.validate_space(chain4, ["a", "b", "c"],
                          [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert sp.diameter(X, set()) == chain4.bottom
    assert sp.diameter(X, {"a", "b"}) == 1
    assert sp.diameter(X) == 3
    for small in combinations(X.points, 2):
        assert chain4.lattice.leq[sp.diameter(X, set(small)), sp.diameter(X)]


def test_diameter_is_the_join_of_every_distance(roster):
    """The folded diameter equals the scalar `join_of` over every pair of
    points, on seeded spaces over each roster carrier, for every subset of
    the first four points and for the whole space."""
    for vq in roster.values():
        for X in space_corpus(vq, 4, 6, seed=29):
            for mask in range(1 << min(X.m, 4)):
                idx = [i for i in range(X.m) if mask >> i & 1]
                assert sp.diameter(X, [X.points[i] for i in idx]) == vq.join_of(
                    X.dist[x, y] for x in idx for y in idx)
            assert sp.diameter(X) == vq.join_of(X.dist.reshape(-1))


# -- theorem checks ---------------------------------------------------------------


def test_theorems_hold_on_seeded_corpus(bool2, chain4):
    chain3 = cq.builtin("chain:3")
    corpus = (space_corpus(bool2, 8, 4, seed=21)
              + space_corpus(chain3, 8, 4, seed=22))
    for X in corpus:
        report = sp.check_topology_theorems(X)
        assert report.all_pass, (X.points, report.lines())


def test_one_point_space_theorems(bool2):
    X = sp.validate_space(bool2, ["p"], [[0]])
    assert sp.check_topology_theorems(X).all_pass


def test_symmetric_topology_generated_by_meet_refinement(bool2, chain4):
    for X in space_corpus(chain4, 5, 4, seed=31) + space_corpus(bool2, 5, 4, seed=32):
        tau = sp.induced_topology(X)
        tau_star = sp.induced_topology(sp.dual_space(X))
        tau_sym = sp.induced_topology(sp.symmetric_space(X))
        meets = frozenset(u & w for u in tau.opens for w in tau_star.opens)
        assert meets <= tau_sym.opens
        for u in tau_sym.opens:
            assert frozenset().union(*(v for v in meets if v <= u)) == u


def test_meet_refinement_set_equality_has_counterexamples(chain4):
    """The literal reading of the decomposition (the symmetric opens ARE
    the pairwise intersections) is refuted by a concrete 4-point space:
    the intersections are not closed under unions."""
    chain3 = cq.builtin("chain:3")
    X = sp.validate_space(chain3, ["p0", "p1", "p2", "p3"],
                          [[0, 1, 0, 1], [0, 0, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0]])
    tau = sp.induced_topology(X)
    tau_star = sp.induced_topology(sp.dual_space(X))
    tau_sym = sp.induced_topology(sp.symmetric_space(X))
    meets = frozenset(u & w for u in tau.opens for w in tau_star.opens)
    assert frozenset({"p0", "p2", "p3"}) in tau_sym.opens - meets


def _frozenset_theorems(space):
    """The slow twin of `check_topology_theorems`: every witness of each
    statement, in order, by scans over the frozenset views of τ, τ* and
    τ^s, `closure` and `closed_disc` (so in the iteration order of sets)."""
    V = space.V
    V.meet_of(())
    m = space.m
    positives = V.positives()
    dual = sp.dual_space(space)
    tau, tau_star, tau_sym = map(sp.induced_topology, (space, dual, sp.symmetric_space(space)))
    full = frozenset(space.points)
    subsets = [space.point_set(i for i in range(m) if mask >> i & 1) for mask in range(1 << m)]

    def neighborhood_failures(p):
        discs = [sp.closed_disc(space, p, eps) for eps in positives]
        yield from ("(x=%s: closed disc is not a neighborhood)" % p for c in discs
                    if not any(p in o and o <= c for o in tau.opens))
        yield from ("(x=%s, U=%s)" % (p, sorted(o)) for o in tau.opens
                    if p in o and not any(c <= o for c in discs))

    meets = frozenset(u & w for u in tau.opens for w in tau_star.opens)
    star_closed = frozenset(full - u for u in tau_star.opens)
    statements = [
        ("closed-characterization", (
            "A=%s" % sorted(a) for a in subsets
            if (full - a in tau.opens) != (sp.closure(space, a) <= a))),
        ("dual-discs-closed", (
            "(x=%s, eps=%s)" % (p, V.element_name(eps)) for p in space.points for eps in positives
            if full - sp.closed_disc(dual, p, eps) not in tau.opens)),
        ("fundamental-neighborhoods", (w for p in space.points for w in neighborhood_failures(p))),
        ("symmetric-decomposition", chain(
            ("V∩W=%s not symmetric-open" % sorted(v) for v in meets if v not in tau_sym.opens),
            ("U=%s is not a union of intersections" % sorted(u) for u in tau_sym.opens
             if frozenset().union(*(v for v in meets if v <= u)) != u))),
        ("pseudo-hausdorff", (
            "(x=%s, y=%s)" % (x, y) for x in space.points for y in space.points
            if x not in sp.closure(space, {y}) and not any(
                x in u and y in w and not u & w for u in tau.opens for w in tau_star.opens))),
        ("regularity", (
            "(x=%s, A=%s)" % (x, sorted(a)) for x in space.points for a in tau.opens
            if x in a and not any(x in u and u <= c <= a for u in tau.opens for c in star_closed)))]
    return [(name, list(witnesses)) for name, witnesses in statements]


def _agrees_with_the_twin(space, monkeypatch):
    """`check_topology_theorems` with the opens view, `closure`,
    `closed_disc` and `frozenset` refused: each statement fails exactly when
    the twin finds a witness, at one of the twin's witnesses."""
    with monkeypatch.context() as patch:
        patch.setattr(sp.Topology, "opens", property(_never))
        for name in ("closure", "closed_disc", "frozenset"):
            patch.setattr(sp, name, _never, raising=False)
        report = sp.check_topology_theorems(space)
    for entry, (name, witnesses) in zip(report.entries, _frozenset_theorems(space), strict=True):
        assert (entry.name, entry.passed) == (name, not witnesses), (space.points, entry)
        assert entry.passed or entry.witness in witnesses, (entry, witnesses)
    return report


def _replace_topology(monkeypatch, which, change):
    """Each run of the theorems calls `induced_topology` for τ, τ* and τ^s
    in that order; the ``which``-th (0, 1 or 2) gets its masks changed."""
    induced, calls = sp.induced_topology, []

    def replaced(space):
        calls.append(space)
        topo = induced(space)
        return (sp.Topology(topo.points, tuple(change(topo.masks)))
                if (len(calls) - 1) % 3 == which else topo)

    monkeypatch.setattr(sp, "induced_topology", replaced)


def test_theorems_on_masks_match_the_frozenset_twin(monkeypatch):
    """480 seeded spaces of at most five points: every statement passes."""
    for spec in ("bool2", "chain:3", "chain:4", "lukasiewicz:3"):
        for seed in range(6):
            for X in space_corpus(cq.builtin(spec), 20, 5, seed=seed):
                assert _agrees_with_the_twin(X, monkeypatch).all_pass


def test_theorems_match_the_twin_when_tau_star_loses_its_second_open(monkeypatch):
    _replace_topology(monkeypatch, 1, lambda masks: masks[:1] + masks[2:])
    failures = [e.name for seed in range(4)
                for X in space_corpus(cq.builtin("chain:3"), 10, 4, seed=seed)
                for e in _agrees_with_the_twin(X, monkeypatch).entries if not e.passed]
    assert len(failures) == 49 and set(failures) == {
        "symmetric-decomposition", "pseudo-hausdorff", "regularity"}


DISCRETE2 = ("ab", [[0, 1], [1, 0]])
SIERPINSKI = ("ab", [[0, 0], [1, 0]])
DISCRETE3 = ("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("space, which, masks, failures", [
    (DISCRETE2, 0, [0, 1, 2], [("closed-characterization", "A=[]")]),
    (DISCRETE2, 0, [1, 2, 3], [("closed-characterization", "A=['a', 'b']"),
                               ("dual-discs-closed", "(x=a, eps=1)")]),
    (DISCRETE3, 0, [0, 2, 3, 4, 5, 6, 7], [
        ("closed-characterization", "A=['b', 'c']"),
        ("fundamental-neighborhoods", "(x=a: closed disc is not a neighborhood)")]),
    (SIERPINSKI, 0, [0, 1, 2, 3], [("closed-characterization", "A=['b']"),
                                   ("fundamental-neighborhoods", "(x=a, U=['a'])"),
                                   ("regularity", "(x=a, A=['a'])")]),
    (DISCRETE2, 2, [0, 2, 3], [("symmetric-decomposition", "V∩W=['a'] not symmetric-open")]),
    (SIERPINSKI, 1, [0, 1], [("symmetric-decomposition",
                              "U=['b'] is not a union of intersections")]),
    (DISCRETE2, 1, [0, 2, 3], [("pseudo-hausdorff", "(x=b, y=a)"),
                               ("regularity", "(x=b, A=['b'])")]),
    (SIERPINSKI, 1, [1, 3], [("regularity", "(x=a, A=['a', 'b'])")])])
def test_each_statement_fails_at_its_first_witness(bool2, monkeypatch, space, which, masks,
                                                   failures):
    """A wrong τ (which = 0), τ* (1) or τ^s (2) on two- and three-point
    bool2 spaces: the failing statements and their witnesses, the first in
    mask order, as the twin's failures say."""
    X = sp.validate_space(bool2, *space)
    _replace_topology(monkeypatch, which, lambda _: masks)
    report = _agrees_with_the_twin(X, monkeypatch)
    assert [(e.name, e.witness) for e in report.entries if not e.passed] == failures


def test_theorem_witnesses_do_not_depend_on_the_hash_seed():
    """τ* without its second open on 40 seeded chain:3 spaces: the witnesses
    of the spaces of two to four points, under two hash seeds."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(sp.__file__))
    script = """
from conftest import space_corpus
from cqlogic import coquantale as cq, spaces as sp
induced, calls = sp.induced_topology, []

def dropped(space):
    calls.append(space)
    topo = induced(space)
    drop = len(calls) % 3 == 2
    return sp.Topology(topo.points, topo.masks[:1] + topo.masks[2:]) if drop else topo

sp.induced_topology = dropped
for seed in range(4):
    for X in space_corpus(cq.builtin("chain:3"), 10, 4, seed=seed):
        for e in sp.check_topology_theorems(X).entries:
            if X.m > 1 and not e.passed:
                print(e.witness)
"""
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": os.pathsep.join((src, tests))},
                             check=True, timeout=60).stdout
        assert out.splitlines() == WITNESSES_WITHOUT_THE_SECOND_STAR_OPEN


WITNESSES_WITHOUT_THE_SECOND_STAR_OPEN = [
    "U=['p1'] is not a union of intersections",
    "U=['p0'] is not a union of intersections",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1', 'p2', 'p3'])",
    "U=['p0'] is not a union of intersections",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1'])",
    "U=['p0'] is not a union of intersections",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1'])",
    "(x=p2, y=p1)",
    "(x=p2, A=['p0', 'p2'])",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1', 'p2', 'p3'])",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1'])",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1'])",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1'])",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1'])",
    "U=['p0', 'p1'] is not a union of intersections",
    "U=['p1'] is not a union of intersections",
    "(x=p0, y=p1)",
    "(x=p0, A=['p0'])",
    "(x=p1, y=p0)",
    "(x=p1, A=['p1'])",
    "U=['p1'] is not a union of intersections",
    "(x=p0, y=p1)",
    "(x=p0, A=['p0'])",
]


# -- separation -------------------------------------------------------------------


def test_T0_cases(sierpinski, bool2):
    assert sp.is_T0(sierpinski)
    merged = sp.validate_space(bool2, ["x", "y"], [[0, 0], [0, 0]])
    assert not sp.is_T0(merged)
    dsym_space = sp.validate_space(bool2, ["0", "1"],
                                   [[bool2.dsym[a, b] for b in (0, 1)]
                                    for a in (0, 1)])
    assert sp.is_T0(dsym_space)
    assert sp.is_v_domain(dsym_space)


# -- Flagg dictionary ---------------------------------------------------------------


def test_indiscrete_distances_are_bottom():
    topo = sp.validate_topology(["a", "b"], [frozenset(), frozenset("ab")])
    X = sp.space_from_topology(topo, materialize=False)
    for i in range(2):
        for j in range(2):
            assert X.dist[i][j] == X.V.bottom
    assert sp.induced_topology(X).opens == topo.opens


def test_flagg_round_trip_small_topologies():
    for pts in (["a"], ["a", "b"]):
        for topo in sp.enumerate_topologies(pts):
            both = []
            for mode in (False, True):
                X = sp.space_from_topology(topo, materialize=mode)
                got = sp.induced_topology(X)
                assert got.opens == topo.opens, (pts, sorted(map(sorted, topo.opens)))
                both.append(got)
            assert both[0].opens == both[1].opens


def test_flagg_materialized_and_symbolic_agree_on_distances():
    topo = sp.validate_topology(["a", "b"], [frozenset(), frozenset("b"),
                                             frozenset("ab")])
    sym = sp.space_from_topology(topo, materialize=False)
    mat = sp.space_from_topology(topo, materialize=True)
    fl = sym.V
    for i in range(2):
        for j in range(2):
            assert mat.V.element_name(mat.dist[i][j]) == fl.element_name(sym.dist[i][j])


def test_flagg_spaces_over_one_ground_share_their_universe():
    # both topologies have four opens, so both live over freelocale(U0..U3)
    left = sp.space_from_topology(sp.validate_topology(
        ["a", "b"], [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]))
    right = sp.space_from_topology(sp.validate_topology(
        ["p", "q", "r"], [frozenset(), frozenset("p"), frozenset("pq"), frozenset("pqr")]))
    assert left.V is right.V
    sierpinski = sp.validate_topology(["a", "b"], [frozenset(), frozenset("b"),
                                                   frozenset("ab")])
    assert left.V is not sp.space_from_topology(sierpinski).V
    prod = sp.product_space(left, right)
    assert prod.m == 6
    assert sp.induced_topology(prod).opens >= {
        frozenset("%s|%s" % (x, y) for x in u for y in w)
        for u in ({"a"}, {"b"}) for w in ({"p"}, {"p", "q"})}


def _never(*args, **kwargs):
    raise AssertionError("reached after the cost check")


def test_flagg_rejects_large_point_sets(monkeypatch):
    """Four points and two opens fit the budget; 500 points cost the
    500^2·2 cells of the mask build and a 500^3 triangle check, refused one
    below that before any distance."""
    topo = sp.validate_topology(["a", "b", "c", "d"],
                                [frozenset(), frozenset("abcd")])
    assert sp.induced_topology(sp.space_from_topology(topo)).opens == topo.opens
    points = ["p%d" % i for i in range(500)]
    big = sp.validate_topology(points, [frozenset(), frozenset(points)])
    monkeypatch.setattr(sp, "_by_size_then_names", _never)
    monkeypatch.setattr(sp, "WORK_BUDGET", 125499999)
    with pytest.raises(SizeLimit, match="the space of a topology on 500 points with 2 opens "
                                        "costs 125500000 cell operations"):
        sp.space_from_topology(big)


def test_flagg_refuses_more_opens_than_mask_bits(monkeypatch):
    """Every subset of six points, and the seven-point set: 65 opens, one
    more than a uint64 mask holds, refused before any distance. (The
    discrete topology on six points fills the 64 bits; its round trip is in
    the acceptance suite.)"""
    points = list("abcdefg")
    opens = [frozenset(c) for k in range(7) for c in combinations(points[:6], k)]
    topo = sp.validate_topology(points, opens + [frozenset(points)])
    assert len(topo.masks) == 65
    monkeypatch.setattr(sp, "_by_size_then_names", _never)
    for materialize in ("auto", False, True):
        with pytest.raises(SizeLimit, match="need 65 bits"):
            sp.space_from_topology(topo, materialize=materialize)


def test_mask_spaces_have_no_meets(monkeypatch):
    """d(x, A), closures and the topology theorems need meets, which the
    principal masks lack: each is refused at once, naming the carrier.
    Joins stay principal, so the diameter is there."""
    topo = sp.validate_topology(["a", "b"], [frozenset(), frozenset("b"), frozenset("ab")])
    X = sp.space_from_topology(topo, materialize=False)
    assert X.V.element_name(sp.diameter(X)) == "{U0+U2}"      # d(b, a): b ∈ U1, a ∉ U1
    monkeypatch.setattr(sp, "dual_space", _never)
    monkeypatch.setattr(sp, "induced_topology", _never)
    for check in (lambda: sp.dist_to_set(X, "a", {"b"}), lambda: sp.closure(X, {"b"}),
                  lambda: sp.check_topology_theorems(X)):
        with pytest.raises(NoMeets, match=r"principal\(U0,U1,U2\) has no meets"):
            check()


def test_disc_that_is_not_open_fails_verification(monkeypatch):
    """A patched ≺ (d ≺ ε iff d ≠ ε) on the discrete space of two points
    gives B(a) = {b} and B(b) = {a}: only ∅ and {a, b} pass the scan, so the
    discs are not open."""
    points = ["a", "b"]
    topo = sp.validate_topology(points, [frozenset(), frozenset("a"), frozenset("b"),
                                         frozenset("ab")])
    X = sp.space_from_topology(topo, materialize=False)
    assert sp.induced_topology(X).opens == topo.opens

    class Unequal:
        def __getitem__(self, pair):
            return np.not_equal(*pair)

    monkeypatch.setattr(X.V.lattice, "cwb", Unequal())
    with pytest.raises(VerificationFailed, match="not open"):
        sp.induced_topology(X)


def test_the_mask_path_never_reads_the_opens_view(monkeypatch):
    """Enumeration, the Flagg space and the induced topology work on masks
    alone: with the frozenset view refused, every topology on five points
    comes back as itself."""
    monkeypatch.setattr(sp.Topology, "opens", property(_never))
    topologies = sp.enumerate_topologies("abcde")
    assert len(topologies) == 6942
    for topo in topologies:
        assert sp.induced_topology(sp.space_from_topology(topo, materialize=False)) == topo


def test_topologies_past_62_points_keep_python_int_masks():
    """Masks of 70 points do not fit int64: validation, the canonical order
    and the Flagg distances run on Python ints."""
    points = ["p%d" % i for i in range(70)]
    topo = sp.validate_topology(points, [(), points[:1], points[:2], points])
    assert topo.masks == (0, 1, 3, (1 << 70) - 1)
    assert sp.sorted_opens(topo) == sorted(topo.opens, key=lambda u: (len(u), sorted(u)))
    X = sp.space_from_topology(topo, materialize=False)
    assert [X.V.element_name(X.dist[i, j]) for i, j in ((0, 1), (1, 0), (2, 69))] == \
        ["{U0+U2+U3}", "{U0+U1+U2+U3}", "{U0+U1+U2+U3}"]
    with pytest.raises(NotATopology, match=r"^not closed under union: \{p0\}, \{p1\}$"):
        sp.validate_topology(points, [(), points[:1], points[1:2], points])


def _random_topology(m, rng):
    """A seeded topology on m points named in shuffled order (string order
    is not index order): the up-sets of a random order on b <= 6 blocks of
    near-equal size, each up-set the union of its blocks, so at most 64
    opens, many of them of one size."""
    names = ["p%d" % i for i in rng.sample(range(m), m)]
    b = rng.randint(1, 6)
    blocks = [names[i::b] for i in range(b)]
    above = [{j for j in range(i + 1, b) if rng.random() < 0.3} for i in range(b)]
    opens = [[p for i in range(b) if mask >> i & 1 for p in blocks[i]]
             for mask in range(1 << b)
             if all(mask >> j & 1 for i in range(b) if mask >> i & 1 for j in above[i])]
    return names, opens


@pytest.mark.parametrize("m", [56, 57, 60, 63, 64, 100])
def test_masks_past_int64_agree_with_a_python_sort(m):
    """Around the points where masks (63) and the canonical-order weights
    (57) leave int64: validation, `sorted_opens` and the Flagg distances
    equal a Python sort of the frozensets and the distances read from it,
    over seeded topologies (`_random_topology`)."""
    rng = random.Random(m)
    for _ in range(5):
        names, opens = _random_topology(m, rng)
        topo = sp.validate_topology(names, opens)
        twin = sorted({frozenset(u) for u in opens}, key=lambda u: (len(u), sorted(u)))
        assert sp.sorted_opens(topo) == twin
        X = sp.space_from_topology(topo, materialize=False)
        held = [sum(1 << i for i, u in enumerate(twin) if p in u) for p in names]
        full = (1 << len(twin)) - 1
        assert X.dist.tolist() == [[full ^ (a & ~b) for b in held] for a in held]


def test_enumerate_topologies_count():
    """The topologies and the preorders on 0 to 5 points (OEIS A000798)."""
    for m, count in enumerate([1, 1, 4, 29, 355, 6942]):
        points = ["p%d" % i for i in range(m)]
        assert len(sp.enumerate_topologies(points)) == count
        assert len(sp.enumerate_preorders(points)) == count


def _relation_filter_rows(m):
    """The slow twin of `_preorder_rows`: [P, a], the mask of ↑a in each
    transitive one of the 2^(m²-m) reflexive relations on m points, in
    increasing relation order. Relation r relates a to b when bit
    a·(m-1) + j of r is set, b the j-th point other than a. The relations
    run in blocks of at most CELL_BUDGET cells, tested pair by pair."""
    count, block = 1 << m * (m - 1), max(1, sp.CELL_BUDGET // max(1, m * m))
    point = np.arange(m, dtype=np.int64)
    low = (1 << point) - 1                         # the points before a
    found = []
    for start in range(0, count, block):
        r = np.arange(start, min(count, start + block), dtype=np.int64)
        off = (r[:, None] >> point * (m - 1)) & ((1 << max(0, m - 1)) - 1)
        rows = (off & low) | (1 << point) | ((off & ~low) << 1)      # [n, a]: ↑a
        for a, b in permutations(range(m), 2):         # a ≤ b implies ↑b ⊆ ↑a
            rows = rows[((rows[:, a] >> b) & 1 == 0) | ((rows[:, b] & ~rows[:, a]) == 0)]
        found.append(rows)
    return np.concatenate(found)


@pytest.mark.parametrize("m", range(6))
def test_preorder_rows_are_the_transitive_relations(m):
    """One-point extension gives each preorder on 0 to 5 points once: the
    relation filter's rows, as a set."""
    rows = sp._preorder_rows(m, "preorders").tolist()
    assert len(set(map(tuple, rows))) == len(rows)
    assert set(map(tuple, rows)) == set(map(tuple, _relation_filter_rows(m).tolist()))


@pytest.mark.parametrize("m", range(6))
def test_enumerated_topologies_are_those_of_the_filtered_relations(m):
    """The up-set topologies of the filter's preorders, sorted by their
    masks over the subsets in `combinations` order: the same list."""
    points = tuple("p%d" % i for i in range(m))
    upset = sp._upsets(_relation_filter_rows(m)[:, :, None], m)
    order = [sum(1 << x for x in c) for k in range(m + 1) for c in combinations(range(m), k)]
    want = [sp.Topology(points, tuple(np.flatnonzero(row).tolist()))
            for row in upset[np.lexsort(upset[:, order].T)]]
    assert sp.enumerate_topologies(points) == want


def test_enumeration_refuses_duplicate_point_names(monkeypatch):
    monkeypatch.setattr(sp, "_preorder_rows", _never)
    with pytest.raises(NotATopology, match="^points must be unique names$"):
        sp.enumerate_topologies(["a", "a"])
    with pytest.raises(NotAPreorder, match="^points must be unique names$"):
        sp.enumerate_preorders(["a", "b", "a"])


def test_enumerate_topologies_refuses_seven_points_before_the_last_step(monkeypatch):
    """The 209,527 preorders on six points extend by a seventh at
    `upsets_cost`(209527, 6, 1) + 209527·4^6 cell operations: refused after
    the six up-set tests of the steps before, on 7 points as on 40."""
    calls = []
    upsets = sp._upsets
    monkeypatch.setattr(sp, "_upsets", lambda *args: calls.append(args) or upsets(*args))
    for what, enumerate_, m in (("topologies", sp.enumerate_topologies, 7),
                                ("preorders", sp.enumerate_preorders, 7),
                                ("topologies", sp.enumerate_topologies, 40)):
        calls.clear()
        with pytest.raises(SizeLimit, match="^enumerating %s on %d points costs 938680960 "
                                            "cell operations" % (what, m)):
            enumerate_(["p%d" % i for i in range(m)])
        assert len(calls) == 6


def test_enumerate_preorders_charges_its_frozensets(monkeypatch):
    """An iteration per pair of points of each preorder: 6,942 x 25 on five
    points fit the budget, 209,527 x 36 on six do not, refused before any
    frozenset is built."""
    assert sp.loop_cost(6942 * 25) == 11107200 <= sp.WORK_BUDGET
    monkeypatch.setattr(sp, "frozenset", _never, raising=False)
    with pytest.raises(SizeLimit, match="^enumerating preorders on 6 points costs 482750208 "
                                        "cell operations"):
        sp.enumerate_preorders("abcdef")


# -- preorder dictionary ----------------------------------------------------------


def test_preorder_round_trips(bool2):
    pts = ["a", "b", "c"]
    identity = {(p, p) for p in pts}
    total = {(p, q) for p in pts for q in pts}
    chain = identity | {("a", "b"), ("b", "c"), ("a", "c")}
    for rel in (identity, total, chain):
        X = sp.preorder_dictionary(pts, rel)
        assert sp.space_to_preorder(X) == rel
    X = sp.preorder_dictionary(pts, identity)
    assert all(X.d(i, j) == (bool2.bottom if i == j else bool2.top)
               for i in range(3) for j in range(3))
    Y = sp.preorder_dictionary(pts, total)
    assert all(Y.d(i, j) == 0 for i in range(3) for j in range(3))


def test_preorder_errors():
    with pytest.raises(NotAPreorder):
        sp.preorder_dictionary(["a", "b"], {("a", "a")})
    with pytest.raises(NotAPreorder):
        sp.preorder_dictionary(["a", "b", "c"],
                               {("a", "a"), ("b", "b"), ("c", "c"),
                                ("a", "b"), ("b", "c")})


def test_preorder_dictionary_is_bijective_on_three_points(bool2):
    pts = ["a", "b", "c"]
    relations = []
    for mask in range(1 << 6):
        rel = {(p, p) for p in pts}
        off = [(a, b) for a in pts for b in pts if a != b]
        rel |= {off[i] for i in range(6) if mask >> i & 1}
        try:
            X = sp.preorder_dictionary(pts, rel)
        except NotAPreorder:
            continue
        assert sp.space_to_preorder(X) == rel
        relations.append(frozenset(rel))
    assert len(relations) == len(set(relations)) == 29  # preorders on 3 points


def test_product_of_two_preorder_dictionaries_is_the_product_preorder():
    """Every preorder dictionary is over the one shared bool2, so two of them
    multiply, and the product's relation is the componentwise one."""
    chain = {("a", "a"), ("b", "b"), ("a", "b")}
    discrete = {("x", "x"), ("y", "y")}
    X = sp.preorder_dictionary("ab", chain)
    Y = sp.preorder_dictionary("xy", discrete)
    assert X.V is Y.V is cq.builtin("bool2")
    XY = sp.product_space(X, Y)
    assert sp.space_to_preorder(XY) == {("%s|%s" % (p, q), "%s|%s" % (r, s))
                                        for p, r in chain for q, s in discrete}
