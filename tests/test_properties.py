"""Property tests: the three evaluators agree on random structures,
printing then parsing a formula gives it back, a one-factor D-product is
its factor, D-product distances and predicates are the pointwise
D-ultralimits and its functions act componentwise, a D-limit read through
the factor gather (the factors' tables broadcast by `_factor_axes`) is the
D-ultralimit of each w-tuple's factor values, a D-limit table shared by
products with different factors holds the D-ultralimit of every tuple it
was read at, written structures load back, the triangle check on twin
representatives gives the verdict of the full check, topologies on masks
agree with their frozenset twins, and enumerated topologies are the
preorders' up-sets.

Structures are built valid by construction. A symmetric space takes the
predicate P(x) = d(a, x) + e, which the identity modulus admits because
d(a, x) ∸ d(a, y) ≤ d(y, x); an asymmetric space takes a constant P. The
function f is the identity or a constant map, and c is any point.
"""

from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import ultraproduct as up
from cqlogic.errors import NotATopology, TransitivityViolation
from cqlogic.freelocale import FreeLocale
from cqlogic.textio import Workspace, write_structure

from conftest import empty_limit_tables, metric_closure

CARRIERS = ["chain:4", "lukasiewicz:4", "freelocale:2"]
VARS = 3
MAX_POINTS = 3


@lru_cache(maxsize=None)
def signature(vq):
    ident = F.identity_modulus(vq)
    return F.Signature(predicates=[("P", 1, ident)], functions=[("f", 1, ident)],
                       constants=["c"])


@st.composite
def structures(draw, vq, sig, m, name):
    element = st.integers(0, vq.size - 1)
    point = st.integers(0, m - 1)
    symmetric = draw(st.booleans())
    dist = [[vq.bottom] * m for _ in range(m)]
    for x, y in product(range(m), repeat=2):
        if x < y or (x > y and not symmetric):
            dist[x][y] = draw(element)
        if x > y and symmetric:
            dist[x][y] = dist[y][x]
    dist = metric_closure(vq, dist)
    shift = draw(element)
    if symmetric:
        a = draw(point)
        pvals = [vq.add[dist[a][x], shift] for x in range(m)]
    else:
        pvals = [shift] * m
    image = draw(st.one_of(st.just(list(range(m))), point.map(lambda b: [b] * m)))
    space = sp.validate_space(vq, ["p%d" % i for i in range(m)], dist)
    return sem.validate_structure(space, sig, {"P": pvals}, {"f": image},
                                  {"c": draw(point)}, name=name)


@st.composite
def stacks(draw, vq, sig):
    """One to three structures on the same number of points."""
    m = draw(st.integers(1, MAX_POINTS))
    count = draw(st.integers(1, 3))
    return [draw(structures(vq, sig, m, "S%d" % i)) for i in range(count)]


@lru_cache(maxsize=None)
def formulas(vq):
    """Random formulas over the signature, the default kit and x0..x2; one
    strategy object per carrier, so hypothesis validates it once."""
    kit = list(F.default_kit(vq).values())
    var = st.integers(0, VARS - 1)
    terms = st.recursive(st.one_of(var.map(F.Var), st.just(F.Const("c"))),
                         lambda inner: inner.map(lambda t: F.App("f", (t,))),
                         max_leaves=3)
    atoms = st.one_of(st.builds(F.DistAtom, terms, terms),
                      terms.map(lambda t: F.PredAtom("P", (t,))),
                      st.integers(0, vq.size - 1).map(F.Val))

    def extend(inner):
        conns = st.sampled_from(kit).flatmap(
            lambda c: st.tuples(*[inner] * c.arity).map(lambda args: F.Conn(c, args)))
        return st.one_of(conns, st.builds(F.Sup, var, inner), st.builds(F.Inf, var, inner))

    return st.recursive(atoms, extend, max_leaves=6)


@pytest.mark.parametrize("spec", CARRIERS)
@given(data=st.data())
def test_eval_formula_eval_table_and_batched_evaluator_agree(spec, data):
    vq = cq.builtin(spec)
    sig = signature(vq)
    structs = data.draw(stacks(vq, sig))
    phi = data.draw(formulas(vq))
    window = tuple(sorted(F.free_vars(phi)))
    batch = sem.TableEvaluator.of(structs, F.var_span(phi))
    for b, struct in enumerate(structs):
        table = np.asarray(sem.eval_table(struct, phi, window))
        assert (batch.table(phi, window, b) == table).all()
        for combo in product(range(struct.m), repeat=len(window)):
            assert int(table[combo]) == \
                sem.eval_formula(struct, phi, dict(zip(window, combo)))


@pytest.mark.parametrize("spec", CARRIERS)
@given(data=st.data())
def test_print_then_parse_gives_the_formula_back(spec, data):
    vq = cq.builtin(spec)
    phi = data.draw(formulas(vq))
    assert F.parse_formula(F.print_formula(phi, vq), signature(vq), vq) == phi


def one_structure(data, vq, name="S"):
    m = data.draw(st.integers(1, MAX_POINTS))
    return data.draw(structures(vq, signature(vq), m, name))


def assert_same_tables(left, right):
    assert left.points == right.points
    assert np.array_equal(left.dist, right.dist)
    for kind in ("pred_tables", "fun_tables"):
        mine, theirs = getattr(left, kind), getattr(right, kind)
        assert mine.keys() == theirs.keys()
        assert all(np.array_equal(mine[k], theirs[k]) for k in mine)
    assert left.const_points == right.const_points


@pytest.mark.parametrize("spec", CARRIERS)
@given(data=st.data())
def test_one_factor_d_product_is_isomorphic_to_its_factor(spec, data):
    """The map i ↦ (i,) carries every table of the factor onto the product's."""
    vq = cq.builtin(spec)
    factor = one_structure(data, vq)
    dp = up.d_product_structure([factor], up.PrincipalUltrafilter(1, 0))
    assert dp.tuples == [(i,) for i in range(factor.m)]
    assert_same_tables(dp.structure, factor)


@pytest.mark.parametrize("spec", CARRIERS)
@settings(max_examples=40)
@given(data=st.data())
def test_d_product_distances_are_pointwise_ultralimits(spec, data):
    """Distances and predicates of a D-product are the scalar D-ultralimits
    of the factor values at the coordinates, functions act componentwise and
    constants are constant tuples, in the space and in the structure."""
    vq = cq.builtin(spec)
    width = data.draw(st.integers(2, 3))
    factors = [one_structure(data, vq, "F%d" % i) for i in range(width)]
    D = up.PrincipalUltrafilter(width, data.draw(st.integers(0, width - 1)))
    product_space = up.d_product_space([f.space for f in factors], D)
    dp = up.d_product_structure(factors, D)
    assert dp.tuples == product_space.tuples
    assert np.array_equal(dp.structure.dist, product_space.dist)
    for x, xs in enumerate(product_space.tuples):
        for y, ys in enumerate(product_space.tuples):
            seq = [f.space.d(a, b) for f, a, b in zip(factors, xs, ys)]
            assert product_space.d(x, y) == up.d_ultralimit(vq, seq, D)
        seq = [f.pred_tables["P"][a] for f, a in zip(factors, xs)]
        assert dp.structure.pred_tables["P"][x] == up.d_ultralimit(vq, seq, D)
        image = dp.tuples[dp.structure.fun_tables["f"][x]]
        assert image == tuple(int(f.fun_tables["f"][a]) for f, a in zip(factors, xs))
    assert dp.tuples[dp.structure.const_points["c"]] == tuple(
        f.const_points["c"] for f in factors)


@pytest.mark.parametrize("spec", ["chain:4", "bool2"])
@pytest.mark.parametrize("row_path", [False, True])
@given(data=st.data())
def test_d_limits_read_through_the_factor_gather_are_the_definitional_limits(
        spec, row_path, data):
    """Random w-axis tables on I = 1..4 factors of 1 to 3 points each,
    broadcast by `_factor_axes` and read through a `DLimits`: entry r is
    d_ultralimit of the factor values at the r-th w-tuple of product points,
    the factor tuples in row-major order, with the table kept and without
    it (CELL_BUDGET below nᴵ); a kept table holds exactly the codes read."""
    vq = cq.builtin(spec)
    count = data.draw(st.integers(1, 4))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    w = data.draw(st.integers(0, 2))
    D = up.PrincipalUltrafilter(count, data.draw(st.integers(0, count - 1)))
    tables = [np.array(data.draw(st.lists(st.integers(0, vq.size - 1),
                                          min_size=m ** w, max_size=m ** w)),
                       dtype=np.int32).reshape((m,) * w) for m in sizes]
    seqs = [tuple(int(t[tuple(p[i] for p in combo)]) for i, t in enumerate(tables))
            for combo in product(product(*map(range, sizes)), repeat=w)]
    want = {seq: up.d_ultralimit(vq, seq, D) for seq in set(seqs)}
    with pytest.MonkeyPatch.context() as patch:
        if row_path:
            patch.setattr(sp, "CELL_BUDGET", vq.size ** count - 1)
        limits = up.DLimits(vq, D)
        assert (limits.table is None) == row_path
        got = limits(up._factor_axes(tables, sizes, w))
    assert got.reshape(-1).tolist() == [want[seq] for seq in seqs]
    if not row_path:
        radix = vq.size ** np.arange(count - 1, -1, -1)
        assert set(np.flatnonzero(limits.table >= 0).tolist()) == {
            int(radix @ seq) for seq in seqs}


@pytest.mark.parametrize("spec", CARRIERS)
@settings(max_examples=30)
@given(data=st.data())
def test_a_shared_d_limit_table_is_the_definitional_limit_row_by_row(spec, data):
    """Two or three D-products on one D, each with its own random factors
    and a random formula checked on it, fill one shared `DLimits` table:
    every product holds that table, its ``unseen`` counts its -1 entries,
    and each filled entry is d_ultralimit of its decoded tuple."""
    vq = cq.builtin(spec)
    width = data.draw(st.integers(2, 3))
    D = up.PrincipalUltrafilter(width, data.draw(st.integers(0, width - 1)))
    with pytest.MonkeyPatch.context() as patch:
        tables = empty_limit_tables(patch, vq)
        products = []
        for _ in range(data.draw(st.integers(2, 3))):
            dp = up.d_product_structure(
                [one_structure(data, vq, "F%d" % i) for i in range(width)], D)
            assert up.los_check(dp, data.draw(formulas(vq))).all_equal
            products.append(dp)
    shared = tables[width, D.generator]
    assert all(dp.limits is shared for dp in products)
    filled = np.flatnonzero(shared.table >= 0)
    assert shared.unseen == shared.table.size - len(filled)
    for code in filled.tolist():
        digits = [int(d) for d in np.unravel_index(code, shared.shape)]
        assert shared.table[code] == up.d_ultralimit(vq, digits, D)


@pytest.mark.parametrize("spec", CARRIERS)
@given(data=st.data())
def test_written_structure_loads_back_to_the_same_tables(spec, data):
    vq = cq.builtin(spec)
    struct = one_structure(data, vq)
    ws = Workspace()
    ws.load_text(write_structure(struct))
    loaded = ws.structure(struct.name)
    assert loaded.sig == struct.sig
    assert_same_tables(loaded, struct)


@st.composite
def twinned_tables(draw, V):
    """A random table on up to four base points, each base point copied into
    twins and the copies shuffled. Half the base tables are repaired to the
    triangle law; one cell of the result may then be changed, which splits a
    twin class."""
    elements = st.sampled_from(range(V.size))
    k = draw(st.integers(1, 4))
    base = [[V.bottom if x == y else draw(elements) for y in range(k)] for x in range(k)]
    if draw(st.booleans()):
        base = metric_closure(V, base)
    copies = draw(st.permutations(list(range(k)) + draw(st.lists(st.integers(0, k - 1),
                                                                 max_size=4))))
    dist = [[base[a][b] for b in copies] for a in copies]
    if len(copies) > 1 and draw(st.booleans()):
        x, y = draw(st.permutations(range(len(copies))))[:2]
        dist[x][y] = draw(elements)
    return dist


@pytest.mark.parametrize("spec", ["chain:4", "freelocale:2", "symbolic:2"])
@given(data=st.data())
def test_twin_reduced_triangle_check_matches_the_full_kernel(spec, data):
    V = FreeLocale(("a", "b")).principals() if spec == "symbolic:2" else cq.builtin(spec)
    dist = data.draw(twinned_tables(V))
    m = len(dist)
    points = ["p%d" % i for i in range(m)]
    table = np.array(dist, dtype=V.dtype)
    x, y, z = sp._triangle_witness(V, table[None])[0]
    expected = None if x < 0 else ("d(%s,%s) > d(%s,%s) + d(%s,%s)"
                                   % tuple(points[i] for i in (x, y, x, z, z, y)))
    try:
        sp.validate_space(V, points, dist)
        got = None
    except TransitivityViolation as exc:
        got = str(exc)
    assert got == expected


# -- topologies ---------------------------------------------------------------------


def frozenset_topology(points, opens):
    """The slow twin of `validate_topology`: the axioms on frozensets of
    point names, every ordered pair of opens tested for ∩ and ∪."""
    full = frozenset(str(p) for p in points)
    opens = frozenset(frozenset(u) for u in opens)
    if not all(u <= full for u in opens):
        raise NotATopology("an open set is not a subset of the points")
    if frozenset() not in opens or full not in opens:
        raise NotATopology("must contain the empty set and the full set")
    for u in opens:
        for w in opens:
            if u & w not in opens or u | w not in opens:
                raise NotATopology("not closed under intersection or union")
    return opens


@st.composite
def families(draw):
    """Distinct point names in any order, and a family of subsets of them:
    maybe with ∅, the full set or a name that is no point, and maybe closed
    under ∪ and ∩."""
    m = draw(st.integers(0, 5))
    points = draw(st.permutations("abcdefgh"))[:m]
    masks = set(draw(st.lists(st.integers(0, (1 << m) - 1), max_size=10)))
    masks |= {0} if draw(st.booleans()) else set()
    masks |= {(1 << m) - 1} if draw(st.booleans()) else set()
    if draw(st.booleans()):
        closed = None
        while closed != masks:
            closed, masks = masks, masks | {f(u, w) for u in masks for w in masks
                                            for f in (int.__or__, int.__and__)}
    opens = [{p for x, p in enumerate(points) if u >> x & 1} for u in masks]
    if opens and draw(st.booleans()):
        opens[draw(st.integers(0, len(opens) - 1))].add("z")
    return points, opens


@settings(max_examples=300)
@given(family=families())
def test_validate_topology_accepts_what_the_frozenset_twin_accepts(family):
    """The same verdict as the twin on every family; an accepted topology
    gives back its frozenset view, reads back from it as itself, and orders
    its opens as the free-locale names always were: by size, then by
    sorted names."""
    points, opens = family
    try:
        want = frozenset_topology(points, opens)
    except NotATopology:
        with pytest.raises(NotATopology):
            sp.validate_topology(points, opens)
        return
    topo = sp.validate_topology(points, opens)
    assert topo.points == tuple(points) and topo.opens == want
    assert sp.validate_topology(topo.points, topo.opens) == topo
    assert sp.sorted_opens(topo) == sorted(want, key=lambda u: (len(u), sorted(u)))


@pytest.mark.parametrize("m", range(6))
def test_enumerated_topologies_are_the_up_sets_of_the_preorders_in_order(m):
    """Each preorder's up-set topology, built from frozensets over the
    subsets in `combinations` order, sorted by the mask whose bit i says
    that the i-th subset is open: the same topologies in the same order.
    The names are not in sorted order, so the order is the points' own."""
    points = "dbeca"[:m]
    subsets = [frozenset(c) for k in range(m + 1) for c in combinations(points, k)]
    want = []
    for relation in sp.enumerate_preorders(points):
        up = {a: frozenset(b for c, b in relation if c == a) for a in points}
        bits = [all(up[a] <= s for a in s) for s in subsets]
        want.append((sum(1 << i for i, b in enumerate(bits) if b),
                     frozenset(s for s, b in zip(subsets, bits) if b)))
    got = sp.enumerate_topologies(points)
    assert [t.points for t in got] == [tuple(points)] * len(want)
    assert [t.opens for t in got] == [opens for _, opens in sorted(want, key=lambda p: p[0])]
