"""Property tests: the three evaluators agree on random structures,
printing then parsing a formula gives it back, a one-factor D-product is
its factor, D-product distances and predicates are the pointwise
D-ultralimits and its functions act componentwise, written
structures load back, and the triangle check on twin representatives gives
the verdict of the full check.

Structures are built valid by construction. A symmetric space takes the
predicate P(x) = d(a, x) + e, which the identity modulus admits because
d(a, x) ∸ d(a, y) ≤ d(y, x); an asymmetric space takes a constant P. The
function f is the identity or a constant map, and c is any point.
"""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import ultraproduct as up
from cqlogic.errors import TransitivityViolation
from cqlogic.freelocale import FreeLocale
from cqlogic.textio import Workspace, write_structure

from conftest import metric_closure

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
        pvals = [vq.plus(dist[a][x], shift) for x in range(m)]
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


@pytest.mark.parametrize("spec", CARRIERS)
@given(data=st.data())
def test_written_structure_loads_back_to_the_same_tables(spec, data):
    vq = cq.builtin(spec)
    struct = one_structure(data, vq)
    ws = Workspace()
    ws.register("coquantales", vq.name, vq)   # the header names the carrier
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
    elements = st.sampled_from(list(V.carrier()))
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
    V = FreeLocale(("a", "b")) if spec == "symbolic:2" else cq.builtin(spec)
    dist = data.draw(twinned_tables(V))
    m = len(dist)
    points = ["p%d" % i for i in range(m)]
    table = np.empty((m, m), dtype=object if spec == "symbolic:2" else np.int32)
    for x, y in product(range(m), repeat=2):
        table[x, y] = dist[x][y]
    x, y, z = sp._triangle_witness(V, table[None])[0]
    expected = None if x < 0 else ("d(%s,%s) > d(%s,%s) + d(%s,%s)"
                                   % tuple(points[i] for i in (x, y, x, z, z, y)))
    try:
        sp.validate_space(V, points, dist)
        got = None
    except TransitivityViolation as exc:
        got = str(exc)
    assert got == expected
