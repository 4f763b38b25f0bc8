"""The table evaluator on Birkhoff masks against its int32 twin
(`int32_twin.Int32Evaluator`) and the definitional `eval_formula`, on every
builtin carrier, the file-defined D4 over L4, a 71-element chain (past 64
join-irreducibles, so its masks are Python ints) and a seeded sample of
`enumerate_bodies` classes; the encoding's round trip and lattice laws; and
a formula pool's stacked run against the run one node at a time."""

import functools
import random
from itertools import product
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import lattice as lat
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic.textio import Workspace
from int32_twin import Int32Evaluator

BUILTINS = (["bool2"] + ["chain:%d" % n for n in range(1, 65)]
            + ["lukasiewicz:%d" % n for n in range(1, 65)]
            + ["freelocale:%d" % k for k in range(4)])


def chain71():
    """The chain 0 < 1 < ... < 70 with truncated addition: 70
    join-irreducibles, past the 64 bits of the widest integer mask."""
    order = np.fromfunction(lambda i, j: i <= j, (71, 71), dtype=int)
    lattice = lat.validate_lattice(order, [str(i) for i in range(71)])
    add = np.minimum(np.add.outer(np.arange(71), np.arange(71)), 70)
    return cq.validate_coquantale(lattice, add, name="chain71")


def d4():
    """The file-defined D4 over the four-element Boolean lattice L4 (a
    distributive carrier that is not a value co-quantale)."""
    ws = Workspace()
    ws.load_text("@lattice L4\n@elements 0 a b 1\n@leq 0 a\n@leq 0 b\n@leq a 1\n@leq b 1\n\n"
                 "@coquantale D4 over L4\n@add a a a\n@add b b b\n@add a b 1\n@add a 1 1\n"
                 "@add b 1 1\n@add 1 1 1\n")
    return ws.coquantales["D4"]


@functools.lru_cache(maxsize=None)
def carrier(name):
    return {"chain71": chain71, "D4": d4}.get(name, lambda: cq.builtin(name))()


CARRIERS = BUILTINS + ["D4", "chain71"]


# -- the encoding ------------------------------------------------------------------


@settings(max_examples=400)
@given(name=st.sampled_from(CARRIERS), data=st.data())
def test_the_encoding_round_trips_and_sends_joins_and_meets_to_or_and_and(name, data):
    vq = carrier(name)
    code, lattice = lat.birkhoff(vq.lattice), vq.lattice
    a, b = (data.draw(st.integers(0, vq.size - 1)) for _ in range(2))
    enc = code.enc
    assert code.decode(enc[[a, b]]).tolist() == [a, b]
    assert enc[lattice.join[a, b]] == enc[a] | enc[b]
    assert enc[lattice.meet[a, b]] == enc[a] & enc[b]


@pytest.mark.parametrize("name, bits, dtype", [
    ("bool2", 1, np.uint8), ("chain:4", 4, np.uint8), ("chain:8", 8, np.uint8),
    ("chain:9", 9, np.uint16), ("chain:17", 17, np.uint32), ("chain:64", 64, np.uint64),
    ("freelocale:3", 8, np.uint8), ("D4", 2, np.uint8), ("chain71", 70, object)])
def test_masks_take_the_narrowest_unsigned_dtype_and_python_ints_past_64_bits(name, bits,
                                                                                dtype):
    code = lat.birkhoff(carrier(name).lattice)
    assert (code.bits, code.enc.dtype) == (bits, np.dtype(dtype))
    assert code.enc[carrier(name).bottom] == 0
    assert lat.birkhoff(carrier(name).lattice) is code      # one per lattice


def test_a_lattice_that_is_not_distributive_has_no_encoding(diamond):
    order = np.array([[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1],
                      [0, 0, 0, 0, 1]], dtype=bool)                 # M3
    with pytest.raises(lat.NotALattice, match="not distributive"):
        lat.birkhoff(lat.validate_lattice(order))
    assert lat.birkhoff(diamond).bits == 2


def test_a_connective_keeps_its_operation_on_masks_and_the_encoding_keeps_none():
    """Each connective keeps its own operation on masks; the encoding,
    shared by every carrier of its lattice, holds nothing per connective,
    so making connectives over it does not grow it."""
    vq = carrier("chain:4")
    code = lat.birkhoff(vq.lattice)
    before = dict(vars(code))
    conns = [F.Connective("tsub", 2, np.array(vq.tsub), None) for _ in range(3)]
    ops = [c.masked(code) for c in conns]
    assert all(c.masked(code) is op for c, op in zip(conns, ops))
    assert vars(code).keys() == before.keys()
    assert all(vars(code)[name] is value for name, value in before.items())
    got = ops[0](code.enc[[3, 4]], code.enc[[1, 1]])
    assert got.tolist() == code.enc[vq.tsub[[3, 4], 1]].tolist()
    assert F.Connective("vee", 2, vq.lattice.join, None).masked(code) is np.bitwise_or
    assert F.Connective("wedge", 2, vq.lattice.meet, None).masked(code) is np.bitwise_and


# -- the evaluator against its twins ---------------------------------------------------


def kit(vq):
    """Join and meet (``|`` and ``&`` on masks), and the addition, ∸ and
    each b∸□ (a decode, a gather and an encode), as unverified
    connectives: the evaluator reads only their tables."""
    conns = [F.Connective("vee", 2, vq.lattice.join, None),
             F.Connective("wedge", 2, vq.lattice.meet, None),
             F.Connective("oplus", 2, vq.add, None),
             F.Connective("tsub", 2, vq.tsub, None)]
    return conns + [F.Connective("dual:%d" % b, 1, vq.tsub[b], None) for b in vq.dualizers[:2]]


def random_formula(rng, vq, conns, depth):
    terms = [F.Var(0), F.Var(1), F.Const("c"), F.App("f", (F.Var(rng.randrange(2)),))]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            lambda: F.DistAtom(rng.choice(terms), rng.choice(terms)),
            lambda: F.PredAtom("P", (rng.choice(terms),)),
            lambda: F.PredAtom("R", (rng.choice(terms), rng.choice(terms))),
            lambda: F.Val(rng.randrange(vq.size))])()
    kind = rng.randrange(4)
    if kind < 2:
        c = rng.choice(conns)
        return F.Conn(c, tuple(random_formula(rng, vq, conns, depth - 1)
                               for _ in range(c.arity)))
    node = F.Sup if kind == 2 else F.Inf
    return node(rng.randrange(2), random_formula(rng, vq, conns, depth - 1))


def random_structures(rng, vq, count, m):
    """Structures with arbitrary tables: the evaluators read them without
    asking for the axioms, so none are checked."""
    out = []
    for _ in range(count):
        dist = np.array([[rng.randrange(vq.size) for _ in range(m)] for _ in range(m)],
                        dtype=np.int32)
        space = SimpleNamespace(V=vq, m=m, dist=dist, points=["p%d" % i for i in range(m)])
        preds = {"P": np.array([rng.randrange(vq.size) for _ in range(m)], dtype=np.int32),
                 "R": dist[::-1].copy()}
        funs = {"f": np.array([rng.randrange(m) for _ in range(m)], dtype=np.int32)}
        out.append(sem.LStructure(space, None, preds, funs, {"c": rng.randrange(m)}))
    return out


def assert_agree(structs, pool, k):
    mine, twin = sem.TableEvaluator.of(structs, k), Int32Evaluator.of(structs, k)
    for phi in pool:
        window = phi.window
        got = mine.members(phi, window)
        assert got.dtype == np.int32
        assert np.array_equal(got, twin.members(phi, window)), phi
        assert mine.masks(phi).dtype == mine.code.enc.dtype
        for b, struct in enumerate(structs):
            table = mine.table(phi, window, b)
            for combo in product(range(struct.m), repeat=len(window)):
                assignment = dict(zip(window, combo))
                assert int(table[combo]) == sem.eval_formula(struct, phi, assignment)


@pytest.mark.parametrize("name", CARRIERS)
def test_masks_agree_with_the_int32_twin_and_eval_formula(name):
    vq = carrier(name)
    rng = random.Random(name)
    conns = kit(vq)
    pool = [random_formula(rng, vq, conns, 3) for _ in range(20)]
    assert_agree(random_structures(rng, vq, 3, 3), pool, 2)


def test_masks_agree_on_a_seeded_sample_of_body_classes():
    """The depth-2 pool over two variables on 200 seeded classes of chain:3
    bodies on 3 points: every table equals the twin's, and 300 seeded
    (class, formula, assignment) triples equal `eval_formula`."""
    vq = cq.builtin("chain:3")
    modulus = F.identity_modulus(vq)
    sig = F.Signature(predicates=[("P", 1, modulus)])
    dist, P, first = sem.enumerate_bodies(vq, 3, modulus)
    rng = random.Random(3)
    sample = sorted(rng.sample(first.tolist(), 200))
    mine = sem.TableEvaluator(vq, 2, dist[sample], {"P": P[sample]})
    twin = Int32Evaluator(vq, 2, dist[sample], {"P": P[sample]})
    pool = sem.enumerate_formulas(sig, vq, 2, 2)
    for phi in pool:
        assert np.array_equal(mine.members(phi, phi.window), twin.members(phi, phi.window))
    for _ in range(300):
        b, phi = rng.randrange(len(sample)), rng.choice(pool)
        space = SimpleNamespace(V=vq, m=3, dist=dist[sample[b]], points=["p0", "p1", "p2"])
        struct = sem.LStructure(space, sig, {"P": P[sample[b]]}, {}, {})
        combo = [rng.randrange(3) for _ in phi.window]
        assert (mine.table(phi, phi.window, b)[tuple(combo)]
                == sem.eval_formula(struct, phi, dict(zip(phi.window, combo))))


# -- a pool's stacked run against the run one node at a time --------------------------


def stacked_cells(pool, evaluator):
    """The cells of the pool's stacked masks and element indices."""
    return 2 * len(pool.nodes) * evaluator.m ** pool.span * evaluator.batch


@pytest.mark.parametrize("name", ["bool2", "chain:3", "chain:4", "freelocale:2", "D4"])
@settings(max_examples=12)
@given(depth=st.integers(0, 2), variables=st.integers(0, 2), wider=st.booleans(),
       data=st.data())
def test_a_stacked_pool_run_equals_the_run_one_node_at_a_time(name, depth, variables, wider,
                                                               data):
    """On random structures (a batch of one or more), every node of a pool
    of depth at most 2 over at most 2 variables (and the constant c when
    there is none, so the pool is not empty) has the same masks and
    element indices, shape included, from the pool's stacked run as from
    an evaluator whose CELL_BUDGET refuses that run, and its table equals
    `eval_formula` on sampled assignments. The window may be one wider
    than the pool's span."""
    vq = carrier(name)
    m, batch = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    values, points = st.integers(0, vq.size - 1), st.integers(0, m - 1)
    dist = np.array(data.draw(st.lists(values, min_size=batch * m * m, max_size=batch * m * m)),
                    dtype=np.int32).reshape(batch, m, m)
    P = np.array(data.draw(st.lists(values, min_size=batch * m, max_size=batch * m)),
                 dtype=np.int32).reshape(batch, m)
    consts = np.array(data.draw(st.lists(points, min_size=batch, max_size=batch)))
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))],
                      constants=[] if variables else ["c"])
    formulas = sem.enumerate_formulas(sig, vq, depth, variables)
    pool = formulas[0]._pool[0]
    assert list(pool.nodes) == formulas
    assert all(phi._pool == (pool, row) for row, phi in enumerate(formulas))
    k = pool.span + wider

    def evaluator():
        return sem.TableEvaluator(vq, k, dist, {"P": P}, consts={"c": consts})

    stacked = evaluator()
    assert pool.admitted(m, batch)
    with mock.patch.object(sp, "CELL_BUDGET", 2 * stacked_cells(pool, stacked) - 1):
        alone = evaluator()
        tables = [(alone.masks(phi), alone.codes(phi)) for phi in formulas]
        assert id(pool) not in alone.memo
    for phi, (masks, codes) in zip(formulas, tables):
        got = stacked.masks(phi), stacked.codes(phi)
        assert id(pool) in stacked.memo
        for mine, theirs in zip(got, (masks, codes)):
            assert mine.shape == theirs.shape and np.array_equal(mine, theirs), phi
    structs = [sem.LStructure(SimpleNamespace(V=vq, m=m, dist=dist[b], points=list(range(m))),
                              sig, {"P": P[b]}, {}, {"c": int(consts[b])})
               for b in range(batch)]
    for _ in range(10):
        phi, b = data.draw(st.sampled_from(formulas)), data.draw(st.integers(0, batch - 1))
        combo = tuple(data.draw(points) for _ in phi.window)
        assert (stacked.table(phi, phi.window, b)[combo]
                == sem.eval_formula(structs[b], phi, dict(zip(phi.window, combo))))


def test_an_over_budget_pool_is_evaluated_one_node_at_a_time_with_equal_tables(monkeypatch):
    """The depth-2 two-variable chain:3 pool on 10 seeded classes of bodies
    on 3 points: within half of CELL_BUDGET the evaluator runs the pool
    once, evaluating only its atoms one node at a time, and holds the run
    as one memo entry; with the budget one cell short of that it evaluates
    every node alone and holds no run, and every table is the same."""
    vq = cq.builtin("chain:3")
    modulus = F.identity_modulus(vq)
    dist, P, first = sem.enumerate_bodies(vq, 3, modulus)
    sample = sorted(random.Random(8).sample(first.tolist(), 10))
    formulas = sem.enumerate_formulas(F.Signature(predicates=[("P", 1, modulus)]), vq, 2, 2)
    pool = formulas[0]._pool[0]
    atoms = pool.program()[0]
    assert [formulas[row] for row in atoms] == formulas[:6]
    nodes = []
    node = sem.TableEvaluator._node
    monkeypatch.setattr(sem.TableEvaluator, "_node",
                        lambda self, phi: nodes.append(phi) or node(self, phi))

    def run():
        evaluator = sem.TableEvaluator(vq, 2, dist[sample], {"P": P[sample]})
        del nodes[:]
        return evaluator, [evaluator.members(phi, phi.window) for phi in formulas]

    stacked, want = run()
    assert nodes == formulas[:6]
    assert list(stacked.memo) == [id(pool)]
    assert stacked.cells == stacked_cells(pool, stacked) <= sp.CELL_BUDGET // 2
    monkeypatch.setattr(sp, "CELL_BUDGET", 2 * stacked_cells(pool, stacked) - 1)
    alone, got = run()
    assert id(pool) not in alone.memo and len(nodes) == len(formulas)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
