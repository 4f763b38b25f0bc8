import random
from itertools import product

import numpy as np
import pytest
from hypothesis import settings

from cqlogic import coquantale as cq
from cqlogic import lattice as lat
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic.formulas import Signature, identity_modulus
from cqlogic.freelocale import PrincipalDownsets

# One deterministic hypothesis profile: the same examples on every run, no
# example database written into the checkout, no per-example deadline.
settings.register_profile("cqlogic", derandomize=True, database=None, deadline=None)
settings.load_profile("cqlogic")

# Builtin roster used by the law suites: every carrier small enough for
# exhaustive scans, plus the diamond as the canonical non-value example.
ROSTER_SPECS = ["bool2", "chain:1", "chain:2", "chain:3", "chain:4", "chain:8",
                "lukasiewicz:1", "lukasiewicz:4", "lukasiewicz:8",
                "freelocale:0", "freelocale:1", "freelocale:2", "freelocale:3"]


@pytest.fixture(scope="session")
def roster():
    return {spec: cq.builtin(spec) for spec in ROSTER_SPECS}


@pytest.fixture(scope="session")
def bool2(roster):
    return roster["bool2"]


@pytest.fixture(scope="session")
def chain4(roster):
    return roster["chain:4"]


def diamond_lattice():
    # 0 < a,b < 1 with a,b incomparable
    order = np.array([
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1]], dtype=bool)
    return lat.validate_lattice(order, ["0", "a", "b", "1"])


@pytest.fixture(scope="session")
def diamond():
    return diamond_lattice()


@pytest.fixture(scope="session")
def diamond_join(diamond):
    # + := lattice join; a co-quantale whose lattice is not a value lattice
    return cq.validate_coquantale(diamond, diamond.join, name="diamond-join")


def jump_chain():
    """Chain 0..3 with a+b = top whenever both are positive: a validated
    value co-quantale that is not co-divisible (1 <= 2 has no difference)."""
    order = np.fromfunction(lambda i, j: i <= j, (4, 4), dtype=int)
    lattice = lat.validate_lattice(order, ["0", "1", "2", "3"])
    add = np.array([[0, 1, 2, 3],
                    [1, 3, 3, 3],
                    [2, 3, 3, 3],
                    [3, 3, 3, 3]], dtype=np.int32)
    return cq.validate_coquantale(lattice, add, name="jump-chain")


@pytest.fixture(scope="session")
def no_codiv():
    return jump_chain()


def join_chain3():
    """Chain 0..2 with + := join: a co-quantale with no dualizing element."""
    order = np.fromfunction(lambda i, j: i <= j, (3, 3), dtype=int)
    lattice = lat.validate_lattice(order, ["0", "1", "2"])
    return cq.validate_coquantale(lattice, lattice.join, name="join-chain3")


@pytest.fixture(scope="session")
def no_girard():
    return join_chain3()


@pytest.fixture(scope="session")
def sierpinski(bool2):
    # d(p,q) = 0, d(q,p) = 1
    return sp.validate_space(bool2, ["p", "q"], [[0, 0], [1, 0]])


# -- seeded corpora -----------------------------------------------------------


def lower_bound(vq, a, b):
    """The meet of a and b; the principal masks have no meets, and there
    ↓(S_a ∪ S_b) is a lower bound."""
    return a | b if isinstance(vq, PrincipalDownsets) else vq.meet_of([a, b])


def metric_closure(vq, dist):
    """Lower every entry of a nested-list table below its path sums until
    the triangle law holds (terminates: entries only descend)."""
    m = len(dist)
    changed = True
    while changed:
        changed = False
        for x in range(m):
            for y in range(m):
                for z in range(m):
                    bound = vq.add[dist[x][z], dist[z][y]]
                    if not vq.lattice.leq[dist[x][y], bound]:
                        dist[x][y] = lower_bound(vq, dist[x][y], bound)
                        changed = True
    return dist


def repaired_space(vq, points, rng):
    """A random distance table repaired to a valid space: start from random
    entries, zero the diagonal, then take the metric closure."""
    m = len(points)
    dist = [[vq.bottom if i == j else rng.randrange(vq.size) for j in range(m)]
            for i in range(m)]
    return sp.validate_space(vq, points, metric_closure(vq, dist))


def classes_by_loop(related):
    """The quotient's classes and canonical map by the per-point loop, the
    slow twin of `quotient_ultraproduct`'s: each point not yet placed opens
    the class of the points related to it."""
    classes, theta = [], [-1] * len(related)
    for i in range(len(related)):
        if theta[i] >= 0:
            continue
        cls = [int(j) for j in np.flatnonzero(related[i])]
        for j in cls:
            theta[j] = len(classes)
        classes.append(cls)
    return classes, theta


def space_corpus(vq, count, max_points, seed):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        m = rng.randint(1, max_points)
        points = ["p%d" % i for i in range(m)]
        out.append(repaired_space(vq, points, rng))
    return out


def unary_structure(vq, dist_rows, pred_values, name, points=None):
    """A structure with one unary predicate P under the identity modulus;
    the points are p0, p1, ... unless named."""
    points = points or ["p%d" % i for i in range(len(dist_rows))]
    space = sp.validate_space(vq, points, dist_rows)
    sig = Signature(predicates=[("P", 1, identity_modulus(vq))])
    return sem.validate_structure(space, sig, {"P": list(pred_values)}, name=name)


def structure_corpus(vq, count, max_points, seed):
    """Seeded modulus-compliant structures with one unary predicate."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        m = rng.randint(1, max_points)
        space = repaired_space(vq, ["p%d" % i for i in range(m)], rng)
        values = [rng.randrange(vq.size) for _ in range(m)]
        try:
            out.append(unary_structure(vq, space.dist, values,
                                       "S%d" % len(out)))
        except Exception:
            continue
    assert len(out) == count, "corpus generation starved"
    return out


def cauchy_verdicts(struct, sub):
    """The definitional twin of `LStructure.hypothesis` for the quantified
    formula ``sub``: at every assignment of its free variables, both
    discrete-Cauchy sums of its body's `eval_formula` values, folded with the
    scalar `join_of`, `meet_of` and `sub`, must be the bottom element."""
    sup_ok = inf_ok = True
    for point in product(range(struct.m), repeat=len(sub.window)):
        sigma = dict(zip(sub.window, point))
        sup, inf = cauchy_family_verdicts(struct.V, [
            sem.eval_formula(struct, sub.body, {**sigma, sub.var: x}) for x in range(struct.m)])
        sup_ok &= sup
        inf_ok &= inf
    return sup_ok, inf_ok


def cauchy_family_verdicts(V, fam):
    """Whether ⋀_k ⋁_l (f_l ∸ f_k) and ⋀_k ⋁_l (f_k ∸ f_l) of one value
    family are the bottom, by the scalar `join_of`, `meet_of` and ∸."""
    return (V.meet_of(V.join_of(V.tsub[fl, fk] for fl in fam) for fk in fam) == V.bottom,
            V.meet_of(V.join_of(V.tsub[fk, fl] for fl in fam) for fk in fam) == V.bottom)


def empty_limit_tables(monkeypatch, vq):
    """Start the D-limit tables that ``vq`` shares among its D-products
    (`ultraproduct.shared_limits`) empty; the ones held before come back
    when the test ends."""
    monkeypatch.setattr(vq, "_dlimits", {}, raising=False)
    return vq._dlimits
