"""Acceptance suite: one test per criterion, exact equalities only.

Each test prints a `ACCEPTANCE <n> <name>: PASS (<elapsed>)` line and
asserts its stated time budget. The heavy sweeps use batch operations (the
table evaluator over a stack of structures, the vectorized D-limit) whose
agreement with the definitional operations is itself asserted here or in
the unit suites.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import lattice as lat
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import ultraproduct as up
from conftest import diamond_lattice, space_corpus, unary_structure


@contextmanager
def criterion(number, name, budget):
    start = time.time()
    yield
    elapsed = time.time() - start
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (number, budget)
    print("\nACCEPTANCE %2d %-24s PASS (%.2fs, budget %ds)"
          % (number, name, elapsed, budget))


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_residuation_suite():
    carriers = (["bool2"] + ["chain:%d" % n for n in range(1, 9)]
                + ["lukasiewicz:%d" % n for n in range(1, 9)] + ["freelocale:2"])
    with criterion(1, "residuation suite", 10):
        for spec in carriers:
            vq = cq.builtin(spec)
            report = cq.check_residuation_laws(vq, exhaustive_subset_limit=9)
            assert report.all_pass, (spec, [r.law for r in report.results
                                            if not r.passed])
            assert all(r.mode == "exhaustive" for r in report.results), spec


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_cwb_oracle():
    lattices = [cq.builtin("bool2").lattice, diamond_lattice(),
                cq.builtin("freelocale:0").lattice, cq.builtin("freelocale:1").lattice]
    for n in range(1, 5):
        lattices.append(cq.builtin("chain:%d" % n).lattice)
        lattices.append(cq.builtin("lukasiewicz:%d" % n).lattice)
    with criterion(2, "co-well-below oracle", 5):
        for lattice in lattices:
            assert lattice.n <= 5
            for x in lattice.carrier():
                for y in lattice.carrier():
                    assert lattice.cwb[x, y] == \
                        lat.co_well_below_oracle(lattice, x, y)


# ---------------------------------------------------------------- criterion 3


BUILTINS = ["bool2", "chain:2", "chain:4", "chain:8", "lukasiewicz:2",
            "lukasiewicz:4", "lukasiewicz:8", "freelocale:0", "freelocale:1",
            "freelocale:2", "freelocale:3"]


def test_criterion_03_value_coquantale_laws():
    with criterion(3, "value co-quantale laws", 5):
        for spec in BUILTINS:
            vq = cq.builtin(spec)
            assert vq.value_flag, spec
            positives = vq.positives()
            for eps in positives:
                for n in (1, 2, 3, 4):
                    theta = cq.epsilon_n_divider(vq, eps, n)
                    total = theta
                    for _ in range(n - 1):
                        total = vq.plus(total, theta)
                    assert vq.cwb(total, eps) and vq.is_positive(theta)
            for p in vq.carrier():
                assert vq.meet_of(vq.plus(p, e) for e in positives) == p


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_structure_flags():
    with criterion(4, "structure flags", 5):
        for n in range(1, 9):
            chain = cq.builtin("chain:%d" % n)
            assert chain.co_divisible_flag and chain.dualizers == [chain.top]
            luk = cq.builtin("lukasiewicz:%d" % n)
            assert luk.co_divisible_flag and luk.dualizers == [luk.top]
        bool2 = cq.builtin("bool2")
        assert bool2.dualizers == [bool2.top]
        for spec in BUILTINS:
            vq = cq.builtin(spec)
            assert vq.safa_flag == vq.cwb(vq.bottom, vq.bottom), spec
        assert bool2.safa_flag
        assert cq.builtin("chain:8").safa_flag
        assert cq.builtin("lukasiewicz:8").safa_flag


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_topology_theorems():
    bool2 = cq.builtin("bool2")
    chain3 = cq.builtin("chain:3")
    with criterion(5, "topology theorems", 60):
        corpus = (space_corpus(bool2, 25, 5, seed=505)
                  + space_corpus(chain3, 25, 5, seed=506))
        assert len(corpus) == 50
        for space in corpus:
            report = sp.check_topology_theorems(space)
            assert report.all_pass, (space.points, report.lines())


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_flagg_round_trip():
    with criterion(6, "Flagg round trip", 60):
        for points in (["a"], ["a", "b"], ["a", "b", "c"]):
            for topo in sp.enumerate_topologies(points):
                auto = sp.space_from_topology(topo)
                assert sp.induced_topology(auto).opens == topo.opens
                symbolic = sp.space_from_topology(topo, materialize=False)
                assert sp.induced_topology(symbolic).opens == topo.opens
                if len(topo.opens) <= 4:
                    table = sp.space_from_topology(topo, materialize=True)
                    for i in range(len(points)):
                        for j in range(len(points)):
                            assert table.V.element_name(table.dist[i][j]) == \
                                symbolic.V.element_name(symbolic.dist[i][j])


# ---------------------------------------------------------------- criterion 7


def all_preorders(points):
    out = []
    off = [(a, b) for a in points for b in points if a != b]
    for mask in range(1 << len(off)):
        rel = {(p, p) for p in points}
        rel |= {off[i] for i in range(len(off)) if mask >> i & 1}
        if all((a, c) in rel for a, b in rel for b2, c in rel if b == b2):
            out.append(frozenset(rel))
    return out


def test_criterion_07_preorder_dictionary():
    bool2 = cq.builtin("bool2")
    with criterion(7, "preorder dictionary", 5):
        for size in range(1, 5):
            points = ["p%d" % i for i in range(size)]
            relations = all_preorders(points)
            spaces = set()
            for rel in relations:
                space = sp.preorder_dictionary(points, rel, bool2)
                assert sp.space_to_preorder(space) == set(rel)
                spaces.add(tuple(tuple(row) for row in space.dist))
            assert len(spaces) == len(relations)
            # and conversely: every valid two-valued table is a preorder
            count = 0
            off = [(i, j) for i in range(size) for j in range(size) if i != j]
            for mask in range(1 << len(off)):
                dist = [[0 if i == j else 1 for j in range(size)] for i in range(size)]
                for k, (i, j) in enumerate(off):
                    if mask >> k & 1:
                        dist[i][j] = 0
                try:
                    space = sp.validate_space(bool2, points, dist)
                except Exception:
                    continue
                count += 1
                rel = sp.space_to_preorder(space)
                rebuilt = sp.preorder_dictionary(points, rel, bool2)
                assert np.array_equal(rebuilt.dist, space.dist)
                assert frozenset(rel) in relations
            assert count == len(relations)


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_modulus_propagation():
    with criterion(8, "modulus propagation", 120):
        for spec, seed in (("bool2", 81), ("chain:4", 82)):
            vq = cq.builtin(spec)
            sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
            pool = sem.enumerate_formulas(sig, vq, 2, 2)
            moduli = [F.infer_modulus(phi, sig, vq) for phi in pool]
            corpus = _modulus_corpus(vq, sig, count=3, max_points=4, seed=seed)
            leq = vq.lattice.leq
            positives = vq.positives()
            for struct in corpus:
                m = struct.m
                dist = struct.dist
                dsym_pts = vq.lattice.join[dist, dist.T]
                tuple_dist = {0: np.zeros((1, 1), dtype=np.int32),
                              1: dsym_pts.astype(np.int32)}
                flat2 = np.stack(np.meshgrid(np.arange(m), np.arange(m),
                                             indexing="ij"), axis=0).reshape(2, -1)
                d2 = vq.lattice.join[dsym_pts[flat2[0][:, None], flat2[0][None, :]],
                                     dsym_pts[flat2[1][:, None], flat2[1][None, :]]]
                tuple_dist[2] = d2.astype(np.int32)
                evaluator = sem.TableEvaluator.of([struct], 2)   # one memo across the pool
                for phi, modulus in zip(pool, moduli):
                    window = tuple(sorted(F.free_vars(phi)))
                    vals = np.asarray(evaluator.table(phi, window),
                                      dtype=np.int32).reshape(-1)
                    out = vq.dsym[vals[:, None], vals[None, :]]
                    dom = tuple_dist[len(window)]
                    for eps in positives:
                        bad = leq[dom, modulus.delta(eps)] & ~leq[out, eps]
                        assert not bad.any(), (spec, F.print_formula(phi, vq), eps)


def _modulus_corpus(vq, sig, count, max_points, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, max_points)
        from conftest import repaired_space
        space = repaired_space(vq, ["p%d" % i for i in range(m)], rng)
        values = [rng.randrange(vq.size) for _ in range(m)]
        try:
            out.append(sem.validate_structure(space, sig, {"P": values},
                                              name="corpus%d" % len(out)))
        except Exception:
            continue
    return out


# ---------------------------------------------------------------- criterion 9


def _tarski_vaught_sweep(spec, sizes, rng):
    """Tarski-Vaught at depth ≤ 1 over two variables: every class of bodies
    on each of ``sizes`` points against each of its substructures, read
    from one batched evaluator per size. Seeded draws cross-check the batch
    against `eval_table` and `tarski_vaught_upto`, and the first 40 failures
    are confirmed as elementarity failures by `eval_formula`. Returns the
    number of (class, substructure) pairs checked."""
    vq = cq.builtin(spec)
    modulus = F.identity_modulus(vq)
    sig = F.Signature(predicates=[("P", 1, modulus)])
    pool = sem.enumerate_formulas(sig, vq, 1, 2)
    depths = np.array([F.formula_depth(phi) for phi in pool])
    var_free = {v: np.array([v in F.free_vars(phi) for phi in pool]) for v in (0, 1)}

    def pack(dist, P):
        # bodies come in lexicographic order, so their packed keys ascend
        cells = np.concatenate([dist.reshape(len(dist), -1), P], axis=1).astype(np.int64)
        return cells @ vq.size ** np.arange(cells.shape[1] - 1, -1, -1, dtype=np.int64)

    groups = {}
    for m in range(1, max(sizes) + 1):
        dist, P, canonical = sem.enumerate_bodies(vq, m, modulus)
        evaluator = sem.TableEvaluator(vq, 2, dist, {"P": P})
        groups[m] = {
            "dist": dist, "P": P, "eval": evaluator, "canonical": canonical,
            "keys": pack(dist, P),
            "inf": {var: np.stack([
                np.broadcast_to(evaluator(F.Inf(var, phi)), (len(dist), m, m)).take(0, axis=1 + var)
                for phi in pool]) for var in (0, 1)}}

    def body(m, s, name, points=None):
        return unary_structure(vq, groups[m]["dist"][s], groups[m]["P"][s], name, points)

    def same_infs(m, bodies, idx):
        """The substructure of each body on the points idx, and per variable
        [φ, body] whether both infs agree; a variable that is not free never
        designates the quantifier."""
        g, sub = groups[m], groups[len(idx)]
        keys = pack(g["dist"][bodies][:, idx][:, :, idx], g["P"][bodies][:, idx])
        subs = np.searchsorted(sub["keys"], keys)
        assert (sub["keys"][subs] == keys).all()
        return subs, [(sub["inf"][var][:, subs] == g["inf"][var][:, bodies][:, :, idx]).all(axis=2)
                      | ~var_free[var][:, None] for var in (0, 1)]

    # sample agreement between the batched evaluator and eval_table
    for _ in range(12):
        m = rng.randint(min(sizes), max(sizes))
        s = rng.randrange(len(groups[m]["dist"]))
        phi = pool[rng.randrange(len(pool))]
        reference = np.asarray(sem.eval_table(body(m, s, "sample"), phi, (0, 1)))
        assert (groups[m]["eval"].table(phi, (0, 1), s) == reference).all()

    confirmations = 0
    checked_pairs = 0
    for m in sizes:
        classes = groups[m]["canonical"]
        subsets = [[i for i in range(m) if mask >> i & 1] for mask in range(1, 1 << m)]
        sweeps = [same_infs(m, classes, idx) for idx in subsets]
        checked_pairs += len(classes) * len(subsets)
        fails = np.stack([~(same[0] & same[1]) for _, same in sweeps], axis=2)  # [φ, class, subset]
        # in the order of a scalar sweep: class, then subset, then depth
        for c, u in zip(*np.nonzero(fails.any(axis=0))):
            idx, (subs, same) = subsets[u], sweeps[u]
            for k in (0, 1):
                failing = np.flatnonzero((depths <= k) & fails[:, c, u])
                if failing.size and confirmations < 40:
                    # the inf-formula witnesses an elementarity failure at
                    # depth k+1
                    fidx = int(failing[0])
                    witness = F.Inf(0 if not same[0][fidx, c] else 1, pool[fidx])
                    sub_struct = body(len(idx), subs[c], "sub")
                    sup_struct = body(m, classes[c], "sup")
                    rest = sorted(F.free_vars(witness))
                    assigns = ([({rest[0]: a}, {rest[0]: idx[a]}) for a in range(len(idx))]
                               if rest else [({}, {})])
                    assert any(sem.eval_formula(sub_struct, witness, a)
                               != sem.eval_formula(sup_struct, witness, b)
                               for a, b in assigns), "TV failure without elementarity witness"
                    assert F.formula_depth(witness) <= k + 1
                    confirmations += 1
    assert checked_pairs > 0

    # cross-check the batch verdicts against the library operation
    for _ in range(8):
        m = rng.randint(max(2, min(sizes)), max(sizes))
        classes = groups[m]["canonical"]
        s = classes[rng.randrange(len(classes))]
        mask = rng.randrange(1, 1 << m)
        idx = [i for i in range(m) if mask >> i & 1]
        (t,), same = same_infs(m, [s], idx)
        verdict = sem.tarski_vaught_upto(body(len(idx), t, "sub", ["p%d" % i for i in idx]),
                                         body(m, s, "sup"), 1)
        assert verdict.passed == bool((same[0] & same[1])[depths <= 1].all())
    return checked_pairs


def test_criterion_09_tarski_vaught():
    rng = random.Random(99)
    with criterion(9, "Tarski-Vaught", 120):
        for spec in ("bool2", "chain:3"):
            _tarski_vaught_sweep(spec, (1, 2, 3), rng)


def test_tarski_vaught_over_every_class_on_four_points():
    """Criterion 9's sweep over the 93 classes of bool2 bodies on 4 points;
    it takes about 0.2 s on a 2-core host."""
    start = time.time()
    assert _tarski_vaught_sweep("bool2", (4,), random.Random(94)) == 93 * 15
    assert time.time() - start < 5


# ---------------------------------------------------------------- criterion 10


def _los_corpus(vq, sig):
    def build(name, dist, pvals):
        points = ["%s%d" % (name, i) for i in range(len(dist))]
        space = sp.validate_space(vq, points, dist)
        return sem.validate_structure(space, sig, {"P": pvals}, name=name)

    return [build("A", [[0, 1], [1, 0]], [0, 1]),
            build("B", [[0, 2, 1], [2, 0, 1], [1, 1, 0]], [0, 2, 1]),
            build("C", [[0, 2], [2, 0]], [4, 2])]


def test_criterion_10_los():
    vq = cq.builtin("chain:4")
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
    pool = sem.enumerate_formulas(sig, vq, 2, 1)
    rng = random.Random(1010)
    with criterion(10, "Łoś equality", 300):
        corpus = _los_corpus(vq, sig)
        # one evaluator per structure, each held across the whole pool
        corpus_evals = [sem.TableEvaluator.of([s], 1) for s in corpus]
        hypothesis_memo = {}
        hypothesis_records = 0
        checked = 0
        sample_triples = []
        for width in (1, 2, 3):
            for combo in itertools.product(range(len(corpus)), repeat=width):
                factors = [corpus[i] for i in combo]
                for gen in range(width):
                    D = up.PrincipalUltrafilter(width, gen)
                    dp = up.d_product_structure(factors, D)
                    total = dp.structure.m
                    coords = np.array(dp.tuples, dtype=np.int32)
                    product_eval = sem.TableEvaluator.of([dp.structure], 1)
                    for phi in pool:
                        window = tuple(sorted(F.free_vars(phi)))
                        left = np.asarray(product_eval.table(phi, window),
                                          dtype=np.int32).reshape(-1)
                        factor_tables = [
                            np.asarray(corpus_evals[i].table(phi, window),
                                       dtype=np.int32).reshape(-1)
                            for i in combo]
                        if window:
                            seqs = np.stack(
                                [factor_tables[i][coords[:, i]]
                                 for i in range(width)], axis=1)
                        else:
                            seqs = np.array([[int(t[0]) for t in factor_tables]])
                        right = up.dlim_batch(vq, seqs, D)
                        assert (left == right).all(), (
                            combo, gen, F.print_formula(phi, vq))
                        checked += left.size
                        for node in F.quantified_subformulas(phi):
                            for f in factors:
                                key = (f.name, node)
                                if key not in hypothesis_memo:
                                    hypothesis_memo[key] = \
                                        up.los_hypothesis_check(f, node)
                                assert hypothesis_memo[key] == (True, True)
                                hypothesis_records += 1
                        if rng.random() < 0.0015:
                            sample_triples.append((factors, D, phi))
        assert hypothesis_records > 0
        assert checked > 0
        assert sample_triples
        # dual route: the library's los_check recomputes both sides itself
        for factors, D, phi in sample_triples[:30]:
            dp = up.d_product_structure(factors, D)
            report = up.los_check(dp, phi)
            assert report.all_equal
            if F.quantified_subformulas(phi):
                assert report.hypothesis


def test_los_over_every_class_on_at_most_two_points():
    """Łoś on every class of chain:4 bodies on 1 and 2 points, as a
    one-factor product and beside one fixed 2-point body under both
    generators, over the depth-2 pool; it takes about 5 s on a 2-core host."""
    vq = cq.builtin("chain:4")
    modulus = F.identity_modulus(vq)
    pool = sem.enumerate_formulas(F.Signature(predicates=[("P", 1, modulus)]), vq, 2, 1)
    classes = []
    for m in (1, 2):
        dist, P, first = sem.enumerate_bodies(vq, m, modulus)
        classes += [unary_structure(vq, dist[s], P[s], "K%d.%d" % (m, s)) for s in first]
    assert len(classes) == 5 + 175
    fixed = unary_structure(vq, [[0, 2], [2, 0]], [1, 3], "fixed")
    start = time.time()
    products = entries = 0
    for body in classes:
        for factors, gens in (([body], (0,)), ([body, fixed], (0, 1))):
            for gen in gens:
                dp = up.d_product_structure(factors, up.PrincipalUltrafilter(len(factors), gen))
                reports = up.los_sweep(dp, pool)
                assert all(r.all_equal for r in reports), (body.name, len(factors), gen)
                assert all(h[2:] == (True, True) for r in reports for h in r.hypothesis)
                products += 1
                entries += sum(len(r.entries) for r in reports)
    assert products == 3 * 180
    assert entries > products * len(pool)
    assert time.time() - start < 15


# ---------------------------------------------------------------- criterion 11


def test_criterion_11_ultrapower_equivalence():
    with criterion(11, "ultrapower equivalence", 10):
        for spec in ("bool2", "chain:4", "lukasiewicz:4"):
            vq = cq.builtin(spec)
            for width in (1, 2, 3):
                for gen in range(width):
                    result = up.ultrapower_V(vq, up.PrincipalUltrafilter(width, gen))
                    assert result.bijective and result.inverse_ok
                    assert result.preserves_distance


# ---------------------------------------------------------------- criterion 12


def test_criterion_12_d_limit_laws():
    vq = cq.builtin("chain:4")
    n = vq.size
    with criterion(12, "D-limit laws", 30):
        for width in (1, 2, 3):
            seq_list = list(itertools.product(range(n), repeat=width))
            lim_lut = {}
            for gen in range(width):
                D = up.PrincipalUltrafilter(width, gen)
                lims = np.array([up.d_ultralimit(vq, list(s), D) for s in seq_list],
                                dtype=np.int32)
                lim_lut[gen] = lims
                large = [frozenset(i for i in range(width) if mask >> i & 1)
                         for mask in range(1 << width)
                         if D.contains([i for i in range(width) if mask >> i & 1])]
                for s, lim in zip(seq_list, lims):
                    lim = int(lim)
                    for b in range(n):
                        if any(all(b <= s[j] for j in A) for A in large):
                            assert b <= lim
                        if any(all(s[j] <= b for j in A) for A in large):
                            assert lim <= b
                        if lim <= b and vq.cwb(vq.bottom, vq.sub(b, lim)):
                            assert D.contains([j for j in range(width)
                                               if s[j] <= b])
            # quantifier inequalities over every function family I x S -> V
            weights = (n ** np.arange(width - 1, -1, -1)).astype(np.int64)
            for size in (1, 2, 3):
                shape = (n,) * (width * size)
                fam = np.indices(shape).reshape(width * size, -1).T.astype(np.int32)
                fam = fam.reshape(-1, width, size)
                for gen in range(width):
                    lims = lim_lut[gen]
                    per_x = np.stack(
                        [lims[fam[:, :, x] @ weights] for x in range(size)], axis=1)
                    meet_side = lims[fam.min(axis=2) @ weights]
                    join_side = lims[fam.max(axis=2) @ weights]
                    assert (meet_side <= per_x.min(axis=1)).all()
                    assert (per_x.max(axis=1) <= join_side).all()


# ---------------------------------------------------------------- criterion 13


def test_criterion_13_compactness_demo():
    vq = cq.builtin("chain:4")
    ident = F.identity_modulus(vq)
    sig = F.Signature(predicates=[("P", 1, ident), ("Q", 1, ident)])
    dist = [[0, 1], [1, 0]]

    def make(name, pvals, qvals):
        space = sp.validate_space(vq, [name + "0", name + "1"], dist)
        return sem.validate_structure(space, sig, {"P": pvals, "Q": qvals},
                                      name=name)

    with criterion(13, "compactness demo", 5):
        candidates = [make("A", [0, 0], [2, 2]), make("B", [2, 2], [0, 0]),
                      make("C", [0, 0], [0, 0])]
        e1 = sem.Condition(F.parse_formula("(sup x0 (P x0))", sig, vq))
        e2 = sem.Condition(F.parse_formula("(sup x0 (Q x0))", sig, vq))
        assert sem.satisfies(candidates[0], e1) and not sem.satisfies(candidates[0], e2)
        assert sem.satisfies(candidates[1], e2) and not sem.satisfies(candidates[1], e1)
        result = up.compactness_build([e1, e2], candidates)
        assert sem.models_theory(result.model.structure, [e1, e2])
        assert result.factor_names[result.generator] == "C"
