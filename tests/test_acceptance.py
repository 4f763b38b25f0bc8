"""Acceptance suite: one test per criterion, exact equalities only.

Each test prints a `ACCEPTANCE <n> <name>: PASS (<elapsed>)` line and
asserts its stated time budget. The heavy sweeps run the library's batch
operations: `tarski_vaught_bodies` for Tarski-Vaught, `los_sweep` for Łoś
and `modulus_witness` for modulus propagation. Their agreement with the
definitional operations (`eval_formula`, `d_ultralimit`, the single-pair
`tarski_vaught_upto`) is asserted here on seeded samples or in the unit
suites.
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
from conftest import cauchy_verdicts, diamond_lattice, space_corpus, unary_structure


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
    """Each formula's table satisfies its inferred modulus, checked by the
    shared kernel `modulus_witness` over the symmetric tuple distance; a
    sentence has one tuple, so its check is vacuous and skipped."""
    with criterion(8, "modulus propagation", 120):
        for spec, seed in (("bool2", 81), ("chain:4", 82)):
            vq = cq.builtin(spec)
            sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
            pool = sem.enumerate_formulas(sig, vq, 2, 2)
            moduli = [F.infer_modulus(phi, sig, vq) for phi in pool]
            corpus = _modulus_corpus(vq, sig, count=3, max_points=4, seed=seed)
            for struct in corpus:
                dsym_pts = vq.lattice.join[struct.dist, struct.dist.T]
                evaluator = struct.evaluator(2)     # one memo across the pool
                for phi, modulus in zip(pool, moduli):
                    window = phi.window
                    if not window:
                        continue
                    vals = np.asarray(evaluator.table(phi, window), dtype=np.int32).reshape(-1)
                    assert F.modulus_witness(vq, "a formula", dsym_pts, len(window), vq.dsym,
                                             vals, modulus) is None, (spec, phi.text(vq))


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


def _tarski_vaught_by_infima(sub, sup, pool, depth):
    """`tarski_vaught_upto` from `eval_formula`: per formula φ and free
    variable x, the infima over both structures of φ's values at each
    parameter tuple from ``sub``, the tuples in row-major order."""
    vq, checked = sub.V, 0
    lift = [sup.space.index(p) for p in sub.points]
    for phi in pool:
        for x in phi.window:
            rest = [v for v in phi.window if v != x]
            combos = list(itertools.product(range(sub.m), repeat=len(rest)))
            checked += len(combos)
            for combo in combos:
                a, b = (vq.meet_of(sem.eval_formula(s, phi, {**dict(zip(rest, pts)), x: y})
                                   for y in range(s.m))
                        for s, pts in ((sub, combo), (sup, [lift[i] for i in combo])))
                if a != b:
                    return sem.Verdict(False, depth, checked, {
                        "formula": F.print_formula(phi, vq), "inf_var": "x%d" % x,
                        **{"x%d" % v: sub.points[i] for v, i in zip(rest, combo)},
                        "sub_inf": vq.element_name(a), "sup_inf": vq.element_name(b)})
    return sem.Verdict(True, depth, checked, None)


def _check_tarski_vaught_bodies(spec, m, rng, samples):
    """`tarski_vaught_bodies` at depth 1 over two variables on m points.
    For ``samples`` seeded (class, subset) pairs, rebuilt through
    `validate_structure`, the verdict equals `tarski_vaught_upto` and the
    `eval_formula` infima; the first 40 failures are confirmed as
    elementarity failures at depth 2 by `eval_formula`. Returns the verdicts."""
    vq = cq.builtin(spec)
    modulus = F.identity_modulus(vq)
    sig = F.Signature(predicates=[("P", 1, modulus)])
    dist, P, first = sem.enumerate_bodies(vq, m, modulus)
    verdicts = sem.tarski_vaught_bodies(vq, m, modulus, 1)
    subsets = (1 << m) - 1
    assert len(verdicts) == len(first) * subsets

    def pair(n):        # the (sub, sup) of verdict n
        s, idx = first[n // subsets], [i for i in range(m) if (n % subsets + 1) >> i & 1]
        return (unary_structure(vq, dist[s][np.ix_(idx, idx)], P[s][idx], "sub",
                                ["p%d" % i for i in idx]),
                unary_structure(vq, dist[s], P[s], "sup"))

    pool = sem.enumerate_formulas(sig, vq, 1, 2)
    for n in [rng.randrange(len(verdicts)) for _ in range(samples)]:
        sub, sup = pair(n)
        assert verdicts[n] == sem.tarski_vaught_upto(sub, sup, 1)
        assert verdicts[n] == _tarski_vaught_by_infima(sub, sup, pool, 1)
    for n in [n for n, v in enumerate(verdicts) if not v.passed][:40]:
        w = verdicts[n].witness
        node = F.Inf(int(w["inf_var"][1:]), F.parse_formula(w["formula"], sig, vq))
        values = [vq.element_name(sem.eval_formula(
            s, node, {v: s.space.index(w["x%d" % v]) for v in node.window})) for s in pair(n)]
        assert values == [w["sub_inf"], w["sup_inf"]] and values[0] != values[1]
        assert F.formula_depth(node) <= 2
    return verdicts


def test_criterion_09_tarski_vaught():
    rng = random.Random(99)
    with criterion(9, "Tarski-Vaught", 120):
        for spec in ("bool2", "chain:3"):
            for m in (1, 2, 3):
                _check_tarski_vaught_bodies(spec, m, rng, 4)


def test_tarski_vaught_over_every_class_on_four_points():
    """Criterion 9's sweep over the 93 classes of bool2 bodies on 4 points;
    it takes about 0.3 s on a 2-core host."""
    start = time.time()
    assert len(_check_tarski_vaught_bodies("bool2", 4, random.Random(94), 8)) == 93 * 15
    assert time.time() - start < 5


def test_tarski_vaught_over_every_class_of_chain4_on_three_points():
    """The sweep over the 32,028 classes of chain:4 bodies on 3 points,
    each against its 7 substructures; it takes about 4 s on a 2-core host."""
    start = time.time()
    assert len(_check_tarski_vaught_bodies("chain:4", 3, random.Random(43), 12)) == 32028 * 7
    assert time.time() - start < 12


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
    """Łoś over every factor list of widths 1-3 from the corpus and every
    generator, through `los_sweep`: every entry equal and every hypothesis
    verdict (True, True). A seeded sample of entries is recomputed from the
    definitions: `eval_formula` on the product, and the scalar
    `d_ultralimit` of the factors' `eval_formula` values, with the
    hypothesis from the scalar folds of `cauchy_verdicts`. With finitely many factors every
    ultrafilter is principal, so the sweep tests the construction code and
    not the theorem's hypotheses."""
    vq = cq.builtin("chain:4")
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
    pool = sem.enumerate_formulas(sig, vq, 2, 1)
    rng = random.Random(1010)
    with criterion(10, "Łoś equality", 300):
        corpus = _los_corpus(vq, sig)
        hypothesis_records = 0
        checked = 0
        sample = []
        for width in (1, 2, 3):
            for combo in itertools.product(range(len(corpus)), repeat=width):
                factors = [corpus[i] for i in combo]
                for gen in range(width):
                    dp = up.d_product_structure(factors, up.PrincipalUltrafilter(width, gen))
                    for phi, report in zip(pool, up.los_sweep(dp, pool)):
                        assert report.all_equal, (combo, gen, report.formula)
                        assert all(h[2:] == (True, True) for h in report.hypothesis)
                        checked += report.left.size
                        hypothesis_records += len(report.hypothesis)
                        if rng.random() < 0.0015:
                            sample.append((dp, phi, report))
        assert hypothesis_records > 0
        assert checked > 0
        assert sample
        for dp, phi, report in sample[:30]:
            product = dp.structure
            for entry in report.entries:
                point = [product.space.index(p) for p in entry.assignment]
                assert entry.left == sem.eval_formula(product, phi, dict(zip(phi.window, point)))
                assert entry.right == up.d_ultralimit(vq, [sem.eval_formula(
                    f, phi, {v: dp.tuples[p][i] for v, p in zip(phi.window, point)})
                    for i, f in enumerate(dp.factors)], dp.D)
            assert [h[2:] for h in report.hypothesis] == [
                cauchy_verdicts(f, node) for node in phi.quantified for f in dp.factors]


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
                entries += sum(r.left.size for r in reports)
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
