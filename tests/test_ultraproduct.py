import dataclasses
from itertools import product

import numpy as np
import pytest

from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import ultraproduct as up
from cqlogic.errors import (NotCoDivisible, NotFinitelySatisfiable,
                            NotSymmetricFactors, SizeLimit)
from conftest import cauchy_verdicts


@pytest.fixture(scope="module")
def sig(chain4):
    return F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))],
                       constants=["c"])


@pytest.fixture(scope="module")
def factors(chain4, sig):
    def build(name, dist, pvals):
        space = sp.validate_space(chain4, ["%s%d" % (name, i) for i in range(len(dist))],
                                  dist)
        return sem.validate_structure(space, sig, {"P": pvals},
                                      const_points={"c": 0}, name=name)

    m1 = build("a", [[0, 2], [2, 0]], [0, 2])
    m2 = build("b", [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [1, 0, 1])
    return [m1, m2]


# -- ultrafilters -----------------------------------------------------------------


def test_principal_ultrafilters_satisfy_axioms():
    for size in range(1, 5):
        for gen in range(size):
            assert up.is_ultrafilter(up.PrincipalUltrafilter(size, gen), size)


def test_generator_must_be_in_range():
    with pytest.raises(ValueError):
        up.PrincipalUltrafilter(3, 3)


# -- D-limits ----------------------------------------------------------------------


def test_constant_sequence_limits_to_itself(chain4):
    D = up.PrincipalUltrafilter(3, 2)
    for a in chain4.carrier():
        assert up.d_ultralimit(chain4, [a, a, a], D) == a


def test_scan_limit_equals_principal_projection_exhaustively(chain4, bool2):
    """Permanent two-route check: the definitional candidate scan against
    the principal shortcut seq[j0], for every sequence and every principal
    ultrafilter on up to three indices."""
    for vq in (bool2, chain4):
        for width in (1, 2, 3):
            for seq in product(vq.carrier(), repeat=width):
                for gen in range(width):
                    D = up.PrincipalUltrafilter(width, gen)
                    assert up.d_ultralimit(vq, list(seq), D) == seq[gen]


def test_dlim_batch_matches_pointwise(chain4):
    seqs = np.array(list(product(chain4.carrier(), repeat=3)), dtype=np.int32)
    for gen in range(3):
        D = up.PrincipalUltrafilter(3, gen)
        batch = up.dlim_batch(chain4, seqs, D)
        for row, got in zip(seqs, batch):
            assert int(got) == up.d_ultralimit(chain4, list(row), D)


@pytest.mark.parametrize("budget", [7, 200])
def test_dlim_batch_blocks_agree_with_one_block(chain4, monkeypatch, budget):
    seqs = np.array(list(product(chain4.carrier(), repeat=3)), dtype=np.int32)
    for gen in range(3):
        D = up.PrincipalUltrafilter(3, gen)
        whole = up.dlim_batch(chain4, seqs, D)
        with monkeypatch.context() as patch:
            patch.setattr(sp, "CELL_BUDGET", budget)   # 1 and 2 rows per block
            assert np.array_equal(up.dlim_batch(chain4, seqs, D), whole)


@pytest.mark.parametrize("gen", [0, 63, 65])
def test_dlim_batch_matches_pointwise_past_64_factors(chain4, gen):
    rng = np.random.default_rng(70)
    seqs = rng.integers(0, chain4.size, size=(30, 70)).astype(np.int32)
    spike = np.zeros((1, 70), dtype=np.int32)
    spike[0, 65] = 3
    seqs = np.vstack([seqs, spike])
    D = up.PrincipalUltrafilter(70, gen)
    batch = up.dlim_batch(chain4, seqs, D)
    for row, got in zip(seqs, batch):
        assert int(got) == up.d_ultralimit(chain4, list(row), D)
    assert np.array_equal(batch, seqs[:, gen])


def test_product_of_70_factors_projects_to_generator(chain4):
    one = sp.validate_space(chain4, ["p"], [[0]])
    two = sp.validate_space(chain4, ["u", "v"], [[0, 3], [3, 0]])
    spaces = [one] * 65 + [two] + [one] * 4
    assert np.array_equal(up.d_product_space(spaces, up.PrincipalUltrafilter(70, 65)).dist,
                          two.dist)
    assert not up.d_product_space(spaces, up.PrincipalUltrafilter(70, 0)).dist.any()


def test_structure_of_70_factors_maps_functions_and_constants_componentwise(chain4):
    ident = F.identity_modulus(chain4)
    sig = F.Signature(functions=[("f", 1, ident)], constants=["c"])
    one = sem.validate_structure(sp.validate_space(chain4, ["p"], [[0]]), sig, {},
                                 {"f": [0]}, {"c": 0}, name="one")
    two = sem.validate_structure(sp.validate_space(chain4, ["u", "v"], [[0, 3], [3, 0]]), sig,
                                 {}, {"f": [1, 0]}, {"c": 1}, name="two")
    dp = up.d_product_structure([one] * 65 + [two] + [one] * 4, up.PrincipalUltrafilter(70, 0))
    assert [t[65] for t in dp.tuples] == [0, 1]
    assert dp.structure.fun_tables["f"].tolist() == [1, 0]
    assert dp.structure.const_points["c"] == 1


def test_limit_of_constant_distances(chain4):
    D = up.PrincipalUltrafilter(2, 0)
    for x in chain4.carrier():
        for y in chain4.carrier():
            d = chain4.sym_dist(x, y)
            assert up.d_ultralimit(chain4, [d, d], D) == d


# -- bounding laws ------------------------------------------------------------------


def all_principal(width):
    return [up.PrincipalUltrafilter(width, g) for g in range(width)]


def subsets_in(D, width):
    return [frozenset(i for i in range(width) if mask >> i & 1)
            for mask in range(1 << width)
            if D.contains([i for i in range(width) if mask >> i & 1])]


def test_bounding_d_limits(chain4):
    # lower/upper bounds on a D-large set transfer to the limit
    for width in (1, 2, 3):
        for D in all_principal(width):
            large = subsets_in(D, width)
            for seq in product(chain4.carrier(), repeat=width):
                lim = up.d_ultralimit(chain4, list(seq), D)
                for b in chain4.carrier():
                    if any(all(chain4.le(b, seq[j]) for j in A) for A in large):
                        assert chain4.le(b, lim)
                    if any(all(chain4.le(seq[j], b) for j in A) for A in large):
                        assert chain4.le(lim, b)


def test_strong_bound_on_co_divisible_carrier(chain4):
    assert chain4.co_divisible_flag
    for width in (1, 2, 3):
        for D in all_principal(width):
            for seq in product(chain4.carrier(), repeat=width):
                lim = up.d_ultralimit(chain4, list(seq), D)
                for b in chain4.carrier():
                    if chain4.le(lim, b) and chain4.cwb(chain4.bottom,
                                                        chain4.sub(b, lim)):
                        assert D.contains([j for j in range(width)
                                           if chain4.le(seq[j], b)])


def test_quantifier_inequalities_small_slice(chain4):
    width, size = 2, 2
    for D in all_principal(width):
        for table in product(chain4.carrier(), repeat=width * size):
            fam = np.array(table, dtype=np.int32).reshape(width, size)
            meet_lim = up.d_ultralimit(chain4, [int(min(fam[i])) for i in range(width)], D)
            join_lim = up.d_ultralimit(chain4, [int(max(fam[i])) for i in range(width)], D)
            pointwise = [up.d_ultralimit(chain4, [int(fam[i][x]) for i in range(width)], D)
                         for x in range(size)]
            assert chain4.le(meet_lim, min(pointwise))
            assert chain4.le(max(pointwise), join_lim)


# -- product spaces ------------------------------------------------------------------


def test_single_point_factors(chain4):
    one = sp.validate_space(chain4, ["p"], [[0]])
    D = up.PrincipalUltrafilter(3, 1)
    space = up.d_product_space([one, one, one], D)
    assert space.m == 1 and space.d(0, 0) == 0


def test_product_projects_to_generator(chain4, factors):
    for gen in (0, 1):
        D = up.PrincipalUltrafilter(2, gen)
        space = up.d_product_space([f.space for f in factors], D)
        for i, x in enumerate(space.tuples):
            for j, y in enumerate(space.tuples):
                assert space.d(i, j) == factors[gen].space.d(x[gen], y[gen])


def test_asymmetric_factors_still_validate(bool2, chain4):
    sier = sp.validate_space(bool2, ["p", "q"], [[0, 0], [1, 0]])
    D = up.PrincipalUltrafilter(2, 0)
    space = up.d_product_space([sier, sier], D)
    assert space.m == 4
    assert not sp.is_symmetric(space)


def test_product_size_cap(chain4):
    big = sp.validate_space(chain4, [str(i) for i in range(17)],
                            [[0 if i == j else 1 for j in range(17)]
                             for i in range(17)])
    D = up.PrincipalUltrafilter(3, 0)
    with pytest.raises(SizeLimit):
        up.d_product_space([big, big, big], D)


# -- quotients -------------------------------------------------------------------------


def test_quotient_requires_symmetry(bool2):
    sier = sp.validate_space(bool2, ["p", "q"], [[0, 0], [1, 0]])
    with pytest.raises(NotSymmetricFactors):
        up.quotient_ultraproduct([sier, sier], up.PrincipalUltrafilter(2, 0))


def test_quotient_classes_are_generator_fibers(chain4):
    X = sp.validate_space(chain4, ["a", "b"], [[0, 2], [2, 0]])
    D = up.PrincipalUltrafilter(2, 1)
    quotient, theta = up.quotient_ultraproduct([X, X], D)
    # T0 symmetric factors with principal D: tuples collapse along the
    # generator coordinate
    tuples = list(product(range(2), repeat=2))
    for i, x in enumerate(tuples):
        for j, y in enumerate(tuples):
            assert (theta[i] == theta[j]) == (x[1] == y[1])
    assert quotient.m == 2


def test_zero_distance_pair_merges(bool2):
    X = sp.validate_space(bool2, ["p", "q"], [[0, 0], [0, 0]])
    D = up.PrincipalUltrafilter(2, 0)
    quotient, theta = up.quotient_ultraproduct([X, X], D)
    assert quotient.m == 1
    assert len(set(theta)) == 1


# -- ultrapowers -----------------------------------------------------------------------


def test_ultrapower_bool2(bool2):
    result = up.ultrapower_V(bool2, up.PrincipalUltrafilter(2, 0))
    assert result.equivalent


def test_ultrapower_inverse_identity(chain4):
    result = up.ultrapower_V(chain4, up.PrincipalUltrafilter(3, 2))
    assert result.bijective and result.inverse_ok and result.preserves_distance
    for e in chain4.carrier():
        assert result.limits[result.diagonal[e]] == e


# -- product structures ------------------------------------------------------------------


def test_constant_factors_give_diagonal_values(chain4, sig, factors):
    m = factors[0]
    D = up.PrincipalUltrafilter(3, 1)
    dp = up.d_product_structure([m, m, m], D)
    for i, combo in enumerate(dp.tuples):
        if len(set(combo)) == 1:
            assert dp.structure.pred_tables["P"][i] == m.pred_tables["P"][combo[0]]
    const = dp.structure.const_points["c"]
    assert dp.tuples[const] == (0, 0, 0)


def test_principal_product_projects_predicates(chain4, factors):
    for gen in (0, 1):
        D = up.PrincipalUltrafilter(2, gen)
        dp = up.d_product_structure(factors, D)
        for i, combo in enumerate(dp.tuples):
            assert dp.structure.pred_tables["P"][i] == \
                factors[gen].pred_tables["P"][combo[gen]]


def test_product_requires_co_divisible(no_codiv):
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(no_codiv))])
    space = sp.validate_space(no_codiv, ["p"], [[0]])
    struct = sem.validate_structure(space, sig, {"P": [0]})
    with pytest.raises(NotCoDivisible):
        up.d_product_structure([struct, struct], up.PrincipalUltrafilter(2, 0))


def test_product_with_functions_acts_componentwise(chain4):
    ident = F.identity_modulus(chain4)
    sig = F.Signature(functions=[("f", 1, ident)])
    space = sp.validate_space(chain4, ["p", "q"], [[0, 1], [1, 0]])
    s1 = sem.validate_structure(space, sig, {}, {"f": [1, 0]}, name="s1")
    s2 = sem.validate_structure(space, sig, {}, {"f": [0, 0]}, name="s2")
    D = up.PrincipalUltrafilter(2, 0)
    dp = up.d_product_structure([s1, s2], D)
    for i, combo in enumerate(dp.tuples):
        image = dp.structure.fun_tables["f"][i]
        assert dp.tuples[image] == (s1.fun_tables["f"][combo[0]],
                                    s2.fun_tables["f"][combo[1]])


# -- the Łoś equality ---------------------------------------------------------------------


def test_los_quantifier_free(chain4, sig, factors):
    D = up.PrincipalUltrafilter(2, 1)
    dp = up.d_product_structure(factors, D)
    for text in ("(P x0)", "(d x0 x1)", "(conn vee (P x0) (val 2))",
                 "(conn dual:4 (P x0))", "(d x0 c)"):
        phi = F.parse_formula(text, sig, chain4)
        report = up.los_check(dp, phi)
        assert report.all_equal, text
        assert not report.hypothesis


def test_los_principal_triangle(chain4, sig, factors):
    """Three independent evaluations: product, limit of factors, and the
    direct evaluation in the generator factor must all coincide."""
    gen = 1
    D = up.PrincipalUltrafilter(2, gen)
    dp = up.d_product_structure(factors, D)
    phi = F.parse_formula("(sup x0 (conn wedge (P x0) (d x0 x1)))", sig, chain4)
    report = up.los_check(dp, phi)
    assert report.all_equal
    for entry, combo in zip(report.entries,
                            product(range(dp.structure.m), repeat=1)):
        proj = dp.tuples[combo[0]][gen]
        direct = sem.eval_formula(factors[gen], phi, {1: proj})
        assert entry.left == direct


def test_los_with_quantifiers_and_hypothesis_records(chain4, sig, factors):
    D = up.PrincipalUltrafilter(2, 0)
    dp = up.d_product_structure(factors, D)
    for text in ("(inf x0 (P x0))", "(sup x0 (d x0 c))",
                 "(inf x0 (conn vee (P x0) (d x0 x1)))"):
        phi = F.parse_formula(text, sig, chain4)
        report = up.los_check(dp, phi)
        assert report.all_equal, text
        assert len(report.hypothesis) == len(dp.factors)
        for _, _, sup_ok, inf_ok in report.hypothesis:
            assert sup_ok and inf_ok


def _same_report(got, want, vq):
    assert got == want
    assert got.lines(vq) == want.lines(vq)
    assert got.hypothesis == want.hypothesis
    assert got.entries == want.entries
    assert np.array_equal(got.left, want.left) and np.array_equal(got.right, want.right)
    assert got.all_equal == want.all_equal


@pytest.mark.parametrize("width", [1, 2, 3])
def test_los_reports_on_one_product_match_fresh_products(chain4, sig, factors, width):
    """Every los_check on one product shares its factor gathers and the
    factors' evaluators and hypothesis verdicts; each report equals the one
    from a product built for it alone, and los_sweep over a pool gives the
    same reports as los_check formula by formula. A report's entries run
    over the product's points in row-major order, one per left/right value."""
    sig_p = F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))])
    pool = sem.enumerate_formulas(sig_p, chain4, 2, 1)
    assert any(not F.free_vars(phi) for phi in pool)
    chosen = [factors[i % 2] for i in range(width)]
    D = up.PrincipalUltrafilter(width, width - 1)
    shared = up.d_product_structure(chosen, D)
    # sentences with a constant, then var_span-2 formulas after the pool
    formulas = pool + [F.parse_formula(text, sig, chain4)
                       for text in ("(P c)", "(sup x0 (d x0 c))", "(sup x1 (d x0 x1))",
                                    "(inf x1 (conn vee (d x0 x1) (P x1)))", "(d x0 x1)")]
    swept = up.los_sweep(shared, formulas)
    assert len(swept) == len(formulas)
    for phi, report in zip(formulas, swept):
        _same_report(report, up.los_check(shared, phi), chain4)
        _same_report(report, up.los_check(up.d_product_structure(chosen, D), phi), chain4)
        assert report.formula == F.print_formula(phi, chain4)
        entries = report.entries
        assert [e.assignment for e in entries] == list(
            product(shared.structure.points, repeat=len(phi.window)))
        assert [(e.left, e.right) for e in entries] == list(
            zip(report.left.tolist(), report.right.tolist()))
    twin = dataclasses.replace(swept[-1], right=swept[-1].right.copy())
    assert twin == swept[-1]
    twin.right[-1] = (twin.right[-1] + 1) % chain4.size
    assert twin != swept[-1]


@pytest.mark.parametrize("sizes", [[2, 1, 3], [1], [3, 2]])
@pytest.mark.parametrize("w", [0, 1, 2, 3])
def test_factor_gather_matches_the_per_tuple_definition(sizes, w):
    """Row r of the gather is the r-th w-tuple of product points, the points
    being the factor tuples in row-major order; entry i is the factor-i
    coordinates of those points read as a base-sizes[i] numeral."""
    gather = up.factor_gather(sizes, w)
    combos = list(product(product(*map(range, sizes)), repeat=w))
    assert gather.shape == (len(sizes), len(combos))
    for r, combo in enumerate(combos):
        for i, m in enumerate(sizes):
            assert gather[i, r] == sum(p[i] * m ** (w - 1 - k) for k, p in enumerate(combo))


def test_los_sweep_splits_its_d_limits_by_the_work_budget(chain4, sig, factors, monkeypatch):
    """With the work budget patched down to the D-limits of the largest
    single formula, the pool's right sides go to dlim_batch in many calls,
    none refused, and the reports are the same; one row less refuses that
    formula, as its own los_check call is refused."""
    pool = sem.enumerate_formulas(sig, chain4, 1, 2)
    dp = up.d_product_structure([factors[0], factors[1], factors[0]],
                                up.PrincipalUltrafilter(3, 2))
    calls = []

    def counted(vq, seqs, D):
        calls.append(len(seqs))
        return dlim_batch(vq, seqs, D)

    dlim_batch = up.dlim_batch
    monkeypatch.setattr(up, "dlim_batch", counted)
    whole = up.los_sweep(dp, pool)
    rows = [len(r.entries) for r in whole]
    assert calls == [sum(rows)]
    largest = max(rows)
    monkeypatch.setattr(sp, "WORK_BUDGET", up.dlim_cost(chain4, largest, 3))
    del calls[:]
    chunked = up.los_sweep(dp, pool)
    assert len(calls) > 1 and max(calls) == largest and sum(calls) == sum(rows)
    for got, want in zip(chunked, whole):
        _same_report(got, want, chain4)
    monkeypatch.setattr(sp, "WORK_BUDGET", up.dlim_cost(chain4, largest, 3) - 1)
    refused = "%d D-limits over 3 indices costs" % largest
    with pytest.raises(SizeLimit, match=refused):
        up.los_sweep(dp, pool)
    with pytest.raises(SizeLimit, match=refused):
        up.los_check(dp, next(phi for phi in pool if len(F.free_vars(phi)) == 2))


def test_factors_hold_hypothesis_verdicts_and_evaluators(chain4, sig, factors, monkeypatch):
    """A factor's held verdicts equal the definitional `cauchy_verdicts`,
    and every product that has the factor reads the factor's own evaluator."""
    pool = sem.enumerate_formulas(sig, chain4, 2, 1)
    one = up.d_product_structure(factors, up.PrincipalUltrafilter(2, 0))
    two = up.d_product_structure([factors[1], factors[0], factors[1]],
                                 up.PrincipalUltrafilter(3, 2))
    for dp in (one, two):
        assert all(r.all_equal for r in up.los_sweep(dp, pool))
    subs = [sub for phi in pool for sub in F.quantified_subformulas(phi)]
    assert subs
    monkeypatch.setattr(sem, "cauchy_sums_vanish", None)    # held: not computed again
    for f in factors:
        for sub in subs:
            assert f.hypothesis(sub) == cauchy_verdicts(f, sub)
    assert one.factors[0] is two.factors[1]
    assert one.factors[0].evaluator(1) is two.factors[1].evaluator(1)
    assert one.factors[1].evaluator(1) is two.factors[0].evaluator(1) is two.factors[2].evaluator(1)
    assert one.structure.evaluator(1) is not two.structure.evaluator(1)


# -- the discrete Cauchy hypothesis ----------------------------------------------------


def test_hypothesis_constant_family(chain4, sig, factors):
    phi = F.parse_formula("(sup x0 (val 2))", sig, chain4)
    assert up.los_hypothesis_check(factors[0], phi) == (True, True)


def test_hypothesis_always_holds_on_finite_carriers(chain4):
    """Extrema are attained on finite families, so both sums vanish; checked
    against the direct lattice computation for every family on chain:4."""
    for size in (1, 2, 3):
        for fam in product(chain4.carrier(), repeat=size):
            sup_side = chain4.meet_of(
                chain4.join_of(chain4.sub(fl, fk) for fl in fam) for fk in fam)
            inf_side = chain4.meet_of(
                chain4.join_of(chain4.sub(fk, fl) for fl in fam) for fk in fam)
            assert sup_side == chain4.bottom
            assert inf_side == chain4.bottom


def test_hypothesis_requires_quantifier(chain4, sig, factors):
    phi = F.parse_formula("(P x0)", sig, chain4)
    with pytest.raises(ValueError):
        up.los_hypothesis_check(factors[0], phi)


# -- compactness -------------------------------------------------------------------------


def test_compactness_singleton(chain4, sig, factors):
    cond = sem.Condition(F.parse_formula("(P c)", sig, chain4))
    assert sem.satisfies(factors[0], cond)
    result = up.compactness_build([cond], factors)
    assert sem.satisfies(result.model.structure, cond)


def test_compactness_needs_joint_model(chain4, sig):
    def build(name, pvals):
        space = sp.validate_space(chain4, ["u", "v"], [[0, 2], [2, 0]])
        return sem.validate_structure(space, sig, {"P": pvals},
                                      const_points={"c": 0}, name=name)

    only1 = build("one", [0, 2])      # P(c) = 0 but sup P = 2
    only2 = build("two", [2, 2])      # constant 2: sup (dual P) = dual 2 = 2
    both = build("both", [0, 0])
    e1 = sem.Condition(F.parse_formula("(P c)", sig, chain4))
    e2 = sem.Condition(F.parse_formula("(sup x0 (P x0))", sig, chain4))
    assert sem.satisfies(only1, e1) and not sem.satisfies(only1, e2)
    assert not sem.satisfies(only2, e1)
    result = up.compactness_build([e1, e2], [only1, only2, both])
    assert sem.models_theory(result.model.structure, [e1, e2])
    assert result.factor_names[result.generator] == "both"


def test_compactness_unsatisfiable_subset(chain4, sig, factors):
    impossible = sem.Condition(F.parse_formula("(val 4)", sig, chain4))
    with pytest.raises(NotFinitelySatisfiable):
        up.compactness_build([impossible], factors)
