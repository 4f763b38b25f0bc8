import random
import tracemalloc
from itertools import product
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import ultraproduct as up
from cqlogic.errors import (ArityMismatch, ModulusViolated, NoLimit, NotCoDivisible,
                            NotFinitelySatisfiable, NotSymmetricFactors, NotValueCoquantale,
                            SizeLimit, VerificationFailed)
from cqlogic.textio import Workspace, write_structure
from cqlogic.lattice import fold_table
from conftest import (cauchy_family_verdicts, cauchy_verdicts, classes_by_loop,
                      empty_limit_tables, join_chain3, jump_chain, metric_closure,
                      repaired_space, unary_structure)


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


def family_of(masks, index_count):
    """A family of subsets of the index set, given by its members' masks
    (bit i for index i) and known only by its `contains_sets`."""
    weights = 1 << np.arange(index_count)
    return SimpleNamespace(contains_sets=lambda sets: np.isin(
        np.asarray(sets, dtype=bool) @ weights, list(masks)))


def is_ultrafilter_by_subsets(D, index_count) -> bool:
    """The slow twin of `up.is_ultrafilter`: the axioms over the frozensets
    of indices and their 4ᴵ pairs, D asked one bool row per subset."""
    subsets = [frozenset(i for i in range(index_count) if mask >> i & 1)
               for mask in range(1 << index_count)]
    member = {s: bool(D.contains_sets([i in s for i in range(index_count)]))
              for s in subsets}
    if member[frozenset()] or not member[frozenset(range(index_count))]:
        return False
    for a in subsets:
        if member[a] != (not member[frozenset(range(index_count)) - a]):
            return False
        for b in subsets:
            if member[a] and a <= b and not member[b]:
                return False
            if member[a] and member[b] and not member[a & b]:
                return False
    return True


@pytest.mark.parametrize("members", [
    [0b000, 0b111],                                 # holds ∅
    [0b001, 0b111],                                 # holds {0}, not {0, 1}
    [0b011, 0b101, 0b110, 0b111],                   # {0, 1} ∩ {0, 2} = {0} is missing
    [0b111],                                        # neither {0} nor {1, 2}
], ids=["empty-set", "not-upward-closed", "not-meet-closed", "no-side-of-a-split"])
def test_non_ultrafilters_are_refused(members):
    """A family of subsets of three indices, known only by its
    `contains_sets`, that breaks one ultrafilter axiom."""
    assert not up.is_ultrafilter(family_of(members, 3), 3)
    assert not is_ultrafilter_by_subsets(family_of(members, 3), 3)


def test_is_ultrafilter_against_the_frozenset_scan_on_every_family():
    """Every family of subsets of 0 to 3 indices (2, 4, 16 and 256 of
    them): the mask tables and the frozenset scan agree, and exactly the
    principal families pass. The scan tests upward closure, which the mask
    tables leave to the other axioms."""
    for width in range(4):
        principal = {sum(1 << m for m in range(1 << width) if m >> g & 1)
                     for g in range(width)}
        for bits in range(1 << (1 << width)):
            D = family_of([m for m in range(1 << width) if bits >> m & 1], width)
            verdict = up.is_ultrafilter(D, width)
            assert verdict == is_ultrafilter_by_subsets(D, width)
            assert verdict == (bits in principal)


def _near_principal(generator, flipped):
    """The principal family of ``generator`` on 4 indices as a 16-bit
    family, with the subset of mask ``flipped`` toggled (none when 16)."""
    bits = sum(1 << m for m in range(16) if m >> generator & 1)
    return bits ^ (1 << flipped) & 0xFFFF


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 0xFFFF) | st.builds(_near_principal, st.integers(0, 3),
                                          st.integers(0, 16)))
def test_is_ultrafilter_against_the_frozenset_scan_on_four_indices(bits):
    """Families over 4 indices, random or a principal one with at most one
    subset flipped: the mask tables and the frozenset scan agree."""
    D = family_of([m for m in range(16) if bits >> m & 1], 4)
    assert up.is_ultrafilter(D, 4) == is_ultrafilter_by_subsets(D, 4)


def test_is_ultrafilter_on_thirteen_indices_in_bounded_memory(monkeypatch):
    """The largest index count the work budget admits: a principal D passes,
    with tracemalloc's peak under 16 MiB (the masks of D are 16-bit); 14
    indices are refused by cost before D is asked about any subset."""
    passed, peak = _traced_peak(lambda: up.is_ultrafilter(up.PrincipalUltrafilter(13, 5), 13))
    assert passed and peak < 16 << 20
    D = up.PrincipalUltrafilter(14, 5)
    monkeypatch.setattr(D, "contains_sets", None)
    with pytest.raises(SizeLimit, match="on 14 indices costs 268681216 cell operations"):
        up.is_ultrafilter(D, 14)


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


@pytest.mark.parametrize("seqs", [[[0, 1, 2]], [], [0, 1], [[[0, 1]]]],
                         ids=["wide-row", "empty-1d", "1d", "3d"])
def test_dlim_batch_refuses_input_off_the_index_set(chain4, monkeypatch, seqs):
    """dlim_batch takes an (N, I) array, I the index count of D: a row of
    another width is refused with NoLimit, as d_ultralimit refuses the same
    sequence, and so is an input of any other rank, before its cost is
    charged (a zero work budget refuses nothing first). N = 0 is an empty
    answer."""
    D = up.PrincipalUltrafilter(2, 0)
    monkeypatch.setattr(sp, "WORK_BUDGET", 0)
    with pytest.raises(NoLimit, match="^sequence length does not match the index set$"):
        up.d_ultralimit(chain4, [0, 1, 2], D)
    with pytest.raises(NoLimit, match=r"do not match the index set: need \(N, 2\)$"):
        up.dlim_batch(chain4, seqs, D)
    assert up.dlim_batch(chain4, np.zeros((0, 2), dtype=np.int32), D).tolist() == []


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
            d = chain4.dsym[x, y]
            assert up.d_ultralimit(chain4, [d, d], D) == d


# -- bounding laws ------------------------------------------------------------------


def all_principal(width):
    return [up.PrincipalUltrafilter(width, g) for g in range(width)]


def subsets_in(D, width):
    return [frozenset(i for i in range(width) if mask >> i & 1)
            for mask in range(1 << width)
            if D.contains_sets([mask >> i & 1 == 1 for i in range(width)])]


def test_bounding_d_limits(chain4):
    # lower/upper bounds on a D-large set transfer to the limit
    for width in (1, 2, 3):
        for D in all_principal(width):
            large = subsets_in(D, width)
            for seq in product(chain4.carrier(), repeat=width):
                lim = up.d_ultralimit(chain4, list(seq), D)
                for b in chain4.carrier():
                    if any(all(chain4.lattice.leq[b, seq[j]] for j in A) for A in large):
                        assert chain4.lattice.leq[b, lim]
                    if any(all(chain4.lattice.leq[seq[j], b] for j in A) for A in large):
                        assert chain4.lattice.leq[lim, b]


def test_strong_bound_on_co_divisible_carrier(chain4):
    assert chain4.co_divisible_flag
    for width in (1, 2, 3):
        for D in all_principal(width):
            for seq in product(chain4.carrier(), repeat=width):
                lim = up.d_ultralimit(chain4, list(seq), D)
                for b in chain4.carrier():
                    if chain4.lattice.leq[lim, b] and chain4.lattice.cwb[chain4.bottom,
                                                        chain4.tsub[b, lim]]:
                        assert D.contains_sets([chain4.lattice.leq[seq[j], b]
                                                for j in range(width)])


def test_quantifier_inequalities_small_slice(chain4):
    width, size = 2, 2
    for D in all_principal(width):
        for table in product(chain4.carrier(), repeat=width * size):
            fam = np.array(table, dtype=np.int32).reshape(width, size)
            meet_lim = up.d_ultralimit(chain4, [int(min(fam[i])) for i in range(width)], D)
            join_lim = up.d_ultralimit(chain4, [int(max(fam[i])) for i in range(width)], D)
            pointwise = [up.d_ultralimit(chain4, [int(fam[i][x]) for i in range(width)], D)
                         for x in range(size)]
            assert chain4.lattice.leq[meet_lim, min(pointwise)]
            assert chain4.lattice.leq[max(pointwise), join_lim]


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


def test_a_factor_count_off_the_index_set_is_an_arity_mismatch(sig, factors, monkeypatch):
    """One factor per index, or ArityMismatch naming both counts, raised
    before the product allocates anything (no D-limit table, no read of the
    factors' tables)."""
    monkeypatch.setattr(up, "DLimits", None)
    monkeypatch.setattr(up, "_factor_axes", None)
    D = up.PrincipalUltrafilter(2, 0)
    with pytest.raises(ArityMismatch, match=r"^one factor per index: \|I\| = 2, 1 given$"):
        up.d_product_space([factors[0].space], D)
    with pytest.raises(ArityMismatch, match=r"^one factor per index: \|I\| = 2, 1 given$"):
        up.d_product_structure([factors[0]], D)
    with pytest.raises(ArityMismatch, match=r"^one factor per index: \|I\| = 3, 4 given$"):
        up.d_product_structure(factors * 2, up.PrincipalUltrafilter(3, 1))


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


def test_transitivity_is_decided_past_256_paths():
    """0 ~ k and k ~ 257 for the 256 middle points k, but not 0 ~ 257: one
    composite pair with exactly 256 paths, which a uint8 product counts as
    none. A relation that contains its composite is transitive."""
    related = np.eye(258, dtype=bool)
    related[0, 1:257] = related[1:257, 257] = True
    assert not up._is_transitive(related)
    related[0, 257] = True
    assert up._is_transitive(related)
    assert up._is_transitive(np.eye(258, dtype=bool))


@pytest.mark.parametrize("dist, message", [
    ([[1, 0], [0, 0]], "~ is not reflexive"),
    ([[0, 0], [1, 0]], "~ is not symmetric"),
    ([[0, 0, 1], [0, 0, 0], [1, 0, 0]], "~ is not transitive"),
    ([[0, 0, 1], [0, 0, 2], [1, 2, 0]], "class distance depends on representatives"),
], ids=["reflexive", "symmetric", "transitive", "representatives"])
def test_quotient_refuses_a_relation_that_is_no_congruence(chain4, monkeypatch, dist,
                                                           message):
    """A D-product table that no D-limit gives, handed over unvalidated: each
    of the quotient's four checks refuses its own failure, and the three
    equivalence checks run before the classes are read."""
    product = sp.ContinuitySpace(chain4, ["p%d" % i for i in range(len(dist))],
                                 np.array(dist, dtype=np.int32))
    monkeypatch.setattr(up, "d_product_space", lambda spaces, D: product)
    X = sp.validate_space(chain4, ["a"], [[0]])
    with pytest.raises(VerificationFailed, match="^%s$" % message):
        up.quotient_ultraproduct([X, X], up.PrincipalUltrafilter(2, 0))


def _symmetric_space(vq, m, rng):
    """A seeded symmetric space of m points, half its distances 0 before the
    metric closure, so its products have classes of more than one point."""
    dist = [[vq.bottom] * m for _ in range(m)]
    for x in range(m):
        for y in range(x):
            dist[x][y] = dist[y][x] = rng.choice([vq.bottom, rng.randrange(vq.size)])
    return sp.validate_space(vq, ["p%d" % i for i in range(m)], metric_closure(vq, dist))


def test_quotient_classes_against_the_class_loop(bool2, chain4):
    """A seeded corpus of D-products of symmetric factors, some with a class
    that starts before another and ends after it: the first-related
    representatives give the classes and canonical map of the per-point
    loop, in the same order."""
    rng = random.Random(28)
    for vq in (bool2, chain4):
        for _ in range(40):
            factors = [_symmetric_space(vq, rng.randint(1, 4), rng)
                       for _ in range(rng.randint(1, 3))]
            for gen in range(len(factors)):
                D = up.PrincipalUltrafilter(len(factors), gen)
                quotient, theta = up.quotient_ultraproduct(factors, D)
                product = up.d_product_space(factors, D)
                assert (quotient.classes, theta) == classes_by_loop(product.dist == vq.bottom)


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


def test_a_product_reads_every_d_limit_through_its_one_table(chain4, monkeypatch):
    """A 3-factor product with a unary predicate and a unary function, on a
    carrier that holds no D-limit table yet, builds one `DLimits`, and reads
    its distances, its predicate table and the right sides of a 1- and a
    2-variable Łoś report through it. Each read passes the factors' own
    tables, reshaped but not copied or gathered: factor i's array holds its
    mᵢʷ cells, not one per w-tuple of product points. The product keeps no
    array beside its structure and D-limits."""
    ident = F.identity_modulus(chain4)
    sig = F.Signature(predicates=[("P", 1, ident)], functions=[("f", 1, ident)])
    space = sp.validate_space(chain4, ["p", "q"], [[0, 1], [1, 0]])
    s1 = sem.validate_structure(space, sig, {"P": [0, 1]}, {"f": [1, 0]}, name="s1")
    s2 = sem.validate_structure(space, sig, {"P": [1, 1]}, {"f": [0, 0]}, name="s2")
    built, reads = [], []

    class Counting(up.DLimits):
        def __init__(self, vq, D):
            built.append(D.index_count)
            super().__init__(vq, D)

        def __call__(self, values):
            values = list(values)
            reads.append([v.size for v in values])
            return super().__call__(values)

    monkeypatch.setattr(up, "DLimits", Counting)
    empty_limit_tables(monkeypatch, chain4)
    dp = up.d_product_structure([s1, s2, s1], up.PrincipalUltrafilter(3, 1))
    for text in ("(P (f x0))", "(d x0 x1)"):
        assert up.los_check(dp, F.parse_formula(text, sig, chain4)).all_equal
    assert built == [3] and isinstance(dp.limits, Counting)
    # distances, P, then the right sides of the 1- and 2-variable reports
    assert reads == [[4] * 3, [2] * 3, [2] * 3, [4] * 3]
    assert up.DProductStructure.__match_args__ == ("structure", "factors", "D", "tuples")
    assert not any(isinstance(value, np.ndarray) for value in vars(dp).values())


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


def _replaced(report, **changes):
    """A new `LosReport` with the fields of ``report`` and ``changes``."""
    fields = {name: getattr(report, name) for name in report.__match_args__}
    return up.LosReport(**{**fields, **changes})


def _same_report(got, want, vq):
    assert got == want
    assert got.lines(vq) == want.lines(vq)
    assert got.hypothesis == want.hypothesis
    assert got.entries == want.entries
    assert np.array_equal(got.left, want.left) and np.array_equal(got.right, want.right)
    assert got.all_equal == want.all_equal


@pytest.mark.parametrize("width", [1, 2, 3])
def test_los_reports_on_one_product_match_fresh_products(chain4, sig, factors, width):
    """Every los_check on one product shares its D-limit table and the
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
    twin = _replaced(swept[-1], right=swept[-1].right.copy())
    assert twin == swept[-1]
    twin.right[-1] = (twin.right[-1] + 1) % chain4.size
    assert twin != swept[-1]


def test_los_reports_differing_in_one_value_or_one_point_name_are_unequal(
        chain4, sig, factors):
    """Reports compare by formula, hypothesis, points, width and both value
    arrays: a copy is equal, and a copy with one left or right value, or one
    point name, changed is not."""
    dp = up.d_product_structure(factors, up.PrincipalUltrafilter(2, 1))
    report = up.los_check(dp, F.parse_formula("(inf x1 (d x0 x1))", sig, chain4))
    assert report.width == 1 and report.hypothesis

    def copy(**changes):
        fields = dict(left=report.left.copy(), right=report.right.copy(),
                      points=list(report.points))
        fields.update(changes)
        return _replaced(report, **fields)

    assert copy() == report
    for side in ("left", "right"):
        values = getattr(report, side).copy()
        values[-1] = (values[-1] + 1) % chain4.size
        assert copy(**{side: values}) != report
    assert copy(points=report.points[:-1] + ["renamed"]) != report
    assert copy(left=report.left[:-1], right=report.right[:-1]) != report
    assert report != report.entries


@pytest.mark.parametrize("sizes", [[2, 1, 3], [1], [3, 2]])
@pytest.mark.parametrize("w", [0, 1, 2, 3])
def test_factor_gather_matches_the_per_tuple_definition(chain4, monkeypatch, sizes, w):
    """The factor gather, the factors' w-axis tables broadcast by
    `_factor_axes`, holds at the r-th w-tuple of product points (the factor
    tuples in row-major order) factor i's entry at those points' factor-i
    coordinates. Read through a `DLimits`, with its table kept and on the
    row path (CELL_BUDGET below nᴵ), entry r is d_ultralimit of that tuple
    of factor values."""
    rng = np.random.default_rng(21 + 4 * len(sizes) + w)
    tables = [rng.integers(0, chain4.size, size=(m,) * w).astype(np.int32) for m in sizes]
    combos = list(product(product(*map(range, sizes)), repeat=w))
    seqs = [[int(t[tuple(p[i] for p in combo)]) for i, t in enumerate(tables)]
            for combo in combos]
    values = up._factor_axes(tables, sizes, w)
    assert [v.size for v in values] == [t.size for t in tables]
    assert all(np.shares_memory(v, t) for v, t in zip(values, tables))
    flat = [np.broadcast_to(v, np.broadcast_shapes(*(u.shape for u in values))).reshape(-1)
            for v in values]
    assert np.transpose(flat).tolist() == seqs
    for gen in range(len(sizes)):
        D = up.PrincipalUltrafilter(len(sizes), gen)
        want = [up.d_ultralimit(chain4, seq, D) for seq in seqs]
        for row_path in (False, True):
            with monkeypatch.context() as patch:
                if row_path:
                    patch.setattr(sp, "CELL_BUDGET", chain4.size ** len(sizes) - 1)
                limits = up.DLimits(chain4, D)
                assert (limits.table is None) == row_path
                assert limits(values).reshape(-1).tolist() == want


def _needed_tuples(dp, pool):
    """Every tuple of factor values whose D-limit building ``dp`` and
    sweeping ``pool`` on it needs, read from the factors' tables and from
    `eval_formula` on each factor."""
    points = range(dp.structure.m)
    needed = {tuple(f.dist[x[i], y[i]] for i, f in enumerate(dp.factors))
              for x, y in product(dp.tuples, repeat=2)}
    needed |= {tuple(f.pred_tables["P"][x[i]] for i, f in enumerate(dp.factors))
               for x in dp.tuples}
    for phi in pool:
        values = [{a: sem.eval_formula(f, phi, dict(zip(phi.window, a)))
                   for a in product(range(f.m), repeat=len(phi.window))} for f in dp.factors]
        for assignment in product(points, repeat=len(phi.window)):
            needed.add(tuple(v[tuple(dp.tuples[p][i] for p in assignment)]
                             for i, v in enumerate(values)))
    return needed


def test_a_d_product_scans_each_distinct_tuple_once(chain4, sig, factors, monkeypatch):
    """Building a product on a carrier that holds no D-limit table yet and
    sweeping a pool on it passes each distinct tuple of factor values to
    dlim_batch once in all, and a second sweep passes none; the reports
    equal those of fresh products. With the work budget one below the cost
    of a fill, the fill is refused as dlim_batch refuses it, and leaves no
    entry in the table."""
    pool = sem.enumerate_formulas(sig, chain4, 1, 2)
    chosen, D = [factors[0], factors[1], factors[0]], up.PrincipalUltrafilter(3, 2)
    rows = []

    def counted(vq, seqs, D):
        rows.extend(map(tuple, np.asarray(seqs).tolist()))
        return dlim_batch(vq, seqs, D)

    dlim_batch = up.dlim_batch
    monkeypatch.setattr(up, "dlim_batch", counted)
    empty_limit_tables(monkeypatch, chain4)
    dp = up.d_product_structure(chosen, D)
    reports = up.los_sweep(dp, pool)
    assert len(rows) == len(set(rows))
    assert set(rows) == _needed_tuples(dp, pool)
    assert (dp.limits.table >= 0).sum() == len(rows)
    assert not dp.limits.table.flags.writeable
    del rows[:]
    again = up.los_sweep(dp, pool)
    assert rows == []
    for phi, got, second in zip(pool, reports, again):
        _same_report(got, second, chain4)
        _same_report(got, up.los_check(up.d_product_structure(chosen, D), phi), chain4)

    # the formula whose report fills most of a fresh product's table:
    # admitted at the cost of that fill, refused one below it
    fills = []
    for phi in pool:
        empty_limit_tables(monkeypatch, chain4)
        fresh = up.d_product_structure(chosen, D)
        del rows[:]
        want = up.los_check(fresh, phi)
        fills.append((len(rows), phi, want))
    fill, phi, want = max(fills, key=lambda f: f[0])
    assert fill == 11
    empty_limit_tables(monkeypatch, chain4)
    fresh = up.d_product_structure(chosen, D)
    before = fresh.limits.table.copy()
    cost = up.dlim_cost(chain4, fill, 3)
    monkeypatch.setattr(sp, "WORK_BUDGET", cost - 1)
    with pytest.raises(SizeLimit) as info:
        up.los_check(fresh, phi)
    assert str(info.value) == ("%d D-limits over 3 indices costs %d cell operations "
                               "(budget %d)" % (fill, cost, cost - 1))
    assert np.array_equal(fresh.limits.table, before)
    monkeypatch.setattr(sp, "WORK_BUDGET", cost)
    _same_report(up.los_check(fresh, phi), want, chain4)


def test_los_reports_on_the_row_path_match_the_table(chain4, sig, factors, monkeypatch):
    """A product built with nᴵ > CELL_BUDGET keeps no table and sends every
    read to dlim_batch row by row, one call per formula; its structure and
    reports equal those of the product that keeps a table."""
    pool = sem.enumerate_formulas(sig, chain4, 1, 2)
    chosen, D = [factors[1], factors[0], factors[1]], up.PrincipalUltrafilter(3, 0)
    kept = up.d_product_structure(chosen, D)
    assert kept.limits.table is not None
    monkeypatch.setattr(sp, "CELL_BUDGET", chain4.size ** 3 - 1)
    rows = up.d_product_structure(chosen, D)
    assert rows.limits.table is None
    assert np.array_equal(rows.structure.dist, kept.structure.dist)
    assert np.array_equal(rows.structure.pred_tables["P"], kept.structure.pred_tables["P"])
    calls = []

    def counted(vq, seqs, D):
        calls.append(len(seqs))
        return dlim_batch(vq, seqs, D)

    dlim_batch = up.dlim_batch
    monkeypatch.setattr(up, "dlim_batch", counted)
    swept = up.los_sweep(rows, pool)
    assert calls == [rows.structure.m ** len(phi.window) for phi in pool]
    for got, want in zip(swept, up.los_sweep(kept, pool)):
        _same_report(got, want, chain4)


def _seeded_corpus(vq, sizes, seed):
    """Seeded structures with one unary predicate P under the identity
    modulus, of the given sizes, named A, B, C, ..."""
    rng = random.Random(seed)
    out = []
    while len(out) < len(sizes):
        name, m = "ABCDEFGH"[len(out)], sizes[len(out)]
        space = repaired_space(vq, ["%s%d" % (name, i) for i in range(m)], rng)
        try:
            out.append(unary_structure(vq, space.dist, [rng.randrange(vq.size) for _ in range(m)],
                                       name, space.points))
        except ModulusViolated:
            continue
    return out


def _every_product(corpus, widths=(1, 2, 3)):
    """Every (factor combination, generator) over the corpus, by width."""
    return [(combo, gen) for w in widths for combo in product(corpus, repeat=w)
            for gen in range(w)]


def test_each_triple_is_scanned_at_most_once_across_products(chain4, monkeypatch):
    """Every D-product of widths 1 to 3 over three seeded structures of 2, 3
    and 2 points, each swept with a depth-2 pool, on a carrier that holds no
    D-limit table yet: each (index count, generator, tuple of factor values)
    reaches dlim_batch at most once across all the products, the rows are
    exactly the triples the products need (read from the factors' tables and
    `eval_formula` on each factor), and a second sweep of new products
    sends none. Every report holds, and on a seeded sample each entry is
    `eval_formula` on the product and `d_ultralimit` of its factors'."""
    corpus = _seeded_corpus(chain4, (2, 3, 2), 22)
    pool = sem.enumerate_formulas(corpus[0].sig, chain4, 2, 1)
    values = {(id(s), phi): {a: sem.eval_formula(s, phi, dict(zip(phi.window, a)))
                             for a in product(range(s.m), repeat=len(phi.window))}
              for s in corpus for phi in pool}
    needed = set()
    for w in (1, 2, 3):
        for combo in product(corpus, repeat=w):
            tuples = list(product(*[range(f.m) for f in combo]))
            found = {tuple(f.dist[x[i], y[i]] for i, f in enumerate(combo))
                     for x, y in product(tuples, repeat=2)}
            found |= {tuple(f.pred_tables["P"][x[i]] for i, f in enumerate(combo))
                      for x in tuples}
            for phi in pool:
                for assignment in product(tuples, repeat=len(phi.window)):
                    found.add(tuple(values[id(f), phi][tuple(p[i] for p in assignment)]
                                    for i, f in enumerate(combo)))
            needed |= {(w, gen) + t for gen in range(w) for t in found}
    rows = []

    def counted(vq, seqs, D):
        rows.extend((D.index_count, D.generator) + tuple(r) for r in np.asarray(seqs).tolist())
        return dlim_batch(vq, seqs, D)

    dlim_batch = up.dlim_batch
    monkeypatch.setattr(up, "dlim_batch", counted)
    empty_limit_tables(monkeypatch, chain4)
    swept = []
    for combo, gen in _every_product(corpus):
        dp = up.d_product_structure(combo, up.PrincipalUltrafilter(len(combo), gen))
        swept.append((dp, up.los_sweep(dp, pool)))
    assert len(rows) == len(set(rows))
    assert set(rows) == needed
    del rows[:]
    for combo, gen in _every_product(corpus):
        up.los_sweep(up.d_product_structure(combo, up.PrincipalUltrafilter(len(combo), gen)),
                     pool)
    assert rows == []
    assert all(r.all_equal for _, reports in swept for r in reports)

    rng = random.Random(22)
    for dp, reports in rng.sample(swept, 12):
        for phi, report in rng.sample(list(zip(pool, reports)), 8):
            points = product(range(dp.structure.m), repeat=len(phi.window))
            for r, assignment in enumerate(points):
                sigma = dict(zip(phi.window, assignment))
                assert report.left[r] == sem.eval_formula(dp.structure, phi, sigma)
                seq = [sem.eval_formula(f, phi, {v: dp.tuples[p][i] for v, p in sigma.items()})
                       for i, f in enumerate(dp.factors)]
                assert report.right[r] == up.d_ultralimit(chain4, seq, dp.D)


@pytest.mark.parametrize("budget", [30, 150])
def test_shared_d_limit_tables_stay_within_the_cell_budget(chain4, monkeypatch, budget):
    """With CELL_BUDGET patched down, the carrier's D-limit tables hold at
    most that many cells after every product build and sweep; a key whose
    table would pass it empties them first, and a product with nᴵ over it
    takes the row path. Every report still holds."""
    corpus = _seeded_corpus(chain4, (2, 3, 2), 22)
    pool = sem.enumerate_formulas(corpus[0].sig, chain4, 1, 1)
    monkeypatch.setattr(sp, "CELL_BUDGET", budget)
    tables = empty_limit_tables(monkeypatch, chain4)
    held = set()
    for combo, gen in _every_product(corpus):
        dp = up.d_product_structure(combo, up.PrincipalUltrafilter(len(combo), gen))
        kept = chain4.size ** len(combo) <= budget
        assert (dp.limits.table is not None) == kept
        assert (tables.get((len(combo), gen)) is dp.limits) == kept
        assert all(r.all_equal for r in up.los_sweep(dp, pool))
        assert sum(t.table.size for t in tables.values()) <= budget
        held.add(id(dp.limits))
    # 30: the 2-index tables evict each other; 150: each 3-index table evicts
    assert len(held) > len(tables)


def test_an_evicted_key_is_rebuilt_with_the_same_entries(chain4, monkeypatch):
    """A key whose table was dropped to make room for another is rebuilt
    empty by the next product on it, and after the same sweep holds the same
    entries. The product that holds the dropped table keeps reading it: a
    second sweep on it scans nothing and gives the same reports."""
    corpus = _seeded_corpus(chain4, (2, 3, 2), 22)
    pool = sem.enumerate_formulas(corpus[0].sig, chain4, 2, 1)
    monkeypatch.setattr(sp, "CELL_BUDGET", chain4.size ** 3)
    tables = empty_limit_tables(monkeypatch, chain4)
    first = up.d_product_structure(corpus[:2], up.PrincipalUltrafilter(2, 0))
    reports = up.los_sweep(first, pool)
    dropped = first.limits
    entries = dropped.table.copy()
    assert tables == {(2, 0): dropped} and dropped.unseen == (entries < 0).sum()
    up.d_product_structure(corpus, up.PrincipalUltrafilter(3, 1))  # 25 + 125 cells
    assert list(tables) == [(3, 1)]
    calls = []

    def counted(vq, seqs, D):
        calls.append(len(seqs))
        return dlim_batch(vq, seqs, D)

    dlim_batch = up.dlim_batch
    monkeypatch.setattr(up, "dlim_batch", counted)
    for got, want in zip(up.los_sweep(first, pool), reports):
        _same_report(got, want, chain4)
    assert calls == []
    again = up.d_product_structure(corpus[:2], up.PrincipalUltrafilter(2, 0))
    assert again.limits is not dropped and list(tables) == [(2, 0)]
    for got, want in zip(up.los_sweep(again, pool), reports):
        _same_report(got, want, chain4)
    assert calls and np.array_equal(again.limits.table, entries)


@pytest.mark.parametrize("spec", ["bool2", "chain:4"])
@pytest.mark.parametrize("row_path", [False, True])
def test_d_limit_table_matches_the_definitional_scan(roster, monkeypatch, spec, row_path):
    """Seeded tuples with repeats over I = 1..4 indices and every generator,
    read through a `DLimits` in two batches: every result equals
    d_ultralimit of its row, with the table kept (nᴵ ≤ CELL_BUDGET) and
    without it; a kept table holds exactly the tuples read, each entry the
    scan of its decoded tuple, and -1 elsewhere."""
    vq = roster[spec]
    rng = np.random.default_rng(18)
    for width in range(1, 5):
        if row_path:
            monkeypatch.setattr(sp, "CELL_BUDGET", vq.size ** width - 1)
        for gen in range(width):
            D = up.PrincipalUltrafilter(width, gen)
            limits = up.DLimits(vq, D)
            assert (limits.table is None) == row_path
            seqs = rng.integers(0, vq.size, size=(30, width)).astype(np.int32)
            seqs = np.vstack([seqs, seqs[::3]])
            for batch in (seqs[:20], seqs[20:]):
                # factor i's values are column i, so the tuples are the rows
                got = limits(batch.T)
                assert got.tolist() == [up.d_ultralimit(vq, row, D) for row in batch.tolist()]
            if not row_path:
                filled = np.flatnonzero(limits.table >= 0)
                codes = {int(np.dot(row, vq.size ** np.arange(width - 1, -1, -1)))
                         for row in seqs.tolist()}
                assert set(filled.tolist()) == codes
                for code in filled.tolist():
                    digits = [code // vq.size ** (width - 1 - i) % vq.size for i in range(width)]
                    assert limits.table[code] == up.d_ultralimit(vq, digits, D)


def test_d_limits_over_a_non_value_carrier_are_refused(diamond_join):
    """As d_ultralimit does, dlim_batch refuses a non-value co-quantale, and
    with it every D-product of spaces and quotient over one; the diamond
    D4 loaded from a file is refused the same way."""
    s = sp.validate_space(diamond_join, ["p", "q"], [[0, 1], [1, 0]])
    D = up.PrincipalUltrafilter(2, 0)
    with pytest.raises(NotValueCoquantale):
        up.d_ultralimit(diamond_join, [0, 1], D)
    with pytest.raises(NotValueCoquantale):
        up.dlim_batch(diamond_join, [[0, 1]], D)
    with pytest.raises(NotValueCoquantale):
        up.dlim_batch(diamond_join, np.empty((0, 2), dtype=np.int32), D)
    for call in (up.d_product_space, up.quotient_ultraproduct):
        with pytest.raises(NotValueCoquantale):
            call([s, s], D)
    with pytest.raises(NotValueCoquantale):
        up.ultrapower_V(diamond_join, D)
    ws = Workspace()
    ws.load_text("@lattice L4\n@elements 0 a b 1\n@leq 0 a\n@leq 0 b\n@leq a 1\n"
                 "@leq b 1\n\n@coquantale D4 over L4\n@add a a a\n@add b b b\n"
                 "@add a b 1\n@add a 1 1\n@add b 1 1\n@add 1 1 1\n\n"
                 "@space S over D4\n@points p q\n@dist p q a\n@dist q p a\n")
    s4 = ws.spaces["S"]
    assert not s4.V.value_flag
    with pytest.raises(NotValueCoquantale):
        up.d_product_space([s4, s4], D)


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


# -- memory ----------------------------------------------------------------------------


def _traced_peak(call):
    """(call's result, the peak bytes tracemalloc saw while it ran above what
    was allocated before), numpy's buffers included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def product_432(chain4):
    """Five seeded `chain:4` factors on 4, 4, 3, 3 and 3 points, each with a
    unary predicate P: their D-product has 432 points."""
    rng = random.Random(21)
    chosen = []
    for m in (4, 4, 3, 3, 3):
        while True:
            space = repaired_space(chain4, ["p%d" % i for i in range(m)], rng)
            try:
                chosen.append(unary_structure(chain4, space.dist,
                                              [rng.randrange(chain4.size) for _ in range(m)],
                                              "F%d" % len(chosen)))
                break
            except ModulusViolated:
                continue
    assert [f.m for f in chosen] == [4, 4, 3, 3, 3]
    return chosen


def test_a_432_point_product_is_built_in_bounded_memory(product_432):
    """Building the 432-point, 5-factor product peaks at 8 MB or less: its
    distance table, predicate table and D-limit table, with no array of the
    factors' values on the side. The product's tables equal the D-limits
    of the factor values read tuple by tuple, on a seeded sample."""
    D = up.PrincipalUltrafilter(5, 2)
    dp, peak = _traced_peak(lambda: up.d_product_structure(product_432, D))
    assert dp.structure.m == 432
    assert peak <= 8 << 20, peak
    rng = np.random.default_rng(21)
    for x, y in rng.integers(0, 432, size=(50, 2)).tolist():
        seq = [f.dist[a, b] for f, a, b in zip(product_432, dp.tuples[x], dp.tuples[y])]
        assert dp.structure.dist[x, y] == up.d_ultralimit(dp.structure.V, seq, D)
        seq = [f.pred_tables["P"][a] for f, a in zip(product_432, dp.tuples[x])]
        assert dp.structure.pred_tables["P"][x] == up.d_ultralimit(dp.structure.V, seq, D)


def test_writing_a_432_point_product_peaks_below_two_and_a_half_texts(product_432):
    """`write_structure` of the 432-point product peaks at 2.5 times its
    text's length or less, and the text loads back to the same tables."""
    dp = up.d_product_structure(product_432, up.PrincipalUltrafilter(5, 0))
    text, peak = _traced_peak(lambda: write_structure(dp.structure, name="product"))
    assert len(text) > 1 << 20
    assert peak <= 2.5 * len(text), (peak, len(text))
    ws = Workspace()
    ws.load_text(text)
    loaded = ws.structure("product")
    assert loaded.points == dp.structure.points
    assert np.array_equal(loaded.dist, dp.structure.dist)
    assert np.array_equal(loaded.pred_tables["P"], dp.structure.pred_tables["P"])


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
                chain4.join_of(chain4.tsub[fl, fk] for fl in fam) for fk in fam)
            inf_side = chain4.meet_of(
                chain4.join_of(chain4.tsub[fk, fl] for fl in fam) for fk in fam)
            assert sup_side == chain4.bottom
            assert inf_side == chain4.bottom


def cauchy_sums_by_pairs(vq, family):
    """The slow twin of `sem.cauchy_sums_vanish`: both sums from the
    (..., m, m) table of every f_l ∸ f_k."""
    diffs = vq.tsub[family[..., :, None], family[..., None, :]]
    join, meet = vq.lattice.join, vq.lattice.meet
    sup_side = fold_table(meet, fold_table(join, diffs, -2), -1)
    inf_side = fold_table(meet, fold_table(join, diffs, -1), -2)
    return bool((sup_side == vq.bottom).all()), bool((inf_side == vq.bottom).all())


def test_cauchy_sums_vanish_against_the_pair_table_and_the_scalar_folds(roster, diamond_join):
    """Seeded families on 1 to 5 points with 0 to 2 leading axes over every
    roster carrier, the jump chain, the join chain and the diamond-join: the
    two folds give the pair table's verdicts and, at each leading position,
    the scalar folds of `cauchy_verdicts`; all four outcomes occur."""
    rng = np.random.default_rng(29)
    outcomes = set()
    for vq in [*roster.values(), jump_chain(), join_chain3(), diamond_join]:
        for m in range(1, 6):
            for lead in range(3):
                for _ in range(20):
                    shape = tuple(rng.integers(1, 4, size=lead).tolist()) + (m,)
                    family = rng.integers(0, vq.size, size=shape).astype(np.int32)
                    verdict = sem.cauchy_sums_vanish(vq, family)
                    assert verdict == cauchy_sums_by_pairs(vq, family), (vq.name, family)
                    folds = [cauchy_family_verdicts(vq, fam) for fam in
                             family.reshape(-1, m).tolist()]
                    assert verdict == tuple(map(all, zip(*folds))), (vq.name, family)
                    outcomes.add(verdict)
    assert len(outcomes) == 4


def test_a_144_point_hypothesis_in_bounded_memory(product_432):
    """The one-variable hypothesis on the 144-point product of the first
    four factors, its body's table held, peaks under 4 MiB: no table is
    larger than the family, where the pair table had 144³ cells."""
    dp = up.d_product_structure(product_432[:4], up.PrincipalUltrafilter(4, 1))
    phi = F.parse_formula("(sup x1 (d x0 x1))", dp.structure.sig, dp.structure.V)
    dp.structure.evaluator(phi.span)(phi.body)
    verdict, peak = _traced_peak(lambda: up.los_hypothesis_check(dp.structure, phi))
    assert dp.structure.m == 144 and verdict == (True, True)
    assert peak < 4 << 20, peak


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


def test_compactness_evaluates_each_condition_once_per_candidate(chain4, sig, monkeypatch):
    """|candidates| x |conditions| calls of `satisfies` pick the factors,
    then one per condition on the D-product; the picks are those of the
    first candidate that models each subset."""
    def build(name, pvals):
        space = sp.validate_space(chain4, ["u", "v"], [[0, 2], [2, 0]])
        return sem.validate_structure(space, sig, {"P": pvals},
                                      const_points={"c": 0}, name=name)

    candidates = [build("one", [0, 2]), build("two", [2, 2]), build("both", [0, 0])]
    conds = [sem.Condition(F.parse_formula(text, sig, chain4))
             for text in ("(P c)", "(sup x0 (P x0))")]
    calls = []

    def counted(struct, cond):
        calls.append(struct)
        return sem.satisfies(struct, cond)

    monkeypatch.setattr(up, "satisfies", counted)
    result = up.compactness_build(conds, candidates)
    assert len(calls) == len(candidates) * len(conds) + len(conds)
    assert all(s in candidates for s in calls[:len(candidates) * len(conds)])
    assert result.subsets == [(), (0,), (1,), (0, 1)]
    assert result.factor_names == ["one", "one", "both", "both"]


def test_compactness_unsatisfiable_subset(chain4, sig, factors):
    impossible = sem.Condition(F.parse_formula("(val 4)", sig, chain4))
    with pytest.raises(NotFinitelySatisfiable):
        up.compactness_build([impossible], factors)


def _rebuilt(phi, sig, vq):
    """φ parsed again from its text: equal, but in no pool."""
    out = F.parse_formula(F.print_formula(phi, vq), sig, vq)
    assert out == phi and out._pool is None
    return out


def test_the_benchmark_sized_pool_runs_stacked_on_a_27_point_product(chain4, monkeypatch):
    """The `los` benchmark's pool (depth 2, one variable: 246 formulas) on a
    product of three 3-point factors: the product's evaluator and each
    factor's evaluate only the pool's two atoms one node at a time and hold
    the pool's run as their one memo entry, both sides of every report are
    rows of the product's `LosTable` of the pool, and every report equals
    that of the same formula rebuilt outside the pool."""
    corpus = _seeded_corpus(chain4, (3, 3, 3), 32)
    sig = corpus[0].sig
    pool = sem.enumerate_formulas(sig, chain4, 2, 1)
    assert len(pool) == 246
    nodes = {}
    node = sem.TableEvaluator._node
    monkeypatch.setattr(sem.TableEvaluator, "_node", lambda self, phi: nodes.setdefault(
        id(self), []).append(phi) or node(self, phi))
    dp = up.d_product_structure(corpus, up.PrincipalUltrafilter(3, 1))
    assert dp.structure.m == 27
    reports = up.los_sweep(dp, pool)
    evaluators = [s.evaluator(1) for s in [dp.structure] + corpus]
    assert sorted(nodes) == sorted(map(id, evaluators))
    assert all(got == pool[:2] for got in nodes.values())
    assert all(list(e.memo) == [id(pool[0]._pool[0])] for e in evaluators)
    table = dp.los_table(pool[0]._pool[0])
    assert all(report.left is table.left[row] and report.right is table.right[row]
               for row, report in enumerate(reports))
    for phi, report in zip(pool, reports):
        _same_report(report, up.los_check(dp, _rebuilt(phi, sig, chain4)), chain4)


def test_los_reports_of_pooled_formulas_equal_those_rebuilt_outside_the_pool(chain4,
                                                                            monkeypatch):
    """On a seeded sample of products of widths 1 to 3 over four seeded
    structures of 1 to 3 points, with pools of depth 2 over one variable
    and of depth 1 over two variables and a constant (whose nodes of span 1
    are read from the evaluator of the pool's span 2), every report of a
    pooled formula equals that of the formula rebuilt outside the pool, and
    that of the pooled formula read one node at a time under a CELL_BUDGET
    below every pool's stacked run. Each sweep builds its structures anew,
    so no evaluator is shared between them."""
    sig_c = F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))], constants=["c"])
    products = random.Random(41).sample(_every_product(range(4)), 8)

    def sweep(formulas, sig):
        corpus = _seeded_corpus(chain4, (1, 2, 3, 3), 41)
        if sig is sig_c:
            corpus = [sem.validate_structure(s.space, sig, s.pred_tables,
                                             const_points={"c": 0}, name=s.name)
                      for s in corpus]
        out = []
        for combo, gen in products:
            dp = up.d_product_structure([corpus[i] for i in combo],
                                        up.PrincipalUltrafilter(len(combo), gen))
            reports = [up.los_check(dp, phi) for phi in formulas]
            # the pools whose stacked run an evaluator of the sweep holds
            held = {key for s in [dp.structure] + corpus for e in s._evaluators.values()
                    for key, _, _ in e.memo.values() if isinstance(key, sem.FormulaPool)}
            out.append((reports, held))
        return out

    sig_p = _seeded_corpus(chain4, (1,), 41)[0].sig
    for sig, pool in ((sig_p, sem.enumerate_formulas(sig_p, chain4, 2, 1)),
                      (sig_c, sem.enumerate_formulas(sig_c, chain4, 1, 2))):
        assert pool[0]._pool[0].span == 1 + (sig is sig_c)
        stacked = sweep(pool, sig)
        assert all(held == {pool[0]._pool[0]} for _, held in stacked)
        rebuilt = sweep([_rebuilt(phi, sig, chain4) for phi in pool], sig)
        with monkeypatch.context() as patch:
            patch.setattr(sp, "CELL_BUDGET", 4 * len(pool) - 1)
            alone = sweep(pool, sig)
        assert all(held == set() for _, held in rebuilt + alone)
        for (got, _), *wants in zip(stacked, rebuilt, alone):
            for want, _ in wants:
                for a, b in zip(got, want):
                    _same_report(a, b, chain4)


def test_a_partly_filled_table_reads_as_one_node_at_a_time(chain4, monkeypatch):
    """Two products on one (carrier, index count, generator) with
    different factors: the first one's sweep of a depth-1 pool fills part
    of the shared D-limit table, so the second one's `LosTable` of the
    depth-2 pool finds the D-limits of some rows complete and of others
    not. Its reports equal those read one node at a time under a
    CELL_BUDGET that refuses every pool run and the codes but keeps the
    D-limit table, and its sweep sends the same rows to dlim_batch, in the
    same order, as the sweep one node at a time, which fills per formula."""
    corpus = _seeded_corpus(chain4, (2, 3, 2), 22)
    small, pool = (sem.enumerate_formulas(corpus[0].sig, chain4, depth, 1) for depth in (1, 2))
    D = up.PrincipalUltrafilter(2, 1)
    dlim_batch = up.dlim_batch

    def sweep():
        """The second product's `LosTable` before its sweep, its reports and
        the rows its sweep sends to dlim_batch."""
        rows = []

        def counted(vq, seqs, D):
            rows.append(np.asarray(seqs).tolist())
            return dlim_batch(vq, seqs, D)

        empty_limit_tables(monkeypatch, chain4)
        up.los_sweep(up.d_product_structure(corpus[:2], D), small)
        dp = up.d_product_structure(corpus[1:], D)
        table = dp.los_table(pool[0]._pool[0])
        right = None if table.right is None else list(table.right)
        with monkeypatch.context() as patch:
            patch.setattr(up, "dlim_batch", counted)
            reports = up.los_sweep(dp, pool)
        return table, right, reports, rows

    table, right, reports, rows = sweep()
    assert table.left is not None and right is not None
    pending = [row for row, values in enumerate(right) if values is None]
    assert 0 < len(pending) < len(pool)
    assert all(reports[row].right is table.right[row] for row in range(len(pool)))
    assert rows
    with monkeypatch.context() as patch:
        # a 6-point product: above the 5^2 D-limit table, below the 246·6 codes
        patch.setattr(sp, "CELL_BUDGET", 4 * len(pool) - 1)
        alone, _, want, alone_rows = sweep()
    assert alone.left is None and alone.right is None
    assert rows == alone_rows
    for got, wanted in zip(reports, want):
        _same_report(got, wanted, chain4)


def _unpooled(pool):
    """The pool's formulas rebuilt node by node: equal, in no pool, and
    sharing their rebuilt subformulas as the pool's formulas share theirs,
    so that an evaluator evaluates each rebuilt node once."""
    made = {}

    def rebuild(value):
        if type(value) is tuple:
            return tuple(map(rebuild, value))
        if not isinstance(value, F.Formula):
            return value
        hit = made.get(id(value))
        if hit is None:
            hit = made[id(value)] = type(value)(*[rebuild(getattr(value, name))
                                                  for name in value.__match_args__])
        return hit

    out = [rebuild(phi) for phi in pool]
    assert out == pool and all(phi._pool is None for phi in out)
    return out


def _drawn_structure(data, vq, m, sig, name):
    """A drawn structure on m points: a drawn distance table closed to a
    space, a drawn P (made constant when it breaks P's modulus) and the
    point of each constant."""
    values = st.integers(0, vq.size - 1)
    dist = [[vq.bottom if x == y else data.draw(values) for y in range(m)] for x in range(m)]
    space = sp.validate_space(vq, ["%s%d" % (name, i) for i in range(m)],
                              metric_closure(vq, dist))
    consts = {c: data.draw(st.integers(0, m - 1)) for c in sig.constants}
    P = [data.draw(values) for _ in range(m)]
    try:
        return sem.validate_structure(space, sig, {"P": P}, const_points=consts, name=name)
    except ModulusViolated:
        return sem.validate_structure(space, sig, {"P": [P[0]] * m}, const_points=consts,
                                      name=name)


@pytest.mark.parametrize("name", ["bool2", "chain:3", "chain:4"])
@settings(max_examples=5, deadline=None)
@given(depth=st.integers(0, 2), variables=st.integers(0, 2), data=st.data())
def test_drawn_pooled_los_reports_equal_those_rebuilt_and_read_one_node_at_a_time(
        roster, name, depth, variables, data):
    """On a drawn product of width 1 to 3 and any generator over a drawn
    corpus of 1 to 3 structures on 1 to 3 points, with a pool of depth at
    most 2 over at most 2 variables (and the constant c when there is
    none), every report read from the product's `LosTable` equals that of
    the formula rebuilt outside the pool and that of the pooled formula
    read one node at a time under a CELL_BUDGET below every pool's stacked
    run: ``==`` compares every field, hypothesis order included, and
    `_same_report` also the lines and entries of up to 20 drawn rows (on
    all 5,238 reports of a 27-point product they took about 50 s). A side
    is a row of the table exactly when its gate admits it. Each sweep builds its structures anew on an
    empty set of D-limit tables, so no evaluator or D-limit is shared
    between them."""
    vq = roster[name]
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))],
                      constants=[] if variables else ["c"])
    corpus = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    combo = data.draw(st.lists(st.integers(0, len(corpus) - 1), min_size=1, max_size=3))
    gen = data.draw(st.integers(0, len(combo) - 1))
    drawn = [_drawn_structure(data, vq, m, sig, "ABC"[i]) for i, m in enumerate(corpus)]
    pool = sem.enumerate_formulas(sig, vq, depth, variables)

    def sweep(formulas):
        structs = [sem.validate_structure(s.space, sig, s.pred_tables,
                                          const_points=s.const_points, name=s.name)
                   for s in drawn]
        with mock.patch.object(vq, "_dlimits", {}, create=True):
            dp = up.d_product_structure([structs[i] for i in combo],
                                        up.PrincipalUltrafilter(len(combo), gen))
            return dp, up.los_sweep(dp, formulas)

    dp, stacked = sweep(pool)
    table = dp.los_table(pool[0]._pool[0])
    T, span = dp.structure.m, pool[0]._pool[0].span
    assert (table.left is not None) == pool[0]._pool[0].admitted(T, 1)
    assert (table.right is not None) == (
        len(pool) * T ** span <= sp.CELL_BUDGET
        and all(pool[0]._pool[0].admitted(f.m, 1) for f in dp.factors))
    for row, report in enumerate(stacked):
        assert table.left is None or report.left is table.left[row]
        assert table.right is None or report.right is table.right[row]
    _, rebuilt = sweep(_unpooled(pool))
    with mock.patch.object(sp, "CELL_BUDGET", 4 * len(pool) - 1):
        alone_dp, alone = sweep(pool)
        alone_table = alone_dp.los_table(pool[0]._pool[0])
        assert alone_table.left is None and alone_table.right is None
    for got, *wants in zip(stacked, rebuilt, alone):
        assert all(got == want for want in wants), got.formula
    rows = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=20, unique=True))
    for row in rows:
        for want in (rebuilt[row], alone[row]):
            _same_report(stacked[row], want, vq)
