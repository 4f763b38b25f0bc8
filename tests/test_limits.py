"""Size limits by cost: every numpy kernel computes its cost in cell
operations from its input sizes and refuses, naming the cost and the
budget, before it allocates. The budget is patched down, so no test runs
anything near the real limit."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import lattice as lat
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import textio
from cqlogic import ultraproduct as up
from cqlogic.errors import NotATopology, SizeLimit
from cqlogic.freelocale import FreeLocale

from conftest import space_corpus


def _discrete(vq, m, name="p"):
    return sp.validate_space(vq, ["%s%d" % (name, i) for i in range(m)],
                             [[vq.bottom if x == y else vq.top for y in range(m)]
                              for x in range(m)])


def _structure(vq, m, name):
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
    return sem.validate_structure(_discrete(vq, m, name), sig,
                                  {"P": np.zeros(m, dtype=np.int32)}, name=name)


def _refuses(monkeypatch, budget, message, call):
    monkeypatch.setattr(sp, "WORK_BUDGET", budget)
    with pytest.raises(SizeLimit) as info:
        call()
    assert str(info.value) == message


def _never(*args, **kwargs):
    raise AssertionError("reached after the cost check")


class _NeverTable:
    def __getitem__(self, key):
        _never()


def test_validate_space_refuses_by_cost(chain4, monkeypatch):
    dist = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    monkeypatch.setattr(sp, "WORK_BUDGET", 27)
    assert sp.validate_space(chain4, "abc", dist).m == 3
    monkeypatch.setattr(sp, "_triangle_witness", _never)
    _refuses(monkeypatch, 26, "triangle check on 3 points costs 27 cell operations "
             "(budget 26)", lambda: sp.validate_space(chain4, "abc", dist))


def test_d_product_space_refuses_by_cost(chain4, monkeypatch):
    # 4 points: 16 distances x 5 candidates x 5 radii x 2 indices, then 4^3
    factors = [_discrete(chain4, 2), _discrete(chain4, 2, "q")]
    D = up.PrincipalUltrafilter(2, 0)
    monkeypatch.setattr(sp, "WORK_BUDGET", 864)
    assert up.d_product_space(factors, D).m == 4
    monkeypatch.setattr(up, "dlim_batch", _never)
    monkeypatch.setattr(up, "validate_space", _never)
    _refuses(monkeypatch, 863, "a D-product of 4 points costs 864 cell operations "
             "(budget 863)", lambda: up.d_product_space(factors, D))


def test_d_product_structure_refuses_before_building_the_product(chain4, monkeypatch):
    # the space's 864, P's modulus check 4^2 x 1 + 5^2 x 5 and its D-limits
    # 4 x 5 x 5 x 2
    factors = [_structure(chain4, 2, "a"), _structure(chain4, 2, "b")]
    D = up.PrincipalUltrafilter(2, 1)
    monkeypatch.setattr(sp, "WORK_BUDGET", 1205)
    assert up.d_product_structure(factors, D).structure.m == 4
    for name in ("d_product_space", "validate_space", "validate_structure", "dlim_batch"):
        monkeypatch.setattr(up, name, _never)
    _refuses(monkeypatch, 1204, "a D-product structure on 4 points costs 1205 cell "
             "operations (budget 1204)", lambda: up.d_product_structure(factors, D))


def test_eleven_by_ten_by_ten_product_is_refused_at_once(chain4, monkeypatch):
    """1,100 points: the triangle check alone is 1.331e9 cells, past the
    real budget, so nothing of the product is built."""
    factors = [_structure(chain4, m, name) for m, name in ((11, "a"), (10, "b"), (10, "c"))]
    for name in ("d_product_space", "validate_space", "validate_structure"):
        monkeypatch.setattr(up, name, _never)
    start = time.perf_counter()
    with pytest.raises(SizeLimit) as info:
        up.d_product_structure(factors, up.PrincipalUltrafilter(3, 0))
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == ("a D-product structure on 1100 points costs 1423042625 "
                               "cell operations (budget %d)" % sp.WORK_BUDGET)


def test_table_evaluator_refuses_its_window_by_cost(chain4, monkeypatch):
    struct = _structure(chain4, 3, "m")
    monkeypatch.setattr(sp, "WORK_BUDGET", 9)
    assert sem.TableEvaluator.of([struct, struct], 1).m == 3
    assert sem.TableEvaluator.of([struct], 2).k == 2
    _refuses(monkeypatch, 8, "a window of 2 variables over 1 x 3 points costs 9 cell "
             "operations (budget 8)", lambda: sem.TableEvaluator.of([struct], 2))
    _refuses(monkeypatch, 8, "a window of 2 variables over 1 x 3 points costs 9 cell "
             "operations (budget 8)", lambda: sem.eval_table(struct, F.DistAtom(
                 F.Var(0), F.Var(1))))


def test_register_connective_refuses_by_cost(chain4, monkeypatch):
    # 25 argument pairs squared, times 2 coordinates, and the 5 x 5 x 5 radius
    # table of first_failure
    vee = chain4.lattice.join
    monkeypatch.setattr(sp, "WORK_BUDGET", 1375)
    F.register_connective(chain4, "vee", vee, F.identity_modulus(chain4))
    _refuses(monkeypatch, 1374, "modulus check of connective vee costs 1375 cell "
             "operations (budget 1374)",
             lambda: F.register_connective(chain4, "vee", vee, F.identity_modulus(chain4)))


def test_validate_structure_refuses_before_any_modulus_check(chain4, monkeypatch):
    # P: 3^2 x 1 + 5^2 x 5 and f the same, added up before either is checked
    ident = F.identity_modulus(chain4)
    sig = F.Signature(predicates=[("P", 1, ident)], functions=[("f", 1, ident)])
    space = _discrete(chain4, 3)
    tables = ({"P": [0, 0, 0]}, {"f": [0, 1, 2]})
    monkeypatch.setattr(sp, "WORK_BUDGET", 268)
    sem.validate_structure(space, sig, *tables)
    monkeypatch.setattr(sem, "modulus_witness", _never)
    _refuses(monkeypatch, 267, "checking the moduli of M costs 268 cell operations (budget 267)",
             lambda: sem.validate_structure(space, sig, *tables, name="M"))


def test_dlim_batch_charges_its_own_cost(chain4, monkeypatch):
    # 4 rows x 5 candidates x 5 radii x 2 indices
    seqs = np.array([[0, 0], [1, 2], [4, 4], [3, 0]])
    D = up.PrincipalUltrafilter(2, 0)
    monkeypatch.setattr(sp, "WORK_BUDGET", 200)
    assert up.dlim_batch(chain4, seqs, D).tolist() == [0, 1, 4, 3]
    _refuses(monkeypatch, 199, "4 D-limits over 2 indices costs 200 cell operations "
             "(budget 199)", lambda: up.dlim_batch(chain4, seqs, D))


def test_los_sweep_charges_its_reports_before_the_first_formula(chain4, monkeypatch):
    # the 70 formulas of depth 1 over two variables, of span 2, on the
    # 2 x 3 = 6 product points: 70 · 6^2 cells
    dp = up.d_product_structure([_structure(chain4, 2, "a"), _structure(chain4, 3, "b")],
                                up.PrincipalUltrafilter(2, 1))
    pool = sem.enumerate_formulas(dp.structure.sig, chain4, 1, 2)
    assert len(pool) == 70 and max(phi.span for phi in pool) == 2
    monkeypatch.setattr(sp, "WORK_BUDGET", 70 * 36)
    assert all(r.all_equal for r in up.los_sweep(dp, pool))
    assert up.los_sweep(dp, []) == []
    monkeypatch.setattr(up, "los_check", _never)
    _refuses(monkeypatch, 70 * 36 - 1, "a Łoś sweep of 70 formulas of span 2 on 6 points "
             "costs 2520 cell operations (budget 2519)", lambda: up.los_sweep(dp, pool))


def test_is_ultrafilter_refuses_before_any_subset(monkeypatch):
    # 3 indices: the 3·2^3 bits of the subset masks, their 2^3 complements,
    # then the meet table of 4^3 cells
    D = up.PrincipalUltrafilter(3, 1)
    monkeypatch.setattr(sp, "WORK_BUDGET", 24 + 8 + 64)
    assert up.is_ultrafilter(D, 3)
    monkeypatch.setattr(D, "contains_sets", _never)
    _refuses(monkeypatch, 95, "the ultrafilter axioms on 3 indices costs 96 cell "
             "operations (budget 95)", lambda: up.is_ultrafilter(D, 3))


def test_compactness_refuses_its_subset_scan_before_listing_a_subset(chain4, monkeypatch):
    # 2 conditions and 2 candidates: the 2^2 subsets scanned against each
    # candidate, 8 loop iterations of 64 cells
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))])
    conds = [sem.Condition(F.parse_formula(text, sig, chain4))
             for text in ("(sup x0 (P x0))", "(inf x0 (P x0))")]
    candidates = [_structure(chain4, 1, "a"), _structure(chain4, 2, "b")]
    monkeypatch.setattr(up, "combinations", _never)
    _refuses(monkeypatch, 511, "compactness over 2 conditions and 2 candidates costs 512 cell "
             "operations (budget 511)", lambda: up.compactness_build(conds, candidates))


def _conditions(chain4, count):
    """``count`` conditions (sup x0 (Pi x0)) and one 2-point candidate that
    satisfies them all: a D-product of 2^count factors."""
    sig = F.Signature(predicates=[("P%d" % i, 1, F.identity_modulus(chain4))
                                  for i in range(count)])
    space = _discrete(chain4, 2)
    candidate = sem.validate_structure(space, sig, {p: np.zeros(2, dtype=np.int32)
                                                    for p in sig.predicates}, name="c")
    conds = [sem.Condition(F.parse_formula("(sup x0 (P%d x0))" % i, sig, chain4))
             for i in range(count)]
    return conds, [candidate]


@pytest.mark.parametrize("what, call", [
    (r"the ultrafilter axioms on 8000 indices costs at least 2\^16000",
     lambda chain4: up.is_ultrafilter(up.PrincipalUltrafilter(8000, 0), 8000)),
    (r"enumerating bodies on 80 points over chain:4 costs at least 2\^\d+",
     lambda chain4: sem.enumerate_bodies(chain4, 80, F.identity_modulus(chain4))),
    (r"a D-product structure on at least 2\^8192 points costs at least 2\^\d+",
     lambda chain4: up.compactness_build(*_conditions(chain4, 13))),
    (r"a D-product structure on at least 2\^32768 points costs at least 2\^\d+",
     lambda chain4: up.compactness_build(*_conditions(chain4, 15))),
], ids=["ultrafilter-8000", "bodies-80", "compactness-13", "compactness-15"])
def test_costs_too_long_to_print_are_refused_by_their_bit_length(chain4, what, call):
    """A cost of more than 4,300 decimal digits, which Python will not print
    with %d, is refused as a SizeLimit naming its bit length and the budget;
    a point count in the text (2^8192 and 2^32768 D-product points) is
    printed the same way, so the message stays short."""
    with pytest.raises(SizeLimit, match=r"^%s cell operations \(budget 134217728\)$" % what) as exc:
        call(chain4)
    assert len(str(exc.value)) < 300


def test_product_space_refuses_before_building_its_table(chain4, monkeypatch):
    # 2 x 2 points: the triangle check of 4 points, as validate_space charges it
    one = _discrete(chain4, 2)
    monkeypatch.setattr(sp, "WORK_BUDGET", 64)
    assert sp.product_space(one, one).m == 4
    monkeypatch.setattr(sp, "validate_space", _never)
    monkeypatch.setattr(chain4, "lattice", SimpleNamespace(join=_NeverTable()))
    _refuses(monkeypatch, 63, "triangle check on 4 points costs 64 cell operations "
             "(budget 63)", lambda: sp.product_space(one, one))


def _far_masks(V, m):
    """m points over the principal masks V, each pair at ↓∅ (mask 0), above
    every other mask."""
    return [[V.bottom if x == y else 0 for y in range(m)] for x in range(m)]


def test_symbolic_space_is_refused_before_its_triangle_loop(monkeypatch):
    """The principal masks answer each triangle cell by one bitwise numpy
    operation, so their 3^3 triples are charged as cells, as on a table."""
    V = FreeLocale(("a", "b")).principals()
    dist = _far_masks(V, 3)
    monkeypatch.setattr(sp, "WORK_BUDGET", 27)
    assert sp.validate_space(V, "abc", dist).m == 3
    monkeypatch.setattr(sp, "_triangle_witness", _never)
    _refuses(monkeypatch, 26, "triangle check on 3 points costs 27 cell operations "
             "(budget 26)", lambda: sp.validate_space(V, "abc", dist))


def test_induced_topology_refuses_before_its_scan(monkeypatch):
    # 3 points and the one radius 0 of the principal masks on {a, b}, where
    # 0 ≺ 0: 9 ≺ cells, the up-set test of 2^3 masks x 3 discs and 4 x 8^2
    # pairs of opens
    V = FreeLocale(("a", "b")).principals()
    space = sp.validate_space(V, "abc", _far_masks(V, 3))
    monkeypatch.setattr(sp, "WORK_BUDGET", 9 + 24 + 256)
    assert len(sp.induced_topology(space).opens) == 8
    monkeypatch.setattr(V.lattice, "cwb", _NeverTable())
    _refuses(monkeypatch, 288, "induced topology on 3 points costs 289 cell operations "
             "(budget 288)", lambda: sp.induced_topology(space))


def test_eleven_point_induced_topology_fits_the_real_budget(bool2):
    """The 2^11 opens of the discrete space: 121 + 22,528 + 4·2^22 cells."""
    assert sp.topology_cost(11, 1) == 16799865 <= sp.WORK_BUDGET
    assert len(sp.induced_topology(_discrete(bool2, 11)).masks) == 2048


def test_topology_theorems_refuse_before_any_topology(bool2, monkeypatch):
    # 2 points, the 2 radii of bool2, O = 4 opens: three induced topologies of
    # 8 + 16 + 64 cells, then the statements' cells: O³ = 64 (u ⊆ c ⊆ a),
    # (4 + 2·2)·O² = 128, (2² + 4·2 + 3)·O = 60, 2² = 4 and 2·(3·4 + 2 + 2·2·4) = 60
    space = _discrete(bool2, 2)
    monkeypatch.setattr(sp, "WORK_BUDGET", 3 * 88 + 64 + 128 + 60 + 4 + 60)
    assert sp.check_topology_theorems(space).all_pass
    monkeypatch.setattr(sp, "symmetric_space", _never)
    _refuses(monkeypatch, 579, "topology theorems on 2 points costs 580 cell operations "
             "(budget 579)", lambda: sp.check_topology_theorems(space))


def test_topology_theorems_admit_the_discrete_space_on_eight_points(bool2, monkeypatch):
    """τ = τ* = τ^s holds all 2^8 subsets: 18,921,040 cells, 2^24 of them the
    u ⊆ c ⊆ a product. Nine points cost 143,239,215, refused before any
    topology."""
    assert sp.theorem_cost(8, 2) == 18921040
    assert sp.check_topology_theorems(_discrete(bool2, 8)).all_pass
    monkeypatch.setattr(sp, "induced_topology", _never)
    with pytest.raises(SizeLimit, match="^topology theorems on 9 points costs 143239215 "
                                        "cell operations"):
        sp.check_topology_theorems(_discrete(bool2, 9))


def test_validate_topology_refuses_before_its_pairs(monkeypatch):
    # the Sierpinski space: 3 opens and 3 members to convert to masks, then
    # 4 x 3^2 pairs of opens
    sierpinski = ["a", "b"], [(), ("b",), ("a", "b")]
    monkeypatch.setattr(sp, "WORK_BUDGET", sp.loop_cost(6) + 36)
    assert sp.validate_topology(*sierpinski).masks == (0, 2, 3)
    monkeypatch.setattr(sp, "_check_closed", _never)
    _refuses(monkeypatch, 419, "validating a topology on 2 points with 3 opens costs 420 "
             "cell operations (budget 419)", lambda: sp.validate_topology(*sierpinski))


def test_thirteen_point_discrete_topology_is_refused_before_any_pair(monkeypatch):
    """The 2^13 opens: 4·2^26 pairs, about 4 s of the closure check."""
    points = ["p%d" % i for i in range(13)]
    opens = [[p for x, p in enumerate(points) if mask >> x & 1] for mask in range(1 << 13)]
    monkeypatch.setattr(sp, "_check_closed", _never)
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="^validating a topology on 13 points with 8192 opens "
                                        "costs 272367616 cell operations"):
        sp.validate_topology(points, opens)
    assert time.perf_counter() - start < 1.0


def test_space_from_topology_refuses_before_its_distances(monkeypatch):
    # the 2^2·3 cells of the masks of 2^2 distances over 3 opens, then the 2^3
    # triangle cells over the materialized locale, which is validated (and
    # charged) once per process, here before the budget is patched down
    sierpinski = sp.validate_topology("ab", [frozenset(), frozenset("b"), frozenset("ab")])
    FreeLocale(["U0", "U1", "U2"]).materialize()
    monkeypatch.setattr(sp, "WORK_BUDGET", 20)
    assert sp.space_from_topology(sierpinski).m == 2
    monkeypatch.setattr(sp, "_by_size_then_names", _never)
    _refuses(monkeypatch, 19, "the space of a topology on 2 points with 3 opens costs 20 "
             "cell operations (budget 19)", lambda: sp.space_from_topology(sierpinski))


def test_enumerate_topologies_refuses_before_its_scan(monkeypatch):
    # on 2 points the generator's two steps cost 0 + 1 and 2 + 4 (the
    # up-sets of the parents and their (D, U) table), then the up-set test of
    # the 4 preorders 4 x 2^2 subsets x 2 points: each refused before its call
    monkeypatch.setattr(sp, "WORK_BUDGET", 32)
    assert len(sp.enumerate_topologies("ab")) == 4
    calls = []
    upsets = sp._upsets
    monkeypatch.setattr(sp, "_upsets", lambda *args: calls.append(args) or upsets(*args))
    _refuses(monkeypatch, 31, "enumerating topologies on 2 points costs 32 cell "
             "operations (budget 31)", lambda: sp.enumerate_topologies("ab"))
    assert len(calls) == 2
    calls.clear()
    _refuses(monkeypatch, 5, "enumerating topologies on 2 points costs 6 cell "
             "operations (budget 5)", lambda: sp.enumerate_topologies("ab"))
    assert len(calls) == 1


def test_cwb_oracle_refuses_before_its_subset_meets(bool2, monkeypatch):
    # n = 2: the 2^2 subset meets, then per subset one ≤ test and up to 2 members
    lattice = bool2.lattice
    monkeypatch.setattr(sp, "WORK_BUDGET", sp.loop_cost(16))
    assert lat.co_well_below_oracle(lattice, 0, 1)
    monkeypatch.setattr(lat, "_subset_meets", _never)
    _refuses(monkeypatch, 1023, "the ≺ oracle on 2 elements costs 1024 cell operations "
             "(budget 1023)", lambda: lat.co_well_below_oracle(lattice, 0, 1))


def test_sixteen_point_induced_topology_is_refused_at_once(bool2):
    """Up to 4^16 pairs of opens, minutes of the closure check: refused
    before any of it at the real budget."""
    space = _discrete(bool2, 16)
    start = time.perf_counter()
    with pytest.raises(SizeLimit) as info:
        sp.induced_topology(space)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == ("induced topology on 16 points costs 17180918016 cell "
                               "operations (budget %d)" % sp.WORK_BUDGET)


def test_topologies_on_four_points_fit_the_real_budget():
    assert len(sp.enumerate_topologies("abcd")) == 355


def test_enumerate_bodies_refuses_by_cost(bool2, monkeypatch):
    # 2^6 tables x (3^3 + 3!·3^2) + 2^6·2^3 bodies x (3^2 + 3!·3)
    ident = F.identity_modulus(bool2)
    monkeypatch.setattr(sp, "WORK_BUDGET", 19008)
    assert len(sem.enumerate_bodies(bool2, 3, ident)[0]) == 82
    monkeypatch.setattr(sem, "_triangle_witness", _never)
    _refuses(monkeypatch, 19007, "enumerating bodies on 3 points over bool2 costs 19008 "
             "cell operations (budget 19007)", lambda: sem.enumerate_bodies(bool2, 3, ident))


@pytest.mark.parametrize("spec, m", [("bool2", 3), ("chain:4", 2), ("chain:4", 3)])
def test_enumerate_bodies_in_small_blocks_gives_the_same_bodies(roster, monkeypatch, spec, m):
    """The modulus test and the permuted keys run over blocks of candidate
    tables: one table per block, a few per block, and all at once agree."""
    vq = roster[spec]
    ident = F.identity_modulus(vq)
    whole = sem.enumerate_bodies(vq, m, ident)
    for budget in (1, 7 * m ** 2 * vq.size ** m):
        monkeypatch.setattr(sp, "CELL_BUDGET", budget)
        blocked = sem.enumerate_bodies(vq, m, ident)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(blocked, whole))


def _induced_or_refusal(space):
    try:
        return sp.induced_topology(space)
    except NotATopology as exc:
        return str(exc)


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_topology_kernels_in_small_blocks_give_the_same_topologies(bool2, diamond_join,
                                                                   monkeypatch, budget):
    """The up-set kernel over blocks of families and of subsets (diamond_join
    has three radii), and the closure check over blocks of rows: one cell
    per block, a few, and all at once give the same topologies and
    refusals."""
    spaces = space_corpus(diamond_join, 12, 4, seed=1) + space_corpus(bool2, 4, 4, seed=8)
    whole = [_induced_or_refusal(X) for X in spaces]
    assert any(isinstance(t, str) for t in whole) and any(isinstance(t, sp.Topology) for t in whole)
    topologies = sp.enumerate_topologies("abcd")
    monkeypatch.setattr(sp, "CELL_BUDGET", budget)
    assert [_induced_or_refusal(X) for X in spaces] == whole
    assert sp.enumerate_topologies("abcd") == topologies
    assert all(sp.validate_topology(t.points, t.opens) == t for t in topologies)
    with pytest.raises(NotATopology, match=r"^not closed under union: \{b\}, \{c\}$"):
        sp.validate_topology("abcd", [set(), set("b"), set("c"), set("abcd")])


def test_enumerate_formulas_refuses_before_building_a_formula(bool2, monkeypatch):
    # one variable and P: 1 + 1 atoms, then 2 (the dual) + 2·3 (vee, wedge)
    # + 2·2 quantifications, each candidate a loop iteration
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(bool2))])
    monkeypatch.setattr(sp, "WORK_BUDGET", sp.loop_cost(14))
    assert len(sem.enumerate_formulas(sig, bool2, 1, 1)) == 14
    monkeypatch.setattr(sem, "Var", _never)
    _refuses(monkeypatch, 895, "enumerating formulas to depth 1 with max_free_vars=1 costs "
             "896 cell operations (budget 895)", lambda: sem.enumerate_formulas(sig, bool2, 1, 1))


def test_depth_four_pool_is_refused_at_once(chain4, monkeypatch):
    """One unary predicate over one variable, as `cql los-check --depth`
    enumerates it: depth 3 (61,414 formulas) is admitted, and depth 4 is
    refused before any formula is built at the real budget."""
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))])
    kit = sem.enumeration_kit(chain4)
    assert sp.loop_cost(sem.pool_bound(sig, 3, 1, kit)) <= sp.WORK_BUDGET
    monkeypatch.setattr(sem, "Var", _never)
    start = time.perf_counter()
    with pytest.raises(SizeLimit) as info:
        sem.enumerate_formulas(sig, chain4, 4, 1)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == ("enumerating formulas to depth 4 with max_free_vars=1 costs "
                               "332592116864 cell operations (budget %d)" % sp.WORK_BUDGET)


def test_pool_bound_holds_the_pools_it_admits(roster):
    """The recurrence bounds every pool that the suite and the command line
    build: at most 2 variables and depth 2, with and without a constant."""
    for spec in ("bool2", "chain:4", "freelocale:1"):
        vq = roster[spec]
        kit = sem.enumeration_kit(vq)
        for constants in ([], ["c"]):
            sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))], constants=constants)
            for depth, k in ((0, 2), (1, 1), (1, 2), (2, 1)):
                assert len(sem.enumerate_formulas(sig, vq, depth, k)) <= \
                    sem.pool_bound(sig, depth, k, kit)


def _chain_order(n):
    return np.fromfunction(lambda i, j: i <= j, (n, n), dtype=int)


def test_lattice_loader_charges_its_closure(monkeypatch):
    # 5 elements: 5^3 x (⌈log₂ 5⌉ + 1) for the squarings of the order
    text = "@lattice L\n@elements a b c d e\n" + "".join(
        "@leq %s %s\n" % pair for pair in zip("abcd", "bcde"))
    monkeypatch.setattr(sp, "WORK_BUDGET", 500)
    textio.Workspace().load_text(text)
    monkeypatch.setattr(textio, "_path_counts", _never)
    monkeypatch.setattr(textio, "validate_lattice", _never)
    _refuses(monkeypatch, 499, "closing the order of @lattice L on 5 elements costs 500 "
             "cell operations (budget 499)", lambda: textio.Workspace().load_text(text))


def test_validate_lattice_refuses_by_cost(monkeypatch):
    # 3 x 4^3: the transitivity and ≺ path counts and the bound tables
    monkeypatch.setattr(sp, "WORK_BUDGET", 192)
    assert lat.validate_lattice(_chain_order(4)).n == 4
    monkeypatch.setattr(lat, "_path_counts", _never)
    _refuses(monkeypatch, 191, "validating a lattice on 4 elements costs 192 cell "
             "operations (budget 191)", lambda: lat.validate_lattice(_chain_order(4)))


def test_validate_coquantale_refuses_by_cost(monkeypatch):
    # 18 x 4^3 + a loop of 4 iterations, the exhaustive checks included
    lattice = lat.validate_lattice(_chain_order(4))
    add = np.minimum(np.add.outer(np.arange(4), np.arange(4)), 3)
    monkeypatch.setattr(sp, "WORK_BUDGET", 1408)
    assert cq.validate_coquantale(lattice, add).value_flag
    monkeypatch.setattr(cq, "_tsub_table", _never)
    _refuses(monkeypatch, 1407, "validating a co-quantale on 4 elements costs 1408 cell "
             "operations (budget 1407)", lambda: cq.validate_coquantale(lattice, add))


def test_residuation_laws_refuse_by_cost(chain4, monkeypatch):
    # 14 x 5^3, and per each of the 32 subsets 4 x 5 loop iterations and 2 x 5^2
    monkeypatch.setattr(sp, "WORK_BUDGET", 44310)
    assert cq.check_residuation_laws(chain4).all_pass
    never = SimpleNamespace(size=5, bottom=0, name="never", add=_NeverTable(),
                            tsub=_NeverTable(),
                            lattice=SimpleNamespace(leq=_NeverTable(), elements="abcde"))
    _refuses(monkeypatch, 44309, "the residuation laws on 5 elements costs 44310 cell "
             "operations (budget 44309)", lambda: cq.check_residuation_laws(never))
    # sampled subsets are charged by their count
    monkeypatch.setattr(sp, "WORK_BUDGET", 14 * 125 + sp.loop_cost(4 * 5 * 10) + 2 * 25 * 10)
    assert cq.check_residuation_laws(chain4, exhaustive_subset_limit=4,
                                     sample_count=10).all_pass
