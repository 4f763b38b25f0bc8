"""Size limits by cost: every numpy kernel computes its cost in cell
operations from its input sizes and refuses, naming the cost and the
budget, before it allocates. The budget is patched down, so no test runs
anything near the real limit."""

import time

import numpy as np
import pytest

from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import ultraproduct as up
from cqlogic.errors import SizeLimit
from cqlogic.freelocale import FreeLocale


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


def test_product_space_refuses_before_building_its_table(chain4, monkeypatch):
    # 2 x 2 points: the triangle check of 4 points, as validate_space charges it
    one = _discrete(chain4, 2)
    monkeypatch.setattr(sp, "WORK_BUDGET", 64)
    assert sp.product_space(one, one).m == 4
    monkeypatch.setattr(sp, "validate_space", _never)
    monkeypatch.setattr(chain4, "join", _never)
    _refuses(monkeypatch, 63, "triangle check on 4 points costs 64 cell operations "
             "(budget 63)", lambda: sp.product_space(one, one))


def test_symbolic_space_is_refused_before_its_triangle_loop(monkeypatch):
    """The symbolic free locale checks the triangle law in a Python loop,
    so it stops where every scan over its spaces stops."""
    V = FreeLocale(("a", "b"))

    def validate(m):
        return sp.validate_space(V, ["p%d" % i for i in range(m)],
                                 [[V.bottom if x == y else V.top for y in range(m)]
                                  for x in range(m)])

    monkeypatch.setattr(sp, "_triangle_witness", _never)
    with pytest.raises(AssertionError, match="reached after the cost check"):
        validate(sp.TOPOLOGY_SCAN_MAX)
    with pytest.raises(SizeLimit) as info:
        validate(sp.TOPOLOGY_SCAN_MAX + 1)
    assert str(info.value) == "symbolic triangle check capped at 16 points"


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
        monkeypatch.setattr(sem, "CELL_BUDGET", budget)
        blocked = sem.enumerate_bodies(vq, m, ident)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(blocked, whole))
