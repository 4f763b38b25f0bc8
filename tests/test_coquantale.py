import random

import numpy as np
import pytest

from cqlogic import coquantale as cq
from cqlogic import lattice as lat
from cqlogic.errors import (NotMeetDistributive, BadIdentity, NotPositive,
                            NotValueCoquantale, SizeLimit, UnknownBuiltin)

from conftest import ROSTER_SPECS


def brute_tsub(vq, a, b):
    """Independent oracle: fold the meet of {r : r + b >= a} directly."""
    good = [r for r in vq.carrier() if vq.lattice.leq[a, vq.add[r, b]]]
    return vq.meet_of(good)


def brute_co_divisible(vq):
    """The definition itself: every a <= b admits some c with b = a + c."""
    return all(any(vq.add[a, c] == b for c in vq.carrier())
               for a in vq.carrier() for b in vq.carrier() if vq.lattice.leq[a, b])


# -- validation ---------------------------------------------------------------


def test_bool2_with_join_is_value_coquantale(bool2):
    assert bool2.value_flag
    assert bool2.add[0, 1] == 1 and bool2.add[1, 1] == 1


def test_broken_three_chain_rejected():
    order = np.fromfunction(lambda i, j: i <= j, (3, 3), dtype=int)
    lattice = lat.validate_lattice(order, ["0", "m", "1"])
    add = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 2]])  # m + m = 0
    with pytest.raises((NotMeetDistributive, BadIdentity)):
        cq.validate_coquantale(lattice, add)


def test_bad_identity_rejected():
    order = np.fromfunction(lambda i, j: i <= j, (2, 2), dtype=int)
    lattice = lat.validate_lattice(order, ["0", "1"])
    with pytest.raises(BadIdentity):
        cq.validate_coquantale(lattice, np.array([[1, 1], [1, 1]]))


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:           # compared by type and message
        return type(exc).__name__, str(exc)
    return None


def _random_monotone_table(rng, n):
    """A commutative table on the chain 0..n-1, monotone, with identity 0
    and top absorbing: + then distributes over meets but need not be
    associative."""
    while True:
        add = np.zeros((n, n), dtype=np.int32)
        for a in range(n):
            for b in range(a, n):
                if a == 0:
                    add[a, b] = b
                elif b == n - 1:
                    add[a, b] = n - 1
                else:
                    add[a, b] = rng.randrange(max(a, b), n)
                add[b, a] = add[a, b]
        if (np.diff(add, axis=0) >= 0).all() and (np.diff(add, axis=1) >= 0).all():
            return add


def test_reduced_axiom_checks_match_exhaustive_checks():
    """validate_coquantale decides meet distribution through ∸ and
    associativity on meet-irreducibles; its verdict, error and witness
    must be those of the exhaustive O(n³) checks, and its ∸ the fold."""
    from test_lattice import m3_lattice, random_lattices
    rng = random.Random(97531)
    cases = []
    for n in (3, 4, 5):
        order = np.fromfunction(lambda i, j: i <= j, (n, n), dtype=int)
        chain = lat.validate_lattice(order)
        cases.append((chain, np.minimum(np.add.outer(np.arange(n), np.arange(n)), n - 1)))
        cases += [(chain, _random_monotone_table(rng, n)) for _ in range(40)]
    for lattice in [m3_lattice()] + random_lattices(rng, 120):
        cases.append((lattice, lattice.join))
        broken = lattice.join.copy()
        a, b = rng.randrange(lattice.n), rng.randrange(lattice.n)
        if lattice.bottom not in (a, b):
            broken[a, b] = broken[b, a] = rng.randrange(lattice.n)
            cases.append((lattice, broken))
    outcomes = {}
    for lattice, add in cases:
        expected = _outcome(cq._check_axioms, lattice, np.asarray(add, dtype=np.int32))
        assert _outcome(cq.validate_coquantale, lattice, add) == expected
        key = expected[0] if expected else "valid"
        outcomes[key] = outcomes.get(key, 0) + 1
        if expected is None:
            vq = cq.validate_coquantale(lattice, add)
            for a in vq.carrier():
                for b in vq.carrier():
                    assert vq.tsub[a, b] == brute_tsub(vq, a, b)
    # every verdict is reached in earnest
    assert min(outcomes.get(k, 0) for k in
               ("valid", "NotAssociative", "NotMeetDistributive")) >= 20, outcomes


def test_roster_validates(roster):
    for spec, vq in roster.items():
        assert vq.size >= 1, spec


# -- truncated subtraction --------------------------------------------------------


def test_tsub_matches_brute_force_on_roster(roster, diamond_join, no_codiv):
    for vq in list(roster.values()) + [diamond_join, no_codiv]:
        if vq.size > 9:
            continue
        for a in vq.carrier():
            for b in vq.carrier():
                assert vq.tsub[a, b] == brute_tsub(vq, a, b), (vq.name, a, b)


def test_tsub_frozen_examples(roster):
    c4 = roster["chain:4"]
    assert c4.tsub[3, 1] == 2
    for vq in roster.values():
        for a in vq.carrier():
            for b in vq.carrier():
                if vq.lattice.leq[a, b]:
                    assert vq.tsub[a, b] == vq.bottom
            assert vq.tsub[a, vq.bottom] == a   # a - 0 = a


def test_adjunction_reflexive_instance(chain4):
    for a in chain4.carrier():
        assert chain4.lattice.leq[a, chain4.add[chain4.tsub[a, a], a]]


# -- residuation suite ---------------------------------------------------------------


def test_residuation_all_pass_on_roster(roster, diamond_join):
    for vq in list(roster.values()) + [diamond_join]:
        report = cq.check_residuation_laws(vq, exhaustive_subset_limit=9)
        assert report.all_pass, (vq.name, [r for r in report.results if not r.passed])


def test_residuation_sampling_mode_recorded(roster):
    report = cq.check_residuation_laws(roster["chain:8"], exhaustive_subset_limit=6,
                                       sample_count=50, seed=7)
    modes = {r.law: r.mode for r in report.results}
    assert modes["join-family"] == "sampled(seed=7, count=50)"
    assert report.seed == 7
    assert report.all_pass


def test_sampling_seed_from_environment(roster, monkeypatch):
    monkeypatch.setenv("CQL_SEED", "12345")
    report = cq.check_residuation_laws(roster["chain:8"], exhaustive_subset_limit=6)
    assert report.seed == 12345


# -- structure flags ------------------------------------------------------------------


def test_co_divisibility_characterization_matches_definition(roster, diamond_join, no_codiv):
    for vq in list(roster.values()) + [diamond_join, no_codiv]:
        if vq.size > 9:
            continue
        assert cq.is_co_divisible(vq) == brute_co_divisible(vq), vq.name


def test_chains_co_divisible_with_arithmetic_differences(roster):
    for spec in ("chain:2", "chain:4", "chain:8"):
        vq = roster[spec]
        assert vq.co_divisible_flag
        for a in vq.carrier():
            for b in vq.carrier():
                assert vq.tsub[a, b] == max(0, a - b)


def test_jump_chain_not_co_divisible(no_codiv):
    assert no_codiv.value_flag
    assert not no_codiv.co_divisible_flag
    # 1 <= 2 but nothing added to 1 yields 2
    assert all(no_codiv.add[1, c] != 2 for c in no_codiv.carrier())


def test_dualizers(roster, diamond_join, no_girard):
    assert roster["bool2"].dualizers == [1]
    for spec in ("chain:2", "chain:4", "chain:8", "lukasiewicz:4"):
        vq = roster[spec]
        assert vq.dualizers == [vq.top], spec
    assert diamond_join.dualizers == [diamond_join.top]
    assert no_girard.dualizers == []
    one = cq.validate_coquantale(lat.validate_lattice([[True]], ["*"]),
                                 np.array([[0]]), name="one")
    assert one.dualizers == [0]


def test_safa_iff_bottom_cwb_bottom(roster, diamond_join):
    for vq in list(roster.values()) + [diamond_join]:
        assert cq.has_safa(vq) == vq.lattice.cwb[vq.bottom, vq.bottom], vq.name
    assert roster["bool2"].safa_flag
    assert roster["chain:4"].safa_flag
    assert roster["lukasiewicz:4"].safa_flag
    assert not diamond_join.safa_flag


# -- epsilon arguments -----------------------------------------------------------------


def test_halver_examples(roster):
    assert cq.epsilon_halver(roster["bool2"], 1) == 0
    assert cq.epsilon_halver(roster["bool2"], 0) == 0
    assert cq.epsilon_halver(roster["chain:8"], 5) == 2


def test_halver_and_dividers_exist_for_all_positives(roster):
    for vq in roster.values():
        if not vq.value_flag:
            continue
        for eps in vq.positives():
            for n in (1, 2, 3, 4):
                theta = cq.epsilon_n_divider(vq, eps, n)
                total = theta
                for _ in range(n - 1):
                    total = vq.add[total, theta]
                assert vq.lattice.cwb[total, eps]
                assert vq.is_positive(theta)


def scalar_divider(vq, eps, n):
    """The scalar loop the divider table replaced, kept as its oracle: every
    positive θ with nθ ≺ ε, then the lowest-index maximal one."""
    good = []
    for theta in vq.positives():
        total = theta
        for _ in range(n - 1):
            total = vq.add[total, theta]
        if vq.lattice.cwb[total, eps]:
            good.append(theta)
    maximal = [d for d in good if not any(e != d and vq.lattice.leq[d, e] for e in good)]
    return min(maximal)


def test_divider_table_matches_the_scalar_loop(roster, no_codiv, no_girard):
    carriers = [vq for vq in [*roster.values(), no_codiv, no_girard] if vq.value_flag]
    assert len(carriers) == len(roster) + 2
    for vq in carriers:
        for eps in vq.positives():
            for n in (1, 2, 3, 4):
                assert cq.epsilon_n_divider(vq, eps, n) == scalar_divider(vq, eps, n), (
                    vq.name, n, eps)
            assert cq.epsilon_halver(vq, eps) == scalar_divider(vq, eps, 2)
    # one read-only table per carrier and n
    table = cq._dividers(roster["chain:8"], 2)
    assert not table.flags.writeable and cq._dividers(roster["chain:8"], 2) is table


def test_halver_requires_positive_and_value(roster, diamond_join):
    with pytest.raises(NotValueCoquantale):
        cq.epsilon_halver(diamond_join, diamond_join.top)
    # the one-element carrier is not a value co-quantale either
    one = cq.validate_coquantale(lat.validate_lattice([[True]], ["*"]),
                                 np.array([[0]]))
    with pytest.raises(NotValueCoquantale):
        cq.epsilon_halver(one, 0)
    # complete distributivity gives 0 = ⋀V⁺, so every element of a finite
    # value carrier is positive; the guard is reached on the diamond, where
    # 0 ⊀ 0, with its value flag forced
    forced = cq.CoQuantale(diamond_join.lattice, diamond_join.add, diamond_join.tsub,
                           diamond_join.dsym, True, False, [], False, "forced")
    with pytest.raises(NotPositive):
        cq.epsilon_n_divider(forced, forced.bottom, 2)
    with pytest.raises(ValueError):
        cq.epsilon_n_divider(roster["chain:4"], 1, 0)


# -- builtins -------------------------------------------------------------------------


def test_builtin_errors():
    with pytest.raises(UnknownBuiltin):
        cq.builtin("nope")
    with pytest.raises(UnknownBuiltin):
        cq.builtin("chain:zero")
    with pytest.raises(SizeLimit):
        cq.builtin("chain:65")
    with pytest.raises(SizeLimit):
        cq.builtin("freelocale:4")


def test_builtin_is_one_carrier_per_spec(roster):
    """Every spec names one shared carrier, named by the spec (that the free
    locale's own materialization keeps its name is in test_freelocale)."""
    for spec in ROSTER_SPECS:
        assert cq.builtin(spec) is cq.builtin(spec) is roster[spec]
        assert roster[spec].name == spec


def test_every_spelling_of_a_builtin_is_one_carrier():
    """A spec is read to its kind and size before the cache: every spelling
    of one carrier returns one object, named by the canonical spec."""
    for spellings, name in ((["chain:4", "chain:04", "chain:+4", "chain: 4"], "chain:4"),
                            (["chain:40", "chain:4_0", "chain:040"], "chain:40"),
                            (["lukasiewicz:3", "lukasiewicz:003"], "lukasiewicz:3"),
                            (["freelocale:2", "freelocale:02"], "freelocale:2")):
        carriers = {id(cq.builtin(spec)) for spec in spellings}
        assert len(carriers) == 1
        assert cq.builtin(spellings[-1]).name == name


def test_lukasiewicz_layout(roster):
    luk1 = roster["lukasiewicz:1"]
    assert luk1.lattice.elements == ["1/1", "0/1"]
    assert luk1.element_name(luk1.bottom) == "1/1"   # the identity level
    luk4 = roster["lukasiewicz:4"]
    c4 = roster["chain:4"]
    # level reversal makes it isomorphic to the truncated chain
    assert (luk4.add == c4.add).all()
    assert luk4.lattice.elements[0] == "4/4" and luk4.lattice.elements[-1] == "0/4"


def test_freelocale_builtin(roster):
    fl = roster["freelocale:2"]
    assert fl.size == 6
    assert fl.value_flag
    assert fl.safa_flag            # 0 ≺ 0 holds in every finite free locale
    fl3 = roster["freelocale:3"]
    assert fl3.size == 20


# -- order-theoretic facts from the law sheet --------------------------------------------


def test_descend_with_addition(roster):
    # p = ⋀{p + ε : ε positive} on every builtin
    for vq in roster.values():
        if not vq.value_flag:
            continue
        pos = vq.positives()
        for p in vq.carrier():
            assert vq.meet_of(vq.add[p, e] for e in pos) == p, vq.name


def test_addition_monotone(roster, diamond_join):
    for vq in list(roster.values()) + [diamond_join]:
        if vq.size > 9:
            continue
        for a in vq.carrier():
            assert vq.add[a, vq.top] == vq.top
            for b in vq.carrier():
                if not vq.lattice.leq[a, b]:
                    continue
                for c in vq.carrier():
                    assert vq.lattice.leq[vq.add[c, a], vq.add[c, b]]


def test_symmetric_distance_to_zero(roster, diamond_join):
    for vq in list(roster.values()) + [diamond_join]:
        for a in vq.carrier():
            assert vq.dsym[a, vq.bottom] == a
            assert vq.dsym[vq.bottom, a] == a


def test_interpolation_between_cwb_pairs(roster):
    # q ≺ p gives r and positive ε with q ≺ r and r + ε ≺ p
    for vq in roster.values():
        if vq.size > 20 or not vq.value_flag:
            continue
        for q in vq.carrier():
            for p in vq.carrier():
                if not vq.lattice.cwb[q, p]:
                    continue
                assert any(vq.lattice.cwb[q, r] and vq.lattice.cwb[vq.add[r, e], p]
                           for r in vq.carrier()
                           for e in vq.positives()), (vq.name, q, p)


def test_dualizer_preserves_symmetric_distance(roster, diamond_join):
    for vq in list(roster.values()) + [diamond_join]:
        if vq.size > 9:
            continue
        for b in vq.dualizers:
            for x in vq.carrier():
                for y in vq.carrier():
                    assert vq.dsym[x, y] == vq.dsym[vq.tsub[b, x], vq.tsub[b, y]]
