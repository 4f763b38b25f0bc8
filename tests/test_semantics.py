import random
from itertools import permutations, product

import numpy as np
import pytest

from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic.errors import (ArityMismatch, FreeVariableMismatch,
                            ModulusViolated, NotCoGirard, NotSubstructure,
                            SignatureMismatch, TransitivityViolation,
                            UnboundVariable)


@pytest.fixture(scope="module")
def sig1(chain4):
    return F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))],
                       constants=["c"])


@pytest.fixture(scope="module")
def struct_m(chain4, sig1):
    space = sp.validate_space(chain4, ["a", "b"], [[0, 2], [2, 0]])
    return sem.validate_structure(space, sig1, {"P": [0, 2]},
                                  const_points={"c": "a"}, name="M")


@pytest.fixture(scope="module")
def struct_n(chain4, sig1):
    space = sp.validate_space(
        chain4, ["a", "b", "z"],
        [[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    return sem.validate_structure(space, sig1, {"P": [0, 2, 1]},
                                  const_points={"c": "a"}, name="N")


# -- validation -----------------------------------------------------------------


def test_empty_signature_is_valid(chain4):
    space = sp.validate_space(chain4, ["p"], [[0]])
    sig = F.Signature()
    struct = sem.validate_structure(space, sig, {})
    assert struct.m == 1


def test_constant_predicate_passes_any_modulus(chain4):
    space = sp.validate_space(chain4, ["a", "b"], [[0, 4], [4, 0]])
    minimal = F.Modulus(np.zeros(len(chain4.positives()), dtype=int))
    sig = F.Signature(predicates=[("P", 1, minimal)])
    sem.validate_structure(space, sig, {"P": [3, 3]})


def test_modulus_violation_caught(chain4, sig1):
    space = sp.validate_space(chain4, ["a", "b"], [[0, 1], [1, 0]])
    with pytest.raises(ModulusViolated):
        sem.validate_structure(space, sig1, {"P": [0, 4]},
                               const_points={"c": "a"})


def test_missing_interpretation(chain4, sig1):
    space = sp.validate_space(chain4, ["a"], [[0]])
    with pytest.raises(Exception):
        sem.validate_structure(space, sig1, {}, const_points={"c": "a"})


# -- evaluation -------------------------------------------------------------------


def test_inf_distance_to_constant_is_zero(struct_m, sig1, chain4):
    phi = F.parse_formula("(inf x0 (d x0 c))", sig1, chain4)
    assert sem.eval_formula(struct_m, phi) == 0


def test_sup_of_constant_formula(struct_m, sig1, chain4):
    for v in chain4.carrier():
        phi = F.parse_formula("(sup x0 (val %d))" % v, sig1, chain4)
        assert sem.eval_formula(struct_m, phi) == v


def test_unbound_variable_raises(struct_m, sig1, chain4):
    phi = F.parse_formula("(P x0)", sig1, chain4)
    with pytest.raises(UnboundVariable):
        sem.eval_formula(struct_m, phi, {})


def test_a_window_past_the_evaluator_or_missing_a_free_variable_is_refused(
        struct_n, sig1, chain4):
    """On an evaluator over x0 and x1, the window (x0, x2) names a variable
    the evaluator has no axis for and leaves the free x1 out, though it has
    as many variables as the evaluator: `table` raises, as `eval_table`
    (which widens its window to x2) does, where it used to pin x1 to the
    first point and repeat the table along x2. A window of k variables that
    misses a free one is refused too, and a covering window still reads."""
    phi = F.parse_formula("(d x0 x1)", sig1, chain4)
    evaluator = sem.TableEvaluator.of([struct_n], 2)
    for window in ((0, 2), (0, 0), (-1, 0)):
        with pytest.raises(UnboundVariable):
            evaluator.table(phi, window)
    with pytest.raises(UnboundVariable):
        sem.eval_table(struct_n, phi, (0, 2))
    assert np.array_equal(evaluator.table(phi, (1, 0)), struct_n.dist.T)
    assert np.array_equal(sem.eval_table(struct_n, phi, (0, 1)), struct_n.dist)


def test_eval_table_matches_eval_formula(struct_n, sig1, chain4):
    pool = sem.enumerate_formulas(sig1, chain4, 2, 2)
    for phi in pool[:600]:
        window = tuple(sorted(F.free_vars(phi)))
        table = np.asarray(sem.eval_table(struct_n, phi, window))
        for combo in product(range(struct_n.m), repeat=len(window)):
            assert int(table[combo]) == \
                sem.eval_formula(struct_n, phi, dict(zip(window, combo)))


# -- the classical two-valued oracle -------------------------------------------------


def classical_eval(phi, relation, pred_truth, points, sigma):
    """Independent classical first-order evaluator for preorder structures
    over the two-element carrier: 0 is true, join is conjunction, meet is
    disjunction, sup is the universal and inf the existential quantifier,
    and the dualizer connective is negation."""
    def term(t):
        assert isinstance(t, F.Var)
        return sigma[t.index]

    match phi:
        case F.DistAtom(left=l, right=r):
            return (term(l), term(r)) in relation
        case F.PredAtom(pred=p, args=args):
            return term(args[0]) in pred_truth[p]
        case F.Conn(connective=c, args=args):
            vals = [classical_eval(a, relation, pred_truth, points, sigma) for a in args]
            if c.name == "vee":
                return vals[0] and vals[1]
            if c.name == "wedge":
                return vals[0] or vals[1]
            if c.name == "dual:1":
                return not vals[0]
            raise AssertionError("unexpected connective %s" % c.name)
        case F.Val(element=e):
            return e == 0
        case F.Sup(var=x, body=b):
            return all(classical_eval(b, relation, pred_truth, points,
                                      {**sigma, x: p}) for p in points)
        case F.Inf(var=x, body=b):
            return any(classical_eval(b, relation, pred_truth, points,
                                      {**sigma, x: p}) for p in points)
    raise AssertionError("unexpected node %r" % (phi,))


def test_two_valued_semantics_agrees_with_classical_logic(bool2):
    """Uniform continuity forces predicates to be constant on the
    components of the preorder, so truth sets are unions of components;
    for each admissible predicate the V-valued evaluation must match the
    classical evaluator (with 0 standing for true)."""
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(bool2))])
    points = ["a", "b", "c", "d"]
    rel = {(p, p) for p in points} | {("a", "b")}
    space = sp.preorder_dictionary(points, rel)
    components = [{"a", "b"}, {"c"}, {"d"}]
    pool = sem.enumerate_formulas(sig, bool2, 2, 2)
    for mask in range(1 << 3):
        truth = set()
        for i in range(3):
            if mask >> i & 1:
                truth |= components[i]
        values = [bool2.bottom if p in truth else bool2.top for p in points]
        struct = sem.validate_structure(space, sig, {"P": values})
        evaluator = sem.TableEvaluator.of([struct], 2)   # one memo across the pool
        for phi in pool:
            window = tuple(sorted(F.free_vars(phi)))
            table = np.asarray(evaluator.table(phi, window))
            for combo in product(range(4), repeat=len(window)):
                got = int(table[combo])
                expected = classical_eval(
                    phi, rel, {"P": truth}, points,
                    {v: points[i] for v, i in zip(window, combo)})
                assert (got == 0) == expected, F.print_formula(phi, bool2)


def test_reflexivity_sentence_satisfied_on_preorder(bool2):
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(bool2))])
    points = ["a", "b"]
    space = sp.preorder_dictionary(points, {(p, p) for p in points})
    struct = sem.validate_structure(space, sig, {"P": [0, 0]})
    refl = sem.Condition(F.parse_formula("(sup x0 (d x0 x0))", sig, bool2))
    assert sem.satisfies(struct, refl)


# -- conditions, theories, logical distance ----------------------------------------


def test_distance_condition_always_satisfied(struct_m, sig1, chain4):
    cond = sem.Condition(F.parse_formula("(d c c)", sig1, chain4))
    assert sem.satisfies(struct_m, cond)


def test_theory_membership(struct_m, sig1, chain4):
    good = sem.Condition(F.parse_formula("(P c)", sig1, chain4))
    bad = sem.Condition(F.parse_formula("(sup x0 (P x0))", sig1, chain4))
    assert sem.models_theory(struct_m, [good])
    assert not sem.models_theory(struct_m, [good, bad])
    with pytest.raises(FreeVariableMismatch):
        sem.models_theory(struct_m, [sem.Condition(
            F.parse_formula("(P x0)", sig1, chain4))])


def test_satisfies_arity(struct_m, sig1, chain4):
    cond = sem.Condition(F.parse_formula("(P x0)", sig1, chain4))
    with pytest.raises(ArityMismatch):
        sem.satisfies(struct_m, cond)
    assert sem.satisfies(struct_m, cond, ("a",))


def test_logical_distance_cases(struct_m, sig1, chain4):
    p_of_x = F.parse_formula("(P x0)", sig1, chain4)
    assert sem.logical_distance(p_of_x, p_of_x, struct_m) == 0
    v0 = F.parse_formula("(val 0)", sig1, chain4)
    for v in chain4.carrier():
        other = F.parse_formula("(val %d)" % v, sig1, chain4)
        assert sem.logical_distance(v0, other, struct_m) == v
    with pytest.raises(FreeVariableMismatch):
        sem.logical_distance(p_of_x, v0, struct_m)


def test_logical_distance_is_the_join_over_every_assignment(struct_m, struct_n, sig1, chain4):
    """The folded table equals the scalar `join_of` of the symmetric distance
    of the two `eval_formula` values over every assignment, for each pool
    formula against the next one with the same free variables."""
    pool = sem.enumerate_formulas(sig1, chain4, 1, 2)
    for struct in (struct_m, struct_n):
        for phi, psi in zip(pool, pool[1:]):
            if F.free_vars(phi) != F.free_vars(psi):
                continue
            window = phi.window
            assert sem.logical_distance(phi, psi, struct) == chain4.join_of(
                chain4.dsym[sem.eval_formula(struct, phi, dict(zip(window, pts))),
                            sem.eval_formula(struct, psi, dict(zip(window, pts)))]
                for pts in product(range(struct.m), repeat=len(window)))


def test_logically_equivalent_formulas_have_zero_distance(struct_m, struct_n,
                                                          sig1, chain4):
    pairs = [
        ("(conn vee (P x0) (P x0))", "(P x0)"),
        ("(conn wedge (P x0) (P x0))", "(P x0)"),
        ("(sup x1 (P x0))", "(P x0)"),
        ("(conn dual:4 (conn dual:4 (P x0)))", "(P x0)"),
    ]
    for left, right in pairs:
        l = F.parse_formula(left, sig1, chain4)
        r = F.parse_formula(right, sig1, chain4)
        for struct in (struct_m, struct_n):
            assert sem.logical_distance(l, r, struct) == 0, left


def test_congruence_of_equivalent_subformulas(struct_m, struct_n, sig1, chain4):
    inner_l = F.parse_formula("(conn vee (P x0) (P x0))", sig1, chain4)
    inner_r = F.parse_formula("(P x0)", sig1, chain4)
    contexts = [lambda phi: F.Sup(0, phi),
                lambda phi: F.Conn(F.default_kit(chain4)["wedge"], (phi, F.Val(2))),
                lambda phi: F.Inf(0, F.Conn(F.default_kit(chain4)["dual:4"], (phi,)))]
    for wrap in contexts:
        for struct in (struct_m, struct_n):
            assert sem.logical_distance(wrap(inner_l), wrap(inner_r), struct) == 0


# -- alpha invariance -----------------------------------------------------------------


def alpha_rename(phi, old, new):
    match phi:
        case F.Sup(var=x, body=b):
            if x == old:
                return F.Sup(new, alpha_rename(_substitute_var(b, old, new), old, new))
            return F.Sup(x, alpha_rename(b, old, new))
        case F.Inf(var=x, body=b):
            if x == old:
                return F.Inf(new, alpha_rename(_substitute_var(b, old, new), old, new))
            return F.Inf(x, alpha_rename(b, old, new))
        case F.Conn(connective=c, args=args):
            return F.Conn(c, tuple(alpha_rename(a, old, new) for a in args))
        case _:
            return phi


def _substitute_var(phi, old, new):
    def sub_term(t):
        match t:
            case F.Var(index=i):
                return F.Var(new if i == old else i)
            case F.App(func=f, args=args):
                return F.App(f, tuple(sub_term(a) for a in args))
            case _:
                return t

    match phi:
        case F.DistAtom(left=l, right=r):
            return F.DistAtom(sub_term(l), sub_term(r))
        case F.PredAtom(pred=p, args=args):
            return F.PredAtom(p, tuple(sub_term(a) for a in args))
        case F.Conn(connective=c, args=args):
            return F.Conn(c, tuple(_substitute_var(a, old, new) for a in args))
        case F.Val():
            return phi
        case F.Sup(var=x, body=b):
            return phi if x == old else F.Sup(x, _substitute_var(b, old, new))
        case F.Inf(var=x, body=b):
            return phi if x == old else F.Inf(x, _substitute_var(b, old, new))


def test_alpha_invariance(struct_n, sig1, chain4):
    for phi in sem.enumerate_formulas(sig1, chain4, 2, 1):
        renamed = alpha_rename(phi, 0, 7)
        window = tuple(sorted(F.free_vars(phi)))
        assert F.free_vars(renamed) == F.free_vars(phi)
        for combo in product(range(struct_n.m), repeat=len(window)):
            sigma = dict(zip(window, combo))
            assert sem.eval_formula(struct_n, phi, sigma) == \
                sem.eval_formula(struct_n, renamed, sigma)


# -- substructures ----------------------------------------------------------------------


def restrict(sup_struct, names):
    idx = [sup_struct.space.index(p) for p in names]
    space = sp.validate_space(sup_struct.V, names, sup_struct.dist[np.ix_(idx, idx)])
    preds = {p: [int(sup_struct.pred_tables[p][i]) for i in idx]
             for p in sup_struct.sig.predicates}
    consts = {c: names.index(sup_struct.points[sup_struct.const_points[c]])
              for c in sup_struct.sig.constants}
    return sem.validate_structure(space, sup_struct.sig, preds,
                                  const_points=consts, name="sub")


def test_substructure_reflexive(struct_m):
    assert sem.is_substructure(struct_m, struct_m)


def test_restriction_is_substructure(struct_n):
    assert sem.is_substructure(restrict(struct_n, ["a", "b"]), struct_n)


def test_altered_distance_breaks_substructure(chain4, sig1, struct_n):
    space = sp.validate_space(chain4, ["a", "b"], [[0, 1], [1, 0]])
    other = sem.validate_structure(space, sig1, {"P": [0, 1]},
                                   const_points={"c": "a"})
    assert not sem.is_substructure(other, struct_n)


def test_function_escape_breaks_substructure(chain4):
    ident = F.identity_modulus(chain4)
    sig = F.Signature(functions=[("f", 1, ident)])
    big_space = sp.validate_space(chain4, ["a", "b", "z"],
                                  [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    big = sem.validate_structure(big_space, sig, {}, {"f": [2, 2, 2]})
    small_space = sp.validate_space(chain4, ["a", "b"], [[0, 1], [1, 0]])
    small = sem.validate_structure(small_space, sig, {}, {"f": [0, 0]})
    assert not sem.is_substructure(small, big)


@pytest.mark.parametrize("moved", ["predicate", "function", "constant"])
def test_a_moved_value_breaks_substructure(chain4, moved):
    """The restriction of a structure to {a, b}, but for one predicate
    value, one function image or the constant, is not a substructure."""
    ident = F.identity_modulus(chain4)
    sig = F.Signature(predicates=[("P", 1, ident)], functions=[("f", 1, ident)],
                      constants=["c"])
    top = chain4.top

    def build(points, preds, images, const):
        space = sp.validate_space(chain4, points, [[0 if p == q else top for q in points]
                                                   for p in points])
        return sem.validate_structure(space, sig, {"P": preds}, {"f": images}, {"c": const})

    big = build(["a", "b", "z"], [0, 1, 2], [1, 0, 2], "a")
    assert sem.is_substructure(build(["a", "b"], [0, 1], [1, 0], "a"), big)
    small = {"predicate": build(["a", "b"], [0, 2], [1, 0], "a"),
             "function": build(["a", "b"], [0, 1], [0, 1], "a"),
             "constant": build(["a", "b"], [0, 1], [1, 0], "b")}[moved]
    assert not sem.is_substructure(small, big)


def test_signature_mismatch(chain4, struct_m):
    other_sig = F.Signature(predicates=[("R", 1, F.identity_modulus(chain4))])
    space = sp.validate_space(chain4, ["a"], [[0]])
    other = sem.validate_structure(space, other_sig, {"R": [0]})
    with pytest.raises(SignatureMismatch):
        sem.is_substructure(other, struct_m)


# -- enumeration --------------------------------------------------------------------------


def test_enumeration_base_atoms(chain4):
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))])
    atoms = sem.enumerate_formulas(sig, chain4, 0, 1)
    assert atoms == [F.DistAtom(F.Var(0), F.Var(0)), F.PredAtom("P", (F.Var(0),))]


def test_enumeration_monotone_and_deterministic(sig1, chain4):
    d1 = sem.enumerate_formulas(sig1, chain4, 1, 2)
    d2 = sem.enumerate_formulas(sig1, chain4, 2, 2)
    assert set(d1) <= set(d2)
    assert d1 == sem.enumerate_formulas(sig1, chain4, 1, 2)
    assert len(d1) == len(set(d1))
    assert all(F.formula_depth(phi) <= 1 for phi in d1)


# -- body enumeration -------------------------------------------------------------------


def _definitional_spaces(vq, m):
    """Every filling of the off-diagonal cells that validate_space accepts."""
    off = [(x, y) for x in range(m) for y in range(m) if x != y]
    out = []
    for entries in product(range(vq.size), repeat=len(off)):
        dist = np.full((m, m), vq.bottom, dtype=np.int32)
        for (x, y), v in zip(off, entries):
            dist[x, y] = v
        try:
            out.append(sp.validate_space(vq, ["p%d" % i for i in range(m)], dist))
        except TransitivityViolation:
            continue
    return out


def _definitional_bodies(vq, spaces):
    """Every (dist, P) on the given spaces that validate_structure accepts."""
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
    out = []
    for space in spaces:
        for values in product(range(vq.size), repeat=space.m):
            try:
                sem.validate_structure(space, sig, {"P": list(values)})
            except ModulusViolated:
                continue
            out.append((space.dist, np.array(values, dtype=np.int32)))
    return out


def _first_of_each_class(dist, P):
    """The first body of each class: the smallest key over every point
    permutation, taken directly."""
    seen, first = set(), []
    for i, (d, p) in enumerate(zip(dist.tolist(), P.tolist())):
        key = min((tuple(d[a][b] for a in perm for b in perm), tuple(p[a] for a in perm))
                  for perm in permutations(range(len(p))))
        if key not in seen:
            seen.add(key)
            first.append(i)
    return first


def _same_bodies(got_dist, got_P, bodies):
    return (len(got_dist) == len(bodies)
            and all((a == d).all() and (b == p).all()
                    for a, b, (d, p) in zip(got_dist, got_P, bodies)))


@pytest.mark.parametrize("spec, m", [("bool2", 1), ("bool2", 2), ("bool2", 3), ("chain:3", 1),
                                     ("chain:3", 2), ("freelocale:1", 1), ("freelocale:1", 2)])
def test_enumerate_bodies_matches_the_definitional_filter(roster, spec, m):
    """The same bodies in the same order as filtering every candidate
    through validate_space and validate_structure, and the same first body
    of each class as a direct minimum over the permutations."""
    vq = roster[spec]
    dist, P, classes = sem.enumerate_bodies(vq, m, F.identity_modulus(vq))
    assert _same_bodies(dist, P, _definitional_bodies(vq, _definitional_spaces(vq, m)))
    assert list(classes) == _first_of_each_class(dist, P)


def test_enumerate_bodies_on_three_points_of_chain3(roster):
    """Every space through validate_space; the predicates of a seeded
    sample of them through validate_structure; every class directly."""
    vq = roster["chain:3"]
    dist, P, classes = sem.enumerate_bodies(vq, 3, F.identity_modulus(vq))
    spaces = _definitional_spaces(vq, 3)
    first = np.sort(np.unique(dist, axis=0, return_index=True)[1])
    assert len(spaces) == len(first) == 1490
    assert all((a == s.dist).all() for a, s in zip(dist[first], spaces))
    sample = sorted(random.Random(33).sample(range(len(spaces)), 40))
    for i in sample:
        mine = (dist == spaces[i].dist).all(axis=(1, 2))
        assert _same_bodies(dist[mine], P[mine], _definitional_bodies(vq, [spaces[i]]))
    assert list(classes) == _first_of_each_class(dist, P)


@pytest.mark.parametrize("spec, m, bodies, classes", [
    ("bool2", 3, 82, 24), ("chain:3", 3, 26546, 4684), ("bool2", 4, 1038, 93)])
def test_enumerate_bodies_counts(roster, spec, m, bodies, classes):
    vq = roster[spec]
    dist, P, first = sem.enumerate_bodies(vq, m, F.identity_modulus(vq))
    assert (len(dist), len(P), len(first)) == (bodies, bodies, classes)
    assert dist.shape[1:] == (m, m) and P.shape[1:] == (m,)


# -- elementarity and Tarski-Vaught ------------------------------------------------------


def test_equal_structures_pass_both(struct_m):
    assert sem.elementary_upto(struct_m, struct_m, 1).passed
    assert sem.tarski_vaught_upto(struct_m, struct_m, 1).passed


def test_not_substructure_raises(struct_m, chain4, sig1):
    space = sp.validate_space(chain4, ["a", "b"], [[0, 1], [1, 0]])
    other = sem.validate_structure(space, sig1, {"P": [0, 1]},
                                   const_points={"c": "a"})
    with pytest.raises(NotSubstructure):
        sem.elementary_upto(other, struct_m, 1)


def test_co_girard_required(no_girard):
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(no_girard))])
    space = sp.validate_space(no_girard, ["a"], [[0]])
    struct = sem.validate_structure(space, sig, {"P": [0]})
    with pytest.raises(NotCoGirard):
        sem.tarski_vaught_upto(struct, struct, 1)


def test_tv_failure_matched_by_elementarity_failure(struct_m, struct_n):
    """An extension adding a nearer witness: the inf over N drops below the
    inf over M, so TV fails at depth k and the inf-formula witnesses an
    elementarity failure at depth k+1."""
    sub = restrict(struct_n, ["a", "b"])
    assert sem.tarski_vaught_upto(sub, struct_n, 0).passed
    tv = sem.tarski_vaught_upto(sub, struct_n, 1)
    assert not tv.passed
    assert tv.witness["sub_inf"] != tv.witness["sup_inf"]
    elem1 = sem.elementary_upto(sub, struct_n, 1)
    assert elem1.passed   # depth-1 agreement: the gap only opens at depth 2
    elem2 = sem.elementary_upto(sub, struct_n, 2)
    assert not elem2.passed
    assert "inf" in elem2.witness["formula"] or "sup" in elem2.witness["formula"]


# -- the memo budget ----------------------------------------------------------------------


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_memo_budget_changes_no_table_or_verdict(monkeypatch, struct_n, sig1, chain4,
                                                 budget):
    """A memo capped at a few cells gives the same tables and the same
    elementarity and Tarski-Vaught verdicts, and never holds more cells
    than its budget."""
    sub = restrict(struct_n, ["a", "b"])
    pool = sem.enumerate_formulas(sig1, chain4, 1, 2)

    def tables():
        evaluator = sem.TableEvaluator.of([struct_n], 2)
        return [evaluator.table(phi, tuple(sorted(F.free_vars(phi)))) for phi in pool]

    def verdicts():
        return [(v.passed, v.checked, v.witness) for v in (
            sem.elementary_upto(sub, struct_n, 1), sem.elementary_upto(sub, struct_n, 2, 1),
            sem.tarski_vaught_upto(sub, struct_n, 1),
            sem.tarski_vaught_upto(struct_n, struct_n, 1))]

    want_tables, want_verdicts = tables(), verdicts()
    assert {passed for passed, _, _ in want_verdicts} == {True, False}
    held = []

    def counted(original):
        def call(self, phi):
            out = original(self, phi)
            # an entry is (node, masks, element indices or None)
            held.append(sum(masks.size + (0 if codes is None else codes.size)
                            for _, masks, codes in self.memo.values()))
            return out
        return call

    monkeypatch.setattr(sp, "CELL_BUDGET", budget)
    for name in ("codes", "masks"):     # every memo store goes through one of these
        monkeypatch.setattr(sem.TableEvaluator, name, counted(getattr(sem.TableEvaluator, name)))
    got_tables = tables()
    assert all(np.array_equal(a, b) for a, b in zip(got_tables, want_tables))
    assert verdicts() == want_verdicts
    assert held and max(held) <= budget
