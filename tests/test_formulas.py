import collections
import functools
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic.errors import (ArityMismatch, FormulaSyntaxError, ModulusViolated,
                            UnknownElement, UnknownSymbol)

from conftest import metric_closure


@pytest.fixture(scope="module")
def sig(chain4):
    ident = F.identity_modulus(chain4)
    return F.Signature(predicates=[("P", 1, ident), ("Q", 2, ident)],
                       functions=[("f", 1, ident)],
                       constants=["c"])


# -- parsing --------------------------------------------------------------------


def test_parse_inf_dist(sig, chain4):
    phi = F.parse_formula("(inf x0 (d x0 c))", sig, chain4)
    assert phi == F.Inf(0, F.DistAtom(F.Var(0), F.Const("c")))


def test_parse_connective_and_val(sig, chain4):
    phi = F.parse_formula("(conn vee (P x0) (val 1))", sig, chain4)
    assert isinstance(phi, F.Conn) and phi.connective.name == "vee"
    assert phi.args[1] == F.Val(1)


def test_parse_arity_mismatch(sig, chain4):
    with pytest.raises(ArityMismatch):
        F.parse_formula("(P x0 x1)", sig, chain4)
    with pytest.raises(ArityMismatch):
        F.parse_formula("(conn vee (P x0))", sig, chain4)


def test_parse_errors_carry_positions(sig, chain4):
    with pytest.raises(FormulaSyntaxError) as err:
        F.parse_formula("(P x0", sig, chain4)
    assert err.value.position == len("(P x0")
    with pytest.raises(FormulaSyntaxError):
        F.parse_formula("(P x0) junk", sig, chain4)
    with pytest.raises(UnknownSymbol):
        F.parse_formula("(R x0)", sig, chain4)
    with pytest.raises(UnknownSymbol):
        F.parse_formula("(conn nope (P x0))", sig, chain4)
    with pytest.raises(UnknownElement):
        F.parse_formula("(val 9)", sig, chain4)
    with pytest.raises(UnknownSymbol):
        F.parse_formula("(d x0 nope)", sig, chain4)


def test_parse_terms(sig, chain4):
    t = F.parse_term("(f (f x2))", sig, chain4)
    assert t == F.App("f", (F.App("f", (F.Var(2),)),))
    phi = F.parse_formula("(Q (f x0) c)", sig, chain4)
    assert phi == F.PredAtom("Q", (F.App("f", (F.Var(0),)), F.Const("c")))


def test_print_parse_round_trip(sig, chain4):
    samples = [
        "(inf x0 (d x0 c))",
        "(sup x1 (conn wedge (P (f x1)) (val 3)))",
        "(conn dual:4 (Q x0 x1))",
        "(d (f c) (f (f x0)))",
    ]
    for text in samples:
        phi = F.parse_formula(text, sig, chain4)
        printed = F.print_formula(phi, chain4)
        assert F.parse_formula(printed, sig, chain4) == phi
    for phi in sem.enumerate_formulas(sig, chain4, 1, 2):
        printed = F.print_formula(phi, chain4)
        assert F.parse_formula(printed, sig, chain4) == phi


# -- structural predicates ----------------------------------------------------------


def test_free_vars_and_sentences(sig, chain4):
    phi = F.parse_formula("(sup x1 (Q x0 x1))", sig, chain4)
    assert F.free_vars(phi) == {0}
    assert not F.is_sentence(phi)
    assert F.is_sentence(F.parse_formula("(inf x0 (P x0))", sig, chain4))
    assert F.is_quantifier_free(F.parse_formula("(conn vee (P x0) (P x0))", sig, chain4))
    assert not F.is_quantifier_free(F.parse_formula("(sup x0 (P x0))", sig, chain4))
    assert F.formula_depth(F.parse_formula("(conn vee (sup x0 (P x0)) (val 0))",
                                           sig, chain4)) == 2


# -- connective registration -----------------------------------------------------------


def test_default_kit_members(chain4):
    kit = F.default_kit(chain4)
    assert {"id", "vee", "wedge", "oplus", "dual:4"} <= set(kit)
    # the addition connective carries the halver modulus
    assert kit["oplus"].modulus == F.halver_modulus(chain4)
    assert kit["vee"].modulus == F.identity_modulus(chain4)


def _checked_connectives(monkeypatch):
    """The names of the connectives whose moduli are checked from now on."""
    checked = []
    witness = F.modulus_witness

    def counting(vq, what, *args):
        checked.append(what.split()[-1])
        return witness(vq, what, *args)

    monkeypatch.setattr(F, "modulus_witness", counting)
    return checked


def _fresh_carrier(spec):
    """A carrier with the tables of the builtin ``spec`` but no kit yet: the
    builtin itself is shared, and its kit may already be checked."""
    shared = cq.builtin(spec)
    return cq.validate_coquantale(shared.lattice, shared.add, name=spec)


def test_kit_checks_only_the_connectives_a_formula_names(monkeypatch):
    """On chain:41 a formula naming vee checks one of the five kit moduli,
    once per carrier; the enumeration kit checks vee, wedge and the duals."""
    vq = _fresh_carrier("chain:41")
    checked = _checked_connectives(monkeypatch)
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
    kit = F.default_kit(vq)
    assert list(kit) == ["id", "vee", "wedge", "oplus", "dual:41"]
    assert "vee" in kit and "nope" not in kit and checked == []
    F.parse_formula("(conn vee (P x0) (val 2))", sig, vq)
    F.parse_formula("(conn vee (val 1) (P x0))", sig, vq)
    assert checked == ["vee"]
    sem.enumeration_kit(vq)
    assert checked == ["vee", "wedge", "dual:41"]


def test_kit_connective_failing_its_check_fails_every_use(monkeypatch):
    """Addition under the identity modulus (x + x moves twice as far as x)
    is refused whenever a formula names it, and only then."""
    vq = _fresh_carrier("chain:4")
    monkeypatch.setattr(F, "halver_modulus", F.identity_modulus)
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
    messages = set()
    for _ in range(2):
        with pytest.raises(ModulusViolated) as info:
            F.parse_formula("(conn oplus (P x0) (val 1))", sig, vq)
        messages.add(str(info.value))
    assert len(messages) == 1 and messages.pop().startswith("oplus: inputs ")
    assert F.parse_formula("(conn wedge (P x0) (val 1))", sig, vq).connective.name == "wedge"


def test_register_rejects_modulus_violation(chain4):
    jump = np.array([0, 4, 4, 4, 4], dtype=np.int32)   # 0 -> 0, rest -> top
    with pytest.raises(ModulusViolated):
        F.register_connective(chain4, "jump", jump, F.identity_modulus(chain4))


def test_constant_map_accepts_any_modulus(chain4):
    table = np.full(5, 2, dtype=np.int32)
    conn = F.register_connective(chain4, "const2", table, F.identity_modulus(chain4))
    assert conn.apply([4]) == 2


def test_dualizer_connective_has_identity_modulus(bool2, chain4):
    for vq in (bool2, chain4):
        for b in vq.dualizers:
            F.register_connective(vq, "test-dual", vq.tsub[b],
                                  F.identity_modulus(vq))


def _first_modulus_failure(vq, coord_dist, arity, out_dist, outputs, modulus):
    """(ε, x, y, s, t) from a triple loop: ε outermost in the modulus's order,
    then the tuples x = s-th and y = t-th in row-major order; or None."""
    tuples = list(product(range(len(coord_dist)), repeat=arity))
    for eps, delta in zip(vq.positives(), modulus.delta):
        for s, x in enumerate(tuples):
            for t, y in enumerate(tuples):
                near = vq.join_of(int(coord_dist[a, b]) for a, b in zip(x, y))
                if (vq.lattice.leq[near, delta]
                        and not vq.lattice.leq[int(out_dist[outputs[s], outputs[t]]), eps]):
                    return eps, x, y, s, t
    return None


def _random_modulus(vq, rng):
    return F.Modulus([rng.choice(vq.positives()) for _ in vq.positives()])


@pytest.mark.parametrize("budget", [sp.CELL_BUDGET, 20, 7])
@pytest.mark.parametrize("spec", ["chain:4", "lukasiewicz:4", "freelocale:2"])
def test_connective_modulus_check_matches_brute_force(roster, monkeypatch, spec, budget):
    """Kit tables, some with one entry changed, and seeded random tables
    under the identity, halver and random moduli; a small budget splits the
    argument tuples into blocks of one row."""
    vq = roster[spec]
    kit = list(F.default_kit(vq).values())
    monkeypatch.setattr(sp, "CELL_BUDGET", budget)
    rng = random.Random("%s/%d" % (spec, budget))
    outcomes = set()
    for case in range(24):
        table = rng.choice(kit).table.copy()
        if rng.random() < 0.2:
            table = np.array([rng.randrange(vq.size) for _ in range(table.size)],
                             dtype=np.int32).reshape(table.shape)
        elif rng.random() < 0.7:
            table.flat[rng.randrange(table.size)] = rng.randrange(vq.size)
        modulus = rng.choice([F.identity_modulus(vq), F.halver_modulus(vq),
                              _random_modulus(vq, rng)])
        name = "c%d" % case
        expected = _first_modulus_failure(vq, vq.dsym, table.ndim, vq.dsym,
                                          table.reshape(-1), modulus)
        if expected is not None:
            eps, x, y, s, t = expected
            expected = ("%s: inputs %s, %s within Δ(%s)=%s but outputs %s apart"
                        % (name, tuple(map(vq.element_name, x)),
                           tuple(map(vq.element_name, y)), vq.element_name(eps),
                           vq.element_name(modulus.delta[vq.positives().index(eps)]),
                           vq.element_name(int(vq.dsym[table[x], table[y]]))))
        try:
            F.register_connective(vq, name, table, modulus)
            got = None
        except ModulusViolated as exc:
            got = str(exc)
        assert got == expected, (table.tolist(), modulus)
        outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("budget", [sp.CELL_BUDGET, 20, 7])
@pytest.mark.parametrize("spec", ["chain:4", "freelocale:2"])
def test_symbol_modulus_check_matches_brute_force(roster, monkeypatch, spec, budget):
    """Predicate and function tables of arity 1 and 2 on seeded spaces, some
    of them constant or the identity, under identity and random moduli."""
    vq = roster[spec]
    elements = list(vq.carrier())
    monkeypatch.setattr(sp, "CELL_BUDGET", budget)
    rng = random.Random("symbols/%s/%d" % (spec, budget))
    outcomes = set()
    for _ in range(30):
        m = rng.randint(1, 4)
        space = sp.validate_space(vq, ["p%d" % i for i in range(m)], metric_closure(
            vq, [[vq.bottom if x == y else rng.choice(elements) for y in range(m)]
                 for x in range(m)]))
        kind, arity = rng.choice(["predicate", "function"]), rng.randint(1, 2)
        outputs = elements if kind == "predicate" else list(range(m))
        shape = (m,) * arity
        if rng.random() < 0.3:
            table = np.full(shape, rng.choice(outputs), dtype=np.int32)
        elif kind == "function" and arity == 1 and rng.random() < 0.5:
            table = np.arange(m, dtype=np.int32)
        else:
            table = np.array([rng.choice(outputs) for _ in range(m ** arity)],
                             dtype=np.int32).reshape(shape)
        modulus = rng.choice([F.identity_modulus(vq), _random_modulus(vq, rng)])
        symbol = [("S", arity, modulus)]
        if kind == "predicate":
            sig, preds, funs, out_dist = F.Signature(predicates=symbol), {"S": table}, {}, vq.dsym
        else:
            sig, preds, funs, out_dist = F.Signature(functions=symbol), {}, {"S": table}, space.dist
        expected = _first_modulus_failure(vq, space.dist, arity, out_dist,
                                          table.reshape(-1), modulus)
        if expected is not None:
            eps, _, _, s, t = expected
            expected = ("%s S jumps more than its modulus allows (tuples %d, %d at ε=%s)"
                        % (kind, s, t, vq.element_name(eps)))
        try:
            sem.validate_structure(space, sig, preds, funs)
            got = None
        except ModulusViolated as exc:
            got = str(exc)
        assert got == expected, (space.dist.tolist(), table.tolist(), modulus)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_first_failure_is_built_once_per_carrier_and_modulus(chain4, monkeypatch):
    """Every modulus check and `enumerate_bodies` share one read-only table
    per carrier and modulus; equal moduli built apart are the same table."""
    fresh = functools.lru_cache(maxsize=16)(F.first_failure.__wrapped__)
    monkeypatch.setattr(F, "first_failure", fresh)
    monkeypatch.setattr(sem, "first_failure", fresh)
    ident = F.identity_modulus(chain4)
    vee = chain4.lattice.join.reshape(-1)
    for _ in range(3):
        assert F.modulus_witness(chain4, "vee", chain4.dsym, 2, chain4.dsym, vee,
                                 F.identity_modulus(chain4)) is None
    sem.enumerate_bodies(chain4, 2, ident)
    assert fresh.cache_info()[:2] == (3, 1)                     # hits, builds
    table = F.first_failure(chain4, ident)
    assert not table.flags.writeable
    assert F.first_failure(chain4, F.Modulus(np.arange(5))) is table
    assert fresh.cache_info()[:2] == (5, 1)


def test_modulus_totality_enforced(chain4):
    with pytest.raises(ModulusViolated):
        F.validate_modulus(chain4, F.Modulus([0]))


@pytest.mark.parametrize("delta, message", [
    ([0, 1, -1, 3, 4], "delta -1 is not an element"),
    ([0, 1, 5, 3, 4], "delta 5 is not an element"),
    ([0, 1, 2 ** 32 + 1, 3, 4], "delta 4294967297 is not an element"),
    ([0, 1, 1.5, 3, 4], "delta 1.5 is not an element"),
], ids=["negative", "past-top", "past-int32", "non-integer"])
def test_modulus_outside_the_carrier_names_its_delta(chain4, delta, message):
    """numpy would read δ = -1 as the top and refuse δ ≥ n with an IndexError."""
    with pytest.raises(ModulusViolated) as err:
        F.validate_modulus(chain4, F.Modulus(delta))
    assert str(err.value) == message


# -- inference ------------------------------------------------------------------------


def test_atom_takes_predicate_modulus(sig, chain4):
    phi = F.parse_formula("(P x0)", sig, chain4)
    assert F.infer_modulus(phi, sig, chain4) == F.identity_modulus(chain4)


def test_quantifier_preserves_modulus(sig, chain4):
    plain = F.parse_formula("(Q x0 x1)", sig, chain4)
    quantified = F.parse_formula("(sup x1 (Q x0 x1))", sig, chain4)
    assert F.infer_modulus(plain, sig, chain4) == \
        F.infer_modulus(quantified, sig, chain4)


def test_dualizer_composition_keeps_modulus(sig, chain4):
    phi = F.parse_formula("(conn dual:4 (P x0))", sig, chain4)
    assert F.infer_modulus(phi, sig, chain4) == F.identity_modulus(chain4)


def test_dist_atom_uses_halver(sig, chain4):
    phi = F.parse_formula("(d x0 x1)", sig, chain4)
    assert F.infer_modulus(phi, sig, chain4) == F.halver_modulus(chain4)


def test_variable_free_formulas_get_identity(sig, chain4):
    phi = F.parse_formula("(conn vee (val 2) (d c c))", sig, chain4)
    assert F.infer_modulus(phi, sig, chain4) == F.identity_modulus(chain4)


def symmetric_tuple_distance(vq, dist, xs, ys):
    out = vq.bottom
    for x, y in zip(xs, ys):
        out = vq.lattice.join[out, vq.lattice.join[dist[x][y], dist[y][x]]]
    return out


def test_inferred_modulus_sound_on_sample_structure(sig, chain4):
    space = sp.validate_space(
        chain4, ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    struct = sem.validate_structure(
        space, sig,
        {"P": [0, 1, 2], "Q": [[0, 1, 2], [1, 1, 2], [2, 2, 2]]},
        {"f": [1, 2, 2]}, {"c": 0})
    pool = sem.enumerate_formulas(sig, chain4, 1, 2)
    pool += [F.parse_formula(t, sig, chain4) for t in
             ("(Q (f x0) x1)", "(d (f x0) (f x1))", "(conn oplus (P x0) (P x1))")]
    for phi in pool:
        window = tuple(sorted(F.free_vars(phi)))
        modulus = F.infer_modulus(phi, sig, chain4)
        table = np.asarray(sem.eval_table(struct, phi, window))
        for xs in product(range(3), repeat=len(window)):
            for ys in product(range(3), repeat=len(window)):
                moved = symmetric_tuple_distance(chain4, struct.dist, xs, ys)
                out = chain4.dsym[int(table[xs]), int(table[ys])]
                for eps, delta in zip(chain4.positives(), modulus.delta):
                    if chain4.lattice.leq[moved, delta]:
                        assert chain4.lattice.leq[out, eps], (
                            F.print_formula(phi, chain4), xs, ys, eps)


# -- the dict algebra: the slow twin of the array moduli ----------------------------


def _dict_of(vq, modulus):
    return dict(zip(vq.positives(), modulus.delta.tolist()))


def _compose_dicts(inner, outer):
    return {e: inner[outer[e]] for e in outer}


def _meet_dicts(vq, moduli):
    return {eps: vq.meet_of(m[eps] for m in moduli) if moduli else eps
            for eps in vq.positives()}


def _composed_dicts(vq, parts, outer):
    live = [_compose_dicts(p, outer) for p in parts if p is not None]
    return _meet_dicts(vq, live) if live else None


def _term_dict(t, sig, vq):
    match t:
        case F.Var():
            return {e: e for e in vq.positives()}
        case F.Const():
            return None
        case F.App(func=f, args=args):
            return _composed_dicts(vq, [_term_dict(a, sig, vq) for a in args],
                                   _dict_of(vq, sig.functions[f][1]))


def _infer_dict(phi, sig, vq):
    """`infer_modulus` by the recursion over dict tables, without records."""
    match phi:
        case F.DistAtom(left=l, right=r):
            return _composed_dicts(vq, [_term_dict(t, sig, vq) for t in (l, r)],
                                   {e: cq.epsilon_halver(vq, e) for e in vq.positives()})
        case F.PredAtom(pred=p, args=args):
            return _composed_dicts(vq, [_term_dict(a, sig, vq) for a in args],
                                   _dict_of(vq, sig.predicates[p][1]))
        case F.Conn(connective=c, args=args):
            return _composed_dicts(vq, [_infer_dict(a, sig, vq) for a in args],
                                   _dict_of(vq, c.modulus))
        case F.Val():
            return None
        case F.Sup(body=b) | F.Inf(body=b):
            return _infer_dict(b, sig, vq)


def _moduli(vq):
    pos = vq.positives()
    return st.lists(st.sampled_from(pos), min_size=len(pos), max_size=len(pos)).map(F.Modulus)


def _formulas(vq):
    terms = st.recursive(st.sampled_from([F.Var(0), F.Var(1), F.Const("c")]),
                         lambda t: st.builds(lambda a: F.App("f", (a,)), t), max_leaves=3)
    atoms = st.one_of(st.builds(F.DistAtom, terms, terms),
                      st.builds(lambda a: F.PredAtom("P", (a,)), terms),
                      st.builds(lambda a, b: F.PredAtom("Q", (a, b)), terms, terms),
                      st.builds(F.Val, st.sampled_from(vq.carrier())))
    kit = list(F.default_kit(vq).values())

    def extend(phi):
        return st.one_of(
            st.builds(F.Sup, st.integers(0, 1), phi), st.builds(F.Inf, st.integers(0, 1), phi),
            st.sampled_from(kit).flatmap(lambda c: st.tuples(*[phi] * c.arity).map(
                lambda args: F.Conn(c, args))))

    return st.recursive(atoms, extend, max_leaves=6)


@pytest.mark.parametrize("spec", ["chain:4", "lukasiewicz:4", "freelocale:2"])
@settings(max_examples=40)
@given(data=st.data())
def test_array_moduli_match_the_dict_algebra(roster, spec, data):
    """Compose, meet and inference on the arrays against the same on ε ↦ δ
    dicts; inference over a random signature P/1, Q/2, f/1, c."""
    vq = roster[spec]
    inner, outer = data.draw(_moduli(vq)), data.draw(_moduli(vq))
    assert _dict_of(vq, F.compose_moduli(vq, inner, outer)) == \
        _compose_dicts(_dict_of(vq, inner), _dict_of(vq, outer))
    parts = data.draw(st.lists(_moduli(vq), max_size=3))
    assert _dict_of(vq, F.meet_moduli(vq, parts)) == \
        _meet_dicts(vq, [_dict_of(vq, m) for m in parts])
    sig = F.Signature(predicates=[("P", 1, data.draw(_moduli(vq))),
                                  ("Q", 2, data.draw(_moduli(vq)))],
                      functions=[("f", 1, data.draw(_moduli(vq)))], constants=["c"])
    phi = data.draw(_formulas(vq))
    expected = _infer_dict(phi, sig, vq) or {e: e for e in vq.positives()}
    assert _dict_of(vq, F.infer_modulus(phi, sig, vq)) == expected, phi.text(vq)


def test_a_pool_infers_each_node_once_per_carrier_and_signature(roster, monkeypatch):
    """Every pool node holds its inferred modulus per carrier and signature:
    a second pass and an equal signature built apart infer nothing, another
    signature and another carrier infer each node once more. The pool holds
    every subformula of its formulas, so its nodes are all the nodes there
    are."""
    calls = collections.Counter()
    infer = F._infer

    def counted(phi, sig, vq):
        if isinstance(phi, F.Formula):          # terms are not nodes
            calls[id(phi), vq, sig] += 1
        return infer(phi, sig, vq)

    monkeypatch.setattr(F, "_infer", counted)
    chain4, luk4 = roster["chain:4"], roster["lukasiewicz:4"]
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))])
    pool = sem.enumerate_formulas(sig, chain4, 2, 1)
    moduli = [F.infer_modulus(phi, sig, chain4) for phi in pool]
    assert len(calls) == sum(calls.values()) == len(pool)
    again = F.Signature(predicates=[("P", 1, F.identity_modulus(chain4))])
    assert [F.infer_modulus(phi, again, chain4) for phi in pool] == moduli
    assert sum(calls.values()) == len(pool)
    halved = F.Signature(predicates=[("P", 1, F.halver_modulus(chain4))])
    assert [_dict_of(chain4, F.infer_modulus(phi, halved, chain4)) for phi in pool] == \
        [_infer_dict(phi, halved, chain4) or _dict_of(chain4, F.identity_modulus(chain4))
         for phi in pool] != [_dict_of(chain4, m) for m in moduli]
    assert len(calls) == sum(calls.values()) == 2 * len(pool)
    for phi in pool:
        F.infer_modulus(phi, sig, luk4)
    assert len(calls) == sum(calls.values()) == 3 * len(pool)
