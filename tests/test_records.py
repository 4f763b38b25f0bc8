"""The record classes against their reference twins: the `@dataclass`
definitions they replaced. For hypothesis-drawn formulas (the strategies of
`test_properties`) and fixed instances of the other records, a record and
its twin agree on ``==``, on the ``repr`` text, on ``__match_args__`` and
positional destructuring, on keyword construction and on hashing: equal
frozen records hash equal, and mutable ones are unhashable. Frozen records
refuse assignment; mutable ones take it and compare by their new fields."""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic import ultraproduct as up
from cqlogic.records import Frozen

from test_properties import CARRIERS, formulas, signature


# -- the twins: the dataclass definitions as they were ---------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple


@dataclass(frozen=True)
class DistAtom:
    left: object
    right: object


@dataclass(frozen=True)
class PredAtom:
    pred: str
    args: tuple


@dataclass(frozen=True)
class Conn:
    connective: object
    args: tuple


@dataclass(frozen=True)
class Val:
    element: int


@dataclass(frozen=True)
class Sup:
    var: int
    body: object


@dataclass(frozen=True)
class Inf:
    var: int
    body: object


@dataclass(frozen=True)
class Condition:
    formula: object


@dataclass
class Verdict:
    passed: bool
    depth: int
    checked: int
    witness: dict | None


@dataclass(frozen=True)
class Topology:
    points: tuple
    masks: tuple


@dataclass
class TheoremEntry:
    name: str
    passed: bool
    witness: str | None


@dataclass
class TheoremReport:
    entries: list
    notes: list


@dataclass
class LawResult:
    law: str
    passed: bool
    witness: str | None
    mode: str


@dataclass
class ResiduationReport:
    coquantale: str
    seed: int
    results: list


@dataclass
class UltrapowerResult:
    quotient: sp.ContinuitySpace
    diagonal: dict
    limits: dict
    bijective: bool
    inverse_ok: bool
    preserves_distance: bool


@dataclass
class DProductStructure:
    structure: sem.LStructure
    factors: list
    D: up.PrincipalUltrafilter
    tuples: list
    limits: up.DLimits = field(repr=False, compare=False)


@dataclass
class LosEntry:
    assignment: tuple
    left: int
    right: int


@dataclass(eq=False)
class LosReport:
    formula: str
    left: np.ndarray
    right: np.ndarray
    hypothesis: list
    points: list = field(repr=False)
    width: int

    def __eq__(self, other):
        return (isinstance(other, LosReport)
                and (self.formula, self.hypothesis, self.points, self.width)
                == (other.formula, other.hypothesis, other.points, other.width)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right))


@dataclass
class CompactnessResult:
    model: DProductStructure
    subsets: list
    chosen: list
    generator: int


TWINS = {cls.__name__: cls for cls in (Var, Const, App, DistAtom, PredAtom, Conn, Val, Sup, Inf,
                                       Condition, Verdict, Topology, TheoremEntry,
                                       TheoremReport, LawResult, ResiduationReport,
                                       UltrapowerResult, LosEntry, LosReport,
                                       CompactnessResult)}
RECORDS = (F.Var, F.Const, F.App, F.DistAtom, F.PredAtom, F.Conn, F.Val, F.Sup, F.Inf,
           sem.Condition, sem.Verdict, sp.Topology, sp.TheoremEntry, sp.TheoremReport,
           cq.LawResult, cq.ResiduationReport, up.UltrapowerResult, up.LosEntry,
           up.LosReport, up.CompactnessResult)


def twin(value):
    """The value with every record in it, nested in fields, tuples and
    lists, replaced by its twin; a connective stays the same object."""
    if isinstance(value, RECORDS):
        cls = TWINS[type(value).__name__]
        return cls(*[twin(getattr(value, f.name)) for f in dataclasses.fields(cls)])
    if type(value) in (tuple, list):
        return type(value)(map(twin, value))
    return value


def positional(record):
    """The fields of a record by a positional class pattern of its class."""
    match record:
        case (F.Var(a) | F.Const(a) | F.Val(a) | sem.Condition(a)):
            return (a,)
        case (F.App(a, b) | F.DistAtom(a, b) | F.PredAtom(a, b) | F.Conn(a, b) | F.Sup(a, b)
              | F.Inf(a, b) | sp.Topology(a, b) | sp.TheoremReport(a, b)):
            return (a, b)
        case sp.TheoremEntry(a, b, c) | cq.ResiduationReport(a, b, c):
            return (a, b, c)
        case up.LosEntry(a, b, c):
            return (a, b, c)
        case (sem.Verdict(a, b, c, d) | cq.LawResult(a, b, c, d)
              | up.CompactnessResult(a, b, c, d)):
            return (a, b, c, d)
        case up.UltrapowerResult(a, b, c, d, e, f) | up.LosReport(a, b, c, d, e, f):
            return (a, b, c, d, e, f)


def check_record(record):
    """One record against its twin: repr, match arguments, destructuring,
    keyword construction, hashing and assignment."""
    other = twin(record)
    names = [f.name for f in dataclasses.fields(other)]
    assert repr(record) == repr(other)
    assert type(record).__match_args__ == type(other).__match_args__ == tuple(names)
    assert positional(record) == tuple(getattr(record, name) for name in names)
    rebuilt = type(record)(**{name: getattr(record, name) for name in names})
    assert rebuilt == record and twin(rebuilt) == other
    frozen = type(other).__dataclass_params__.frozen
    if frozen:
        assert hash(rebuilt) == hash(record)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert twin(record) == other
    else:
        for value in (record, other):
            with pytest.raises(TypeError):
                hash(value)
        setattr(rebuilt, names[0], "changed")
        assert (rebuilt == record) is False and twin(rebuilt) != other


def check_pair(a, b):
    """``==`` and ``!=`` of two records as of their twins; equal frozen
    records hash equal."""
    assert (a == b) == (twin(a) == twin(b)) and (a != b) == (twin(a) != twin(b))
    if a == b and isinstance(a, Frozen):
        assert hash(a) == hash(b)


@pytest.mark.parametrize("spec", CARRIERS)
@settings(max_examples=40)
@given(data=st.data())
def test_formula_records_match_their_dataclass_twins(spec, data):
    """Drawn formulas, both quantifiers over one of them (the same var and
    body in two classes) and a parsed copy, which is equal but shares no
    node with it."""
    vq = cq.builtin(spec)
    phi, psi = data.draw(formulas(vq)), data.draw(formulas(vq))
    x = data.draw(st.integers(0, 2))
    copy = F.parse_formula(F.print_formula(phi, vq), signature(vq), vq)
    nodes = [phi, psi, copy, F.Sup(x, phi), F.Inf(x, phi), F.Inf(x, copy), sem.Condition(phi),
             sem.Condition(copy)]
    for a in nodes:
        check_record(a)
        for b in nodes:
            check_pair(a, b)


def test_same_fields_in_another_class_are_not_equal():
    """Records of two classes with equal fields differ, at the top and
    nested in other records' keys."""
    body = F.DistAtom(F.Var(0), F.Var(1))
    assert F.Sup(0, body) != F.Inf(0, body) and Sup(0, twin(body)) != Inf(0, twin(body))
    assert F.Sup(1, F.Sup(0, body)) != F.Sup(1, F.Inf(0, body))     # a level down
    assert F.App("P", (F.Var(0),)) != F.PredAtom("P", (F.Var(0),))
    assert F.Conn(F.default_kit(cq.builtin("chain:4"))["vee"], (body, body)) != \
        F.Conn(F.default_kit(cq.builtin("chain:4"))["wedge"], (body, body))


def test_other_records_match_their_dataclass_twins():
    laws = [cq.LawResult("adjunction-1", True, None, "exhaustive"),
            cq.LawResult("adjunction-2", False, "a=1, b=2", "sampled")]
    entries = [sp.TheoremEntry("T0", True, None), sp.TheoremEntry("V-domain", False, "p, q")]
    records = [
        *laws, cq.ResiduationReport("chain:4", 7, laws), cq.ResiduationReport("chain:4", 7, []),
        *entries, sp.TheoremReport(entries, ["a note"]), sp.TheoremReport([], []),
        sem.Verdict(True, 2, 10, None), sem.Verdict(False, 1, 3, {"formula": "(d x0 x1)"}),
        sp.Topology(("a", "b"), (0, 1, 3)), sp.Topology(("a", "b"), (0, 3)),
        *sp.enumerate_topologies("abc")]
    for a in records:
        check_record(a)
        for b in records:
            check_pair(a, b)


def test_ultraproduct_records_match_their_dataclass_twins():
    """The ultrapower result, Łoś reports and entries and a compactness
    result against their twins, as the other records; a report's repr
    leaves out its points. A D-product's repr and equality leave out its
    `DLimits`, as its twin's did, and its match arguments are the compared
    fields."""
    vq = cq.builtin("chain:4")
    sig = F.Signature(predicates=[("P", 1, F.identity_modulus(vq))])
    space = sp.validate_space(vq, ["p", "q"], [[0, 2], [2, 0]])
    factors = [sem.validate_structure(space, sig, {"P": values}, name=name)
               for name, values in (("a", [0, 2]), ("b", [1, 1]))]
    dp = up.d_product_structure(factors, up.PrincipalUltrafilter(2, 1))
    reports = [up.los_check(dp, F.parse_formula(text, sig, vq))
               for text in ("(P x0)", "(d x0 x1)", "(inf x1 (d x0 x1))", "(sup x0 (P x0))")]
    compact = up.compactness_build([sem.Condition(F.parse_formula("(val 0)", sig, vq))],
                                   factors)
    records = [up.ultrapower_V(vq, up.PrincipalUltrafilter(2, 0)), *reports,
               *reports[2].entries[:3], compact,
               up.CompactnessResult(compact.model, compact.subsets, factors, 0)]
    for a in records:
        check_record(a)
        for b in records:
            check_pair(a, b)
    assert "points" not in repr(reports[0])
    again = up.DProductStructure(dp.structure, dp.factors, dp.D, dp.tuples, None)
    other = DProductStructure(dp.structure, dp.factors, dp.D, dp.tuples, dp.limits)
    assert up.DProductStructure.__match_args__ == ("structure", "factors", "D", "tuples")
    assert again == dp and repr(again) == repr(dp) == repr(other)
    assert up.DProductStructure(dp.structure, dp.factors[::-1], dp.D, dp.tuples,
                                dp.limits) != dp


def test_connectives_compare_by_name_and_arity():
    vq = cq.builtin("chain:4")
    vee = F.default_kit(vq)["vee"]
    again = F.Connective("vee", 2, vq.lattice.meet, vee.modulus)
    assert again == vee and hash(again) == hash(vee) and repr(vee) == "Connective(vee/2)"
    assert F.Connective("vee", 1, vee.table, vee.modulus) != vee
