"""Principal ultrafilters, D-ultralimits, D-products of spaces and
structures, the quotient ultraproduct, the V-ultrapower equivalence, the
Łoś verifier and the compactness construction.

D-limits are always computed by the definitional candidate scan (every
positive radius must put the tail set into D); the principal shortcut is
never assumed, so the Łoś checks stay genuine two-sided computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product as iproduct

import numpy as np

from . import spaces
from .coquantale import CoQuantale
from .errors import (NoLimit, NotCoDivisible, NotFinitelySatisfiable, NotT0,
                     NotSymmetricFactors, NotValueCoquantale, SizeLimit,
                     SignatureMismatch, VerificationFailed)
from .formulas import Inf, Sup, print_formula
# eval_table is imported for perfbench/spans.py, which rebinds it here by name
from .semantics import (LStructure, eval_table, satisfies,  # noqa: F401
                        structure_cost, theory, validate_structure)
from .spaces import ContinuitySpace, check_cost, is_symmetric, triangle_cost, validate_space


class PrincipalUltrafilter:
    """The ultrafilter {A ⊆ I : j0 ∈ A} on a finite index set."""

    def __init__(self, index_count, generator):
        if not 0 <= generator < index_count:
            raise ValueError("generator outside the index set")
        self.index_count = int(index_count)
        self.generator = int(generator)

    def contains(self, subset) -> bool:
        return self.generator in set(subset)

    def contains_sets(self, sets):
        """Vectorized membership: ``sets`` is a bool array whose last axis
        runs over the index set; one verdict per leading position."""
        return np.asarray(sets, dtype=bool)[..., self.generator]

    def __repr__(self):
        return "PrincipalUltrafilter(|I|=%d, j0=%d)" % (self.index_count, self.generator)


def is_ultrafilter(D, index_count) -> bool:
    """Exhaustive check of the ultrafilter axioms on a small index set."""
    subsets = [frozenset(i for i in range(index_count) if mask >> i & 1)
               for mask in range(1 << index_count)]
    member = {s: D.contains(s) for s in subsets}
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


# -- D-ultralimits ---------------------------------------------------------------


def d_ultralimit(vq: CoQuantale, seq, D: PrincipalUltrafilter) -> int:
    """The unique a with {j : d^s(a, a_j) ≤ ε} ∈ D for every positive ε,
    found by scanning every candidate (no principal shortcut)."""
    if not vq.value_flag:
        raise NotValueCoquantale("D-limits live in value co-quantales")
    seq = list(seq)
    if len(seq) != D.index_count:
        raise NoLimit("sequence length does not match the index set")
    positives = vq.positives()
    dsym = vq.dsym
    found = []
    for a in vq.carrier():
        if all(D.contains([j for j in range(len(seq)) if vq.le(dsym[a, seq[j]], eps)])
               for eps in positives):
            found.append(a)
    if not found:
        raise NoLimit("no candidate satisfies the large-set condition")
    if len(found) > 1:
        raise NotT0("multiple ultralimit candidates: %s"
                    % [vq.element_name(a) for a in found])
    return found[0]


def dlim_batch(vq: CoQuantale, seqs, D: PrincipalUltrafilter):
    """d_ultralimit over the rows of an (N, I) array, vectorized but still
    running the definitional per-ε membership test on every candidate. Rows
    are taken in blocks of at most CELL_BUDGET (candidate, row, j, ε) cells."""
    seqs = np.asarray(seqs, dtype=np.int32)
    check_cost("%d D-limits over %d indices" % seqs.shape, dlim_cost(vq, *seqs.shape))
    rows = max(1, spaces.CELL_BUDGET // max(1, dlim_cost(vq, 1, seqs.shape[1])))
    out = np.empty(len(seqs), dtype=np.int32)
    for start in range(0, len(seqs), rows):
        # [a, row, ε, j]: d^s(a, s_j) ≤ ε; the last axis is the index set of
        # (a, row, ε), one bool per index, for the membership test
        block = vq.within[:, seqs[start:start + rows]].swapaxes(2, 3)
        ok = D.contains_sets(block).all(axis=2)
        counts = ok.sum(axis=0)
        if (counts != 1).any():
            if (counts == 0).any():
                raise NoLimit("a row has no ultralimit")
            raise NotT0("a row has multiple ultralimits")
        out[start:start + rows] = ok.argmax(axis=0)
    return out


def dlim_cost(vq: CoQuantale, rows, width):
    """Cell operations of `dlim_batch` on ``rows`` sequences of ``width``."""
    return rows * vq.size * len(vq.positives()) * width


# -- D-products of spaces -----------------------------------------------------------


def d_product_space(spaces, D: PrincipalUltrafilter):
    """Tuple point set with d_D((x_i), (y_i)) = lim_D of the factor
    distances; validated as a continuity space afterwards."""
    spaces = list(spaces)
    if len(spaces) != D.index_count:
        raise SizeLimit("need one factor per index")
    vq = spaces[0].V
    if any(s.V is not vq for s in spaces):
        raise SignatureMismatch("factors must share their value co-quantale")
    sizes = [s.m for s in spaces]
    total = math.prod(sizes)
    check_cost("a D-product of %d points" % total, _product_space_cost(vq, sizes))
    tuples = list(iproduct(*[range(s.m) for s in spaces]))
    names = ["|".join(s.points[i] for s, i in zip(spaces, combo)) for combo in tuples]
    # [i, (x, y)], held until the space is validated: freed before that, it
    # left about 2 MB more resident in `cql ultra` on 432 points
    seqs = _factor_values([s.dist for s in spaces], sizes, 2)
    limits = dlim_batch(vq, seqs.T, D)
    space = validate_space(vq, names, limits.reshape(total, total))
    space.tuples = tuples
    return space


def factor_gather(sizes, w):
    """[i, r]: the flat index into factor i's table with w axes of the r-th
    w-tuple of product points, both in row-major order. Point p's factor-i
    coordinate is p // (sizes[i+1] ⋯ sizes[-1]) mod sizes[i], so no grid of
    coordinates is built and any number of factors works."""
    total = math.prod(sizes)
    out = np.empty((len(sizes), total ** w), dtype=np.int32)
    for i, (row, m) in enumerate(zip(out, sizes)):
        coord = np.arange(total, dtype=np.int32) // math.prod(sizes[i + 1:]) % m
        flat = np.zeros(1, dtype=np.int32)
        for _ in range(w):
            flat = np.add.outer(flat * m, coord).reshape(-1)
        row[:] = flat
    return out


def _factor_values(tables, sizes, w):
    """[i, r]: factor i's w-axis table at the r-th w-tuple of product
    points, gathered in place over `factor_gather`."""
    values = factor_gather(sizes, w)
    for row, table in zip(values, tables):
        row[:] = table.reshape(-1)[row]
    return values


def _product_space_cost(vq, sizes):
    """The D-limit of every distance, then the triangle check."""
    total = math.prod(sizes)
    return dlim_cost(vq, total * total, len(sizes)) + triangle_cost(total)


def quotient_ultraproduct(spaces, D: PrincipalUltrafilter):
    """Quotient the D-product by (x_i) ~ (y_i) iff lim d(x_i, y_i) = 0.

    Requires symmetric factors; the equivalence axioms and representative
    independence of the class distance are verified exhaustively. Returns
    the quotient space and the canonical map (product tuple index → class
    index)."""
    spaces = list(spaces)
    for s in spaces:
        if not is_symmetric(s):
            raise NotSymmetricFactors("every factor distance must be symmetric")
    product = d_product_space(spaces, D)
    vq = product.V
    count = product.m
    dist = product.dist
    related = dist == vq.bottom
    if not related.diagonal().all():
        raise VerificationFailed("~ is not reflexive")
    if (related != related.T).any():
        raise VerificationFailed("~ is not symmetric")
    composed = (related.astype(np.uint8) @ related.astype(np.uint8)) > 0
    if (composed & ~related).any():
        raise VerificationFailed("~ is not transitive")
    classes = []
    theta = [-1] * count
    for i in range(count):
        if theta[i] >= 0:
            continue
        cls = [int(j) for j in np.flatnonzero(related[i])]
        for j in cls:
            theta[j] = len(classes)
        classes.append(cls)
    reps = [cls[0] for cls in classes]
    rep_of = np.array(reps)[theta]
    if (dist != dist[np.ix_(rep_of, rep_of)]).any():
        raise VerificationFailed("class distance depends on representatives")
    names = ["[%s]" % product.points[r] for r in reps]
    quotient = validate_space(vq, names, dist[np.ix_(reps, reps)])
    quotient.classes = classes
    return quotient, theta


@dataclass
class UltrapowerResult:
    quotient: ContinuitySpace
    diagonal: dict
    limits: dict
    bijective: bool
    inverse_ok: bool
    preserves_distance: bool

    @property
    def equivalent(self):
        return self.bijective and self.inverse_ok and self.preserves_distance


def ultrapower_V(vq: CoQuantale, D: PrincipalUltrafilter) -> UltrapowerResult:
    """Build the D-ultrapower of (V, d^s) and verify that the diagonal map
    T and the limit map T' witness a distance-preserving bijection."""
    base = validate_space(vq, [vq.element_name(e) for e in vq.carrier()], vq.dsym)
    quotient, theta = quotient_ultraproduct([base] * D.index_count, D)
    tuples = list(iproduct(*[range(vq.size)] * D.index_count))
    diagonal = {e: theta[tuples.index(tuple([e] * D.index_count))] for e in vq.carrier()}
    limits = {}
    for cls_index, cls in enumerate(quotient.classes):
        limits[cls_index] = d_ultralimit(vq, list(tuples[cls[0]]), D)
    bijective = sorted(diagonal.values()) == list(range(len(quotient.classes)))
    inverse_ok = all(limits[diagonal[e]] == e for e in vq.carrier())
    image = [diagonal[e] for e in vq.carrier()]
    preserves = np.array_equal(quotient.dist[np.ix_(image, image)], vq.dsym)
    return UltrapowerResult(quotient, diagonal, limits, bijective, inverse_ok, preserves)


# -- D-products of structures ----------------------------------------------------------


@dataclass
class DProductStructure:
    """A D-product and the gathers that every Łoś sweep on it shares:
    `factor_gather` of the factor sizes, one per window width. The
    evaluators and hypothesis verdicts are held by the product's structure
    and by each factor."""
    structure: LStructure
    factors: list
    D: PrincipalUltrafilter
    tuples: list
    _gathers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def gather(self, w):
        hit = self._gathers.get(w)
        if hit is None:
            hit = self._gathers[w] = factor_gather([f.m for f in self.factors], w)
        return hit


def d_product_structure(factors, D: PrincipalUltrafilter) -> DProductStructure:
    """Predicates take the D-ultralimit of the factor values, functions act
    componentwise, constants become constant tuples; the declared moduli
    are re-verified on the product. The cost of every one of these checks is
    added up and refused over the work budget before the product is built."""
    factors = list(factors)
    vq = factors[0].V
    if not vq.co_divisible_flag:
        raise NotCoDivisible("the D-product interpretation needs a co-divisible carrier")
    sig = factors[0].sig
    for f in factors[1:]:
        if f.V is not vq:
            raise SignatureMismatch("factors must share their value co-quantale")
        if f.sig != sig:
            raise SignatureMismatch("factors must share their signature")
    sizes = [f.m for f in factors]
    total = math.prod(sizes)
    check_cost("a D-product structure on %d points" % total,
               _product_space_cost(vq, sizes) + structure_cost(vq, sig, total)
               + sum(dlim_cost(vq, total ** arity, len(sizes))
                     for arity, _ in sig.predicates.values()))
    space = d_product_space([f.space for f in factors], D)
    pred_tables = {}
    for pname, (arity, _) in sig.predicates.items():
        values = _factor_values([f.pred_tables[pname] for f in factors], sizes, arity)
        pred_tables[pname] = dlim_batch(vq, values.T, D).reshape((total,) * arity)
    # the product point of a tuple of factor points, as in row-major order
    strides = np.array([math.prod(sizes[i + 1:]) for i in range(len(sizes))])
    fun_tables = {}
    for fname, (arity, _) in sig.functions.items():
        images = _factor_values([f.fun_tables[fname] for f in factors], sizes, arity)
        fun_tables[fname] = (strides @ images).astype(np.int32).reshape((total,) * arity)
    consts = {c: int(strides @ [f.const_points[c] for f in factors]) for c in sig.constants}
    structure = validate_structure(space, sig, pred_tables, fun_tables, consts,
                                   name="D-product")
    return DProductStructure(structure, factors, D, space.tuples)


# -- the Łoś verifier ----------------------------------------------------------------


@dataclass
class LosEntry:
    assignment: tuple
    left: int
    right: int

    @property
    def equal(self):
        return self.left == self.right


@dataclass(eq=False)
class LosReport:
    """One formula's Łoś values per assignment of its w free variables, the
    w-tuples of the product's points in row-major order; ``entries`` pairs
    them with the points' names when asked, and equality compares them."""
    formula: str
    left: np.ndarray    # the product's value, per assignment
    right: np.ndarray   # the D-limit of the factors', per assignment
    hypothesis: list    # (factor name, subformula, sup_ok, inf_ok)
    points: list = field(repr=False)    # the product's point names
    width: int

    @property
    def entries(self):
        return [LosEntry(a, x, y) for a, x, y in zip(iproduct(self.points, repeat=self.width),
                                                     self.left.tolist(), self.right.tolist())]

    def __eq__(self, other):
        return isinstance(other, LosReport) and (
            (self.formula, self.hypothesis, self.entries)
            == (other.formula, other.hypothesis, other.entries))

    @property
    def all_equal(self):
        return bool((self.left == self.right).all())

    def lines(self, vq=None):
        render = (lambda e: vq.element_name(e)) if vq else str
        out = ["los-check %s" % self.formula]
        for factor, sub, sup_ok, inf_ok in self.hypothesis:
            out.append("  hypothesis %-24s %s: sup-side %s, inf-side %s"
                       % (sub, factor, "holds" if sup_ok else "FAILS",
                          "holds" if inf_ok else "FAILS"))
        for e in self.entries:
            mark = "==" if e.equal else "!="
            out.append("  %s: product %s %s limit %s"
                       % (",".join(e.assignment) or "<sentence>",
                          render(e.left), mark, render(e.right)))
        return out


def los_hypothesis_check(struct: LStructure, phi):
    """(sup_ok, inf_ok) for φ with an outer quantifier: whether both
    discrete-Cauchy sums of the body's value family vanish, over every
    assignment of the remaining free variables (`LStructure.hypothesis`)."""
    if not isinstance(phi, (Sup, Inf)):
        raise ValueError("hypothesis check needs an outer sup/inf")
    return struct.hypothesis(phi)


def los_check(dp: DProductStructure, phi) -> LosReport:
    """The Łoś report of one formula; see `los_sweep`."""
    return los_sweep(dp, [phi])[0]


def los_sweep(dp: DProductStructure, pool):
    """Compare each formula of the pool on the D-product against the
    D-ultralimit of its factor values, tuple by tuple, over every
    assignment of its free variables: one `LosReport` per formula, in pool
    order.

    Each piece of work is done once by what it depends on: the formula
    records by the nodes, the tables and hypothesis verdicts by the product's
    structure and each factor, the factor gathers by ``dp``. The right
    sides of consecutive formulas go to `dlim_batch` together, in calls of
    at most `WORK_BUDGET`; a formula that alone is over it gets its own call,
    which refuses it."""
    cap = spaces.WORK_BUDGET // dlim_cost(dp.structure.V, 1, len(dp.factors))
    reports, group, rows = [], [], 0
    for phi in pool:
        size = dp.structure.m ** len(phi.window)
        if group and rows + size > cap:
            reports += _los_reports(dp, group, rows)
            group, rows = [], 0
        group.append(phi)
        rows += size
    if group:
        reports += _los_reports(dp, group, rows)
    return reports


def _los_reports(dp, group, rows):
    """The reports of consecutive formulas whose assignments add up to
    ``rows``, with one `dlim_batch` call."""
    vq, product = dp.structure.V, dp.structure
    left = np.empty(rows, dtype=np.int32)
    values = np.empty((len(dp.factors), rows), dtype=np.int32)    # [factor, row]
    bounds = [0]
    for phi in group:
        start, end = bounds[-1], bounds[-1] + product.m ** len(phi.window)
        # a node's table has size-m axes exactly at its free variables, so
        # flattened it runs over the w-tuples of points in row-major order
        left[start:end] = product.evaluator(phi.span)(phi).reshape(-1)
        for row, f, gather in zip(values, dp.factors, dp.gather(len(phi.window))):
            row[start:end] = f.evaluator(phi.span)(phi).reshape(-1)[gather]
        bounds.append(end)
    right = dlim_batch(vq, values.T, dp.D)
    return [LosReport(phi.text(vq), left[start:end], right[start:end],
                      [(f.name, sub.text(vq)) + f.hypothesis(sub)
                       for sub in phi.quantified for f in dp.factors],
                      product.points, len(phi.window))
            for phi, start, end in zip(group, bounds, bounds[1:])]


# -- compactness --------------------------------------------------------------------


@dataclass
class CompactnessResult:
    model: DProductStructure
    subsets: list
    chosen: list
    generator: int

    @property
    def factor_names(self):
        return [m.name for m in self.chosen]


def compactness_build(conditions, candidates) -> CompactnessResult:
    """Mirror the compactness proof at finite scale: index the finite
    subsets of the theory, pick a model per subset, extend the
    finite-intersection family to the (principal) ultrafilter generated at
    the full-theory index, build the D-product and verify it models T."""
    conds = theory(conditions)
    candidates = list(candidates)
    subsets = []
    for k in range(len(conds) + 1):
        subsets.extend(combinations(range(len(conds)), k))
    chosen = []
    for subset in subsets:
        pick = None
        for cand in candidates:
            if all(satisfies(cand, conds[i]) for i in subset):
                pick = cand
                break
        if pick is None:
            raise NotFinitelySatisfiable(
                "no candidate models the subset %s" % (list(subset),))
        chosen.append(pick)
    generator = subsets.index(tuple(range(len(conds))))
    D = PrincipalUltrafilter(len(subsets), generator)
    dp = d_product_structure(chosen, D)
    for cond in conds:
        if not satisfies(dp.structure, cond):
            raise VerificationFailed(
                "the D-product fails %s" % print_formula(cond.formula, dp.structure.V))
    return CompactnessResult(dp, subsets, chosen, generator)
