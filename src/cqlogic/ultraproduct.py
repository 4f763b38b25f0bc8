"""Principal ultrafilters, D-ultralimits, D-products of spaces and
structures, the quotient ultraproduct, the V-ultrapower equivalence, the
Łoś verifier and the compactness construction.

D-limits are always computed by the definitional candidate scan (every
positive radius must put the tail set into D); the principal shortcut is
never assumed, so the Łoś checks stay genuine two-sided computations. A
D-product reads its factors' values through one gather over their tables
laid end to end, and every D-limit (distances, predicates, Łoś right sides)
through one `DLimits` table: one scan per distinct tuple per product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product as iproduct

import numpy as np

from . import spaces
from .coquantale import CoQuantale
from .errors import (ArityMismatch, NoLimit, NotCoDivisible, NotFinitelySatisfiable,
                     NotT0, NotSymmetricFactors, NotValueCoquantale, SignatureMismatch,
                     VerificationFailed)
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
    dsym, leq = vq.dsym, vq.lattice.leq
    found = []
    for a in vq.carrier():
        if all(D.contains([j for j in range(len(seq)) if leq[dsym[a, seq[j]], eps]])
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
    if not vq.value_flag:
        raise NotValueCoquantale("D-limits live in value co-quantales")
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


class DLimits:
    """The D-limits of one D-product, each distinct tuple of factor values
    scanned once.

    Over n elements and I factors, the tuple (v_0, ..., v_(I-1)) has the
    mixed-radix code Σ v_i·n^(I-1-i), and ``table[code]`` is its D-limit, or
    -1 while it has not been needed. A read codes its (I, N) factor values
    by one product with ``radix`` and sends only the unseen distinct tuples
    to `dlim_batch`, so every entry is the definitional scan. The table is
    kept when nᴵ ≤ `CELL_BUDGET`; past that, every read sends its rows to
    `dlim_batch`."""

    def __init__(self, vq: CoQuantale, D: PrincipalUltrafilter):
        self.vq, self.D = vq, D
        self.table = None
        if vq.size ** D.index_count <= spaces.CELL_BUDGET:
            # a code is below nᴵ ≤ CELL_BUDGET, so it fits in int32
            self.radix = vq.size ** np.arange(D.index_count - 1, -1, -1, dtype=np.int32)
            self.table = np.full(vq.size ** D.index_count, -1, dtype=np.int32)
            self.table.setflags(write=False)

    def __call__(self, tables, gather):
        """[r]: the D-limit of the factor values `_factor_values(tables, gather)`."""
        values = _factor_values(tables, gather)
        if self.table is None:
            return dlim_batch(self.vq, values.T, self.D)
        codes = self.radix @ values
        out = self.table.take(codes)
        if out.min() < 0:
            # the distinct unseen codes (np.unique would import numpy.ma, about
            # 10 ms of every cql process that reads a D-limit)
            missing = np.sort(codes[out < 0])
            new = missing[np.append(True, missing[1:] != missing[:-1])]
            # computed before the table is written, so a refused fill leaves no entry
            limits = dlim_batch(self.vq, new[:, None] // self.radix % self.vq.size, self.D)
            self.table.setflags(write=True)
            self.table[new] = limits
            self.table.setflags(write=False)
            out = self.table.take(codes)
        return out


# -- D-products of spaces -----------------------------------------------------------


def d_product_space(spaces, D: PrincipalUltrafilter):
    """Tuple point set with d_D((x_i), (y_i)) = lim_D of the factor
    distances, read through a new `DLimits`; validated as a continuity
    space afterwards."""
    spaces = list(spaces)
    if len(spaces) != D.index_count:
        raise ArityMismatch("one factor per index: |I| = %d, %d given"
                            % (D.index_count, len(spaces)))
    vq = spaces[0].V
    if any(s.V is not vq for s in spaces):
        raise SignatureMismatch("factors must share their value co-quantale")
    sizes = [s.m for s in spaces]
    check_cost("a D-product of %d points" % math.prod(sizes), _product_space_cost(vq, sizes))
    return _product_space(spaces, DLimits(vq, D), _Gathers(sizes))


def _product_space(spaces, limits, gathers):
    """The D-product of checked factor spaces, its distances read through
    ``limits`` and ``gathers[2]``."""
    tuples = list(iproduct(*[range(s.m) for s in spaces]))
    names = ["|".join(s.points[i] for s, i in zip(spaces, combo)) for combo in tuples]
    dist = limits([s.dist for s in spaces], gathers[2])
    space = validate_space(spaces[0].V, names, dist.reshape(len(tuples), len(tuples)))
    space.tuples = tuples
    return space


def factor_gather(sizes, w):
    """[i, r]: the index, into the factors' w-axis tables laid end to end, of
    factor i's entry at the r-th w-tuple of product points, both in row-major
    order: offset_i = Σ_(j<i) sizes[j]ʷ plus the tuple's factor-i coordinates
    as a base-sizes[i] numeral. Point p's factor-i coordinate is
    p // (sizes[i+1] ⋯ sizes[-1]) mod sizes[i], so no grid of coordinates is
    built and any number of factors works."""
    total = math.prod(sizes)
    out = np.empty((len(sizes), total ** w), dtype=np.int32)
    offset = 0
    for i, (row, m) in enumerate(zip(out, sizes)):
        coord = np.arange(total, dtype=np.int32) // math.prod(sizes[i + 1:]) % m
        flat = np.zeros(1, dtype=np.int32)
        for _ in range(w):
            flat = np.add.outer(flat * m, coord).reshape(-1)
        np.add(flat, offset, out=row)
        offset += m ** w
    return out


class _Gathers(dict):
    """`factor_gather` of one product's factor sizes, built once per window
    width w on first use."""

    def __init__(self, sizes):
        super().__init__()
        self.sizes = sizes

    def __missing__(self, w):
        self[w] = factor_gather(self.sizes, w)
        return self[w]


def _factor_values(tables, gather):
    """[i, r]: the factor value at gather[i, r] of ``tables`` laid end to end."""
    return np.concatenate(tables, axis=None).take(gather)


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
    """A D-product and what every Łoś sweep on it shares: `factor_gather`
    of the factor sizes, one per window width and the same ones the
    product's tables were read through, and the product's `DLimits`,
    which holds the D-limit of each distinct tuple of factor values once it
    has been scanned (still by the definitional scan, once per tuple per
    product). The evaluators and hypothesis verdicts are held by the
    product's structure and by each factor."""
    structure: LStructure
    factors: list
    D: PrincipalUltrafilter
    tuples: list
    limits: DLimits = field(repr=False, compare=False)
    _gathers: _Gathers = field(repr=False, compare=False)

    def gather(self, w):
        return self._gathers[w]


def d_product_structure(factors, D: PrincipalUltrafilter) -> DProductStructure:
    """Predicates take the D-ultralimit of the factor values, functions act
    componentwise, constants become constant tuples; the declared moduli
    are re-verified on the product. The cost of every one of these checks is
    added up and refused over the work budget before the product is built."""
    factors = list(factors)
    if len(factors) != D.index_count:
        raise ArityMismatch("one factor per index: |I| = %d, %d given"
                            % (D.index_count, len(factors)))
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
    limits, gathers = DLimits(vq, D), _Gathers(sizes)
    space = _product_space([f.space for f in factors], limits, gathers)
    pred_tables = {}
    for pname, (arity, _) in sig.predicates.items():
        pred_tables[pname] = limits([f.pred_tables[pname] for f in factors],
                                    gathers[arity]).reshape((total,) * arity)
    # the product point of a tuple of factor points, as in row-major order
    strides = np.array([math.prod(sizes[i + 1:]) for i in range(len(sizes))])
    fun_tables = {}
    for fname, (arity, _) in sig.functions.items():
        images = _factor_values([f.fun_tables[fname] for f in factors], gathers[arity])
        fun_tables[fname] = (strides @ images).astype(np.int32).reshape((total,) * arity)
    consts = {c: int(strides @ [f.const_points[c] for f in factors]) for c in sig.constants}
    structure = validate_structure(space, sig, pred_tables, fun_tables, consts,
                                   name="D-product")
    return DProductStructure(structure, factors, D, space.tuples, limits, gathers)


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
    """The Łoś report of φ: its value on the D-product against the
    D-ultralimit of its factor values, over every assignment of its free
    variables. Each piece of work is held by what it depends on: the formula
    records by the nodes, the tables and hypothesis verdicts by the product's
    structure and each factor, the factor gathers and the D-limits by ``dp``.
    The left side is the product's node table; the right side is one gather
    of the factors' node tables through ``dp.limits``."""
    vq, product, width = dp.structure.V, dp.structure, len(phi.window)
    # a node's table has size-m axes exactly at its free variables, so
    # flattened it runs over the w-tuples of points in row-major order
    left = product.evaluator(phi.span)(phi).reshape(-1)
    right = dp.limits([f.evaluator(phi.span)(phi) for f in dp.factors], dp.gather(width))
    hypothesis = []
    for sub in phi.quantified:
        text = sub.text(vq)
        hypothesis.extend((f.name, text) + f.hypothesis(sub) for f in dp.factors)
    return LosReport(phi.text(vq), left, right, hypothesis, product.points, width)


def los_sweep(dp: DProductStructure, pool):
    """`los_check` of each formula of the pool on ``dp``, in pool order."""
    return [los_check(dp, phi) for phi in pool]


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
