"""Principal ultrafilters, D-ultralimits, D-products of spaces and
structures, the quotient ultraproduct, the V-ultrapower equivalence, the
Łoś verifier and the compactness construction.

D-limits are always computed by the definitional candidate scan (every
positive radius must put the tail set into D); the principal shortcut is
never assumed, so the Łoś checks stay genuine two-sided computations. A
D-limit depends only on the carrier, D and the tuple, so a carrier holds
one `DLimits` table per (index count, generator) (`shared_limits`), and
every D-product on it reads every D-limit (distances, predicates, Łoś right
sides) through the table of its key: each is scanned once per distinct
tuple per (carrier, index count, generator). The tables a carrier holds
have at most `spaces.CELL_BUDGET` cells in all: when a new table would pass
that, the carrier's tables are dropped first, and a product that holds a
dropped table keeps reading it. A table is read with the factors' tables
broadcast against each other (`_factor_axes`), so no array of the factors'
values is built; the Łoś reports of a formula pool are read from one
`LosTable` of the pool per product, one row per formula.

A set of indices is a bool array over I, and D answers membership only
through `contains_sets`; `is_ultrafilter` asks it once, of the 2ᴵ subset
masks, and checks the axioms on that table and one table of meets.
"""

from __future__ import annotations

import math
from itertools import combinations, product as iproduct

import numpy as np

from . import spaces
from .coquantale import CoQuantale
from .errors import (ArityMismatch, NoLimit, NotCoDivisible, NotFinitelySatisfiable,
                     NotT0, NotSymmetricFactors, NotValueCoquantale, SignatureMismatch,
                     VerificationFailed)
from .formulas import Inf, Sup, print_formula
from .records import Record
# eval_table is imported for perfbench/spans.py, which rebinds it here by name
from .semantics import (LStructure, eval_table, satisfies,  # noqa: F401
                        structure_cost, theory, validate_structure)
from .spaces import check_cost, count_text, is_symmetric, triangle_cost, validate_space


class PrincipalUltrafilter:
    """The ultrafilter {A ⊆ I : j0 ∈ A} on a finite index set; a set of
    indices is a bool array over I (`contains_sets`)."""

    def __init__(self, index_count, generator):
        if not 0 <= generator < index_count:
            raise ValueError("generator outside the index set")
        self.index_count = int(index_count)
        self.generator = int(generator)

    def contains_sets(self, sets):
        """Vectorized membership: ``sets`` is a bool array whose last axis
        runs over the index set; one verdict per leading position."""
        return np.asarray(sets, dtype=bool)[..., self.generator]

    def __repr__(self):
        return "PrincipalUltrafilter(|I|=%d, j0=%d)" % (self.index_count, self.generator)


def is_ultrafilter(D, index_count) -> bool:
    """Exhaustive check of the ultrafilter axioms over the 2ᴵ subset masks a
    (bit i for index i): ∅ ∉ D, I ∈ D, exactly one of a and I ^ a in D, and
    a & b ∈ D for every a, b ∈ D, the rows a of that table in blocks of at
    most CELL_BUDGET cells. These imply that D is closed upwards: a ∈ D,
    a ⊆ b and b ∉ D would put I ^ b and so a & (I ^ b) = ∅ in D. Charged
    I·2ᴵ (D's bool table of the masks) + 2ᴵ (the complements) + 4ᴵ (the
    pair table)."""
    check_cost("the ultrafilter axioms on %d indices" % index_count,
               (index_count + 1 << index_count) + (1 << 2 * index_count))
    masks = np.arange(1 << index_count)
    member = D.contains_sets(masks[:, None] >> np.arange(index_count) & 1 == 1)
    # the complement I ^ a of mask a is 2ᴵ − 1 − a: the table read backwards
    if member[0] or not member[-1] or (member == member[::-1]).any():
        return False
    inside = np.flatnonzero(member).astype(np.min_scalar_type((1 << index_count) - 1))
    rows = max(1, spaces.CELL_BUDGET // len(inside))
    return all(member[inside[start:start + rows, None] & inside].all()
               for start in range(0, len(inside), rows))


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
        # the row of indices j with d^s(a, a_j) ≤ ε, one bool per index
        if all(D.contains_sets(leq[dsym[a, seq], eps]) for eps in positives):
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
    if seqs.ndim != 2 or seqs.shape[1] != D.index_count:
        raise NoLimit("rows of shape %s do not match the index set: need (N, %d)"
                      % (seqs.shape, D.index_count))
    check_cost("%s D-limits over %d indices" % (count_text(len(seqs)), seqs.shape[1]),
               dlim_cost(vq, *seqs.shape))
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
    """The D-limits over a carrier of n elements and a D on I indices, each
    distinct tuple of factor values scanned once: ``table`` holds at the
    mixed-radix code Σ v_i·n^(I−1−i) of a tuple (v_0, ..., v_(I-1)), its
    position in an array of ``shape`` (n,)*I, the tuple's D-limit, or -1
    while it has not been needed, and ``unseen`` counts the -1 entries. A
    read takes the codes of the factor values and sends only the unseen
    distinct tuples to `dlim_batch`, so every entry is the definitional
    scan; once every entry is filled, a read is the codes and one gather.
    The table is kept when nᴵ ≤ `CELL_BUDGET` at construction; past that,
    every read sends its rows to `dlim_batch`. The D-products on one carrier
    share one table per (index count, generator) (`shared_limits`)."""

    def __init__(self, vq: CoQuantale, D: PrincipalUltrafilter):
        self.vq, self.D = vq, D
        self.shape = (vq.size,) * D.index_count
        self.table = None
        self.unseen = 0
        if vq.size ** D.index_count <= spaces.CELL_BUDGET:
            self.unseen = vq.size ** D.index_count
            self.table = np.full(self.unseen, -1, dtype=np.int32)
            self.table.setflags(write=False)

    def __call__(self, values):
        """The D-limit of each tuple of the I factor-value arrays ``values``,
        broadcast together (`_factor_axes`), in their broadcast shape."""
        values = tuple(values)
        if self.table is None:
            rows = np.array(np.broadcast_arrays(*values))
            return dlim_batch(self.vq, rows.reshape(len(values), -1).T,
                              self.D).reshape(rows.shape[1:])
        # the codes in one broadcasting call, then one gather: indexing an
        # (n,)*I view with the values took about 1.4x as long per read
        # (3-factor products, 2-core host)
        return self.read(np.ravel_multi_index(values, self.shape))

    def read(self, codes):
        """The D-limit at each mixed-radix code of ``codes``, in its shape;
        only a table-keeping `DLimits` reads codes."""
        out = self.table.take(codes)
        if self.unseen and out.min() < 0:
            missing = codes[out < 0]
            # the distinct unseen codes (np.unique would import numpy.ma, about
            # 10 ms of every cql process that reads a D-limit)
            missing.sort()
            new = missing[np.append(True, missing[1:] != missing[:-1])]
            # computed before the table is written, so a refused fill leaves no entry
            limits = dlim_batch(self.vq, np.transpose(np.unravel_index(new, self.shape)),
                                self.D)
            self.table.setflags(write=True)
            self.table[new] = limits
            self.table.setflags(write=False)
            self.unseen -= len(new)
            out = self.table.take(codes)
        return out


def shared_limits(vq: CoQuantale, D: PrincipalUltrafilter) -> DLimits:
    """The `DLimits` of the carrier and D's (index count, generator), held by
    the carrier and shared by every D-product on it. The choice between a
    table and the row path is made here, against the current
    `CELL_BUDGET`: with nᴵ over it, a new row-path `DLimits`. The tables
    held have at most `CELL_BUDGET` cells in all; when a new table would
    pass that, every held table is dropped first (a product holding one
    keeps reading it)."""
    cells = vq.size ** D.index_count
    if cells > spaces.CELL_BUDGET:
        return DLimits(vq, D)
    tables = getattr(vq, "_dlimits", None)
    if tables is None:
        tables = vq._dlimits = {}
    key = (D.index_count, D.generator)
    live = sum(t.table.size for t in tables.values())
    if live + (0 if key in tables else cells) > spaces.CELL_BUDGET:
        tables.clear()
    hit = tables.get(key)
    if hit is None:
        hit = tables[key] = DLimits(vq, D)
    return hit


def _factor_axes(tables, sizes, w):
    """Factor i's w-axis table reshaped to `_axis_shapes` (a view of a
    contiguous table): broadcast together, the tables run over the w-tuples
    of product points in row-major order."""
    return [table.reshape(shape) for table, shape in zip(tables, _axis_shapes(sizes, w))]


def _axis_shapes(sizes, w):
    """Per factor, the shape with its j-th axis at position j·K + k when it is
    the k-th of the K factors of more than one point, and size 1 elsewhere
    (one axis when K·w = 0). A one-point factor adds no digit to the points'
    mixed-radix numerals, so leaving it out keeps the row-major order and
    any number of factors within numpy's axis limit."""
    count = sum(m > 1 for m in sizes)
    out, rank = [], 0
    for m in sizes:
        shape = [1] * (count * w)
        if m > 1:
            shape[rank::count] = [m] * w
            rank += 1
        out.append(tuple(shape) or (1,))
    return tuple(out)


# -- D-products of spaces -----------------------------------------------------------


def d_product_space(spaces, D: PrincipalUltrafilter):
    """Tuple point set with d_D((x_i), (y_i)) = lim_D of the factor
    distances, read through the carrier's `DLimits` for D (`shared_limits`);
    validated as a continuity space afterwards."""
    spaces = list(spaces)
    if len(spaces) != D.index_count:
        raise ArityMismatch("one factor per index: |I| = %d, %d given"
                            % (D.index_count, len(spaces)))
    vq = spaces[0].V
    if any(s.V is not vq for s in spaces):
        raise SignatureMismatch("factors must share their value co-quantale")
    sizes = [s.m for s in spaces]
    check_cost("a D-product of %s points" % count_text(math.prod(sizes)),
               _product_space_cost(vq, sizes))
    return _product_space(spaces, shared_limits(vq, D))


def _product_space(spaces, limits):
    """The D-product of checked factor spaces, its distances read through
    ``limits``."""
    tuples = list(iproduct(*[range(s.m) for s in spaces]))
    names = ["|".join(s.points[i] for s, i in zip(spaces, combo)) for combo in tuples]
    dist = limits(_factor_axes([s.dist for s in spaces], [s.m for s in spaces], 2))
    space = validate_space(spaces[0].V, names, dist.reshape(len(tuples), len(tuples)))
    space.tuples = tuples
    return space


def _product_space_cost(vq, sizes):
    """The D-limit of every distance, then the triangle check."""
    total = math.prod(sizes)
    return dlim_cost(vq, total * total, len(sizes)) + triangle_cost(total)


def quotient_ultraproduct(spaces, D: PrincipalUltrafilter):
    """Quotient the D-product by (x_i) ~ (y_i) iff lim d(x_i, y_i) = 0.

    Requires symmetric factors; the equivalence axioms and representative
    independence of the class distance are verified exhaustively. Returns
    the quotient space, with ``classes`` the classes in the order of their
    least points, and the canonical map (product tuple index → class
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
    if not _is_transitive(related):
        raise VerificationFailed("~ is not transitive")
    # with ~ an equivalence, a point's first related point is the least of
    # its class: the representatives are the points that are their own first
    first = related.argmax(axis=1)
    reps = np.flatnonzero(first == np.arange(count))
    if (dist != dist[np.ix_(first, first)]).any():
        raise VerificationFailed("class distance depends on representatives")
    classes = [np.flatnonzero(related[r]).tolist() for r in reps]
    names = ["[%s]" % product.points[r] for r in reps]
    quotient = validate_space(vq, names, dist[np.ix_(reps, reps)])
    quotient.classes = classes
    return quotient, np.searchsorted(reps, first).tolist()


def _is_transitive(related):
    """Whether a bool relation contains its composite with itself; the bool
    product counts no paths, so it cannot wrap as an integer product would."""
    return not (related @ related & ~related).any()


class UltrapowerResult(Record):
    __match_args__ = ("quotient", "diagonal", "limits", "bijective", "inverse_ok",
                      "preserves_distance")
    def __init__(self, quotient, diagonal, limits, bijective, inverse_ok, preserves_distance):
        self.quotient, self.diagonal, self.limits = quotient, diagonal, limits
        self.bijective, self.inverse_ok = bijective, inverse_ok
        self.preserves_distance = preserves_distance

    @property
    def equivalent(self):
        return self.bijective and self.inverse_ok and self.preserves_distance


def ultrapower_V(vq: CoQuantale, D: PrincipalUltrafilter) -> UltrapowerResult:
    """Build the D-ultrapower of (V, d^s) and verify that the diagonal map
    T and the limit map T' witness a distance-preserving bijection. T reads
    the class of each constant tuple at its mixed-radix code; T' takes the
    D-limits of the classes' first tuples in one `dlim_batch` call."""
    base = validate_space(vq, [vq.element_name(e) for e in vq.carrier()], vq.dsym)
    quotient, theta = quotient_ultraproduct([base] * D.index_count, D)
    # the product point (e, ..., e) has the mixed-radix code e·(1 + n + ... + nᴵ⁻¹)
    unit = sum(vq.size ** i for i in range(D.index_count))
    diagonal = {e: theta[e * unit] for e in vq.carrier()}
    digits = np.unravel_index([cls[0] for cls in quotient.classes], (vq.size,) * D.index_count)
    limits = dict(enumerate(dlim_batch(vq, np.transpose(digits), D).tolist()))
    bijective = sorted(diagonal.values()) == list(range(len(quotient.classes)))
    inverse_ok = all(limits[diagonal[e]] == e for e in vq.carrier())
    image = [diagonal[e] for e in vq.carrier()]
    preserves = np.array_equal(quotient.dist[np.ix_(image, image)], vq.dsym)
    return UltrapowerResult(quotient, diagonal, limits, bijective, inverse_ok, preserves)


# -- D-products of structures ----------------------------------------------------------


class DProductStructure(Record):
    """A D-product and what every Łoś sweep on it shares: the `DLimits` of
    its carrier and D (`shared_limits`), which holds the D-limit of each
    distinct tuple of factor values once it has been scanned (still by the
    definitional scan, once per distinct tuple per (carrier, index count,
    generator), unless the carrier's tables were dropped to stay within
    `CELL_BUDGET`), and that the product's tables were read through; its
    read plan: the factor sizes and, per (span, width), each factor's
    evaluator with the shape its w-axis table takes in the broadcast
    (`_axis_shapes`); and the `LosTable` of the last formula pool asked
    (`los_table`). The evaluators' tables and the hypothesis verdicts are
    held by the product's structure and by each factor. ``limits`` is left
    out of equality and repr."""
    __match_args__ = ("structure", "factors", "D", "tuples")
    def __init__(self, structure, factors, D, tuples, limits):
        self.structure, self.factors, self.D, self.tuples = structure, factors, D, tuples
        self.limits = limits
        self.sizes = tuple(f.m for f in factors)
        self._plans = {}
        self._los = None

    def factor_limits(self, phi):
        """The D-limit of the factors' values of φ, per w-tuple of product
        points in row-major order, size-1 axes left in: one
        `TableEvaluator.codes` and one reshape per factor, by the plan, then
        one read of ``limits`` (a factor's evaluator is a batch of one, so
        its table runs over the w-tuples of its points in row-major
        order)."""
        key = phi.span, len(phi.window)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = ([f.evaluator(key[0]) for f in self.factors],
                                       _axis_shapes(self.sizes, key[1]))
        evaluators, shapes = plan
        return self.limits([e.codes(phi).reshape(shape) for e, shape in zip(evaluators, shapes)])

    def los_table(self, pool):
        """The `LosTable` of the pool on this product, held for the last
        pool asked."""
        held = self._los
        if held is None or held.pool is not pool:
            held = self._los = LosTable(self, pool)
        return held


class LosTable:
    """The Łoś sides of a formula pool on a D-product, one row per node in
    pool order, each flattened over the w-tuples of product points of the
    node's free variables in row-major order: ``left`` the product's
    values, a row of its evaluator's stacked run (`TableEvaluator.pool_run`);
    ``right`` the factors' D-limits, read at ``codes``, the mixed-radix
    codes of the factors' values, (rows,) + (points,)*span by one
    `np.ravel_multi_index` of the factors' stacked runs broadcast by
    `_axis_shapes`; and ``records``, per quantified node, its hypothesis
    records over the factors, made on first use. Each side is one gather
    per group of rows that share their free variables (`FormulaPool.groups`).

    A right row is None while its read at construction found a D-limit
    unseen; `fill` reads it through `DLimits.read`, so it fills as a lone
    formula does, and holds it. A side is None when it is refused: ``left``
    when the pool may not run stacked on the product
    (`FormulaPool.admitted`), ``right`` when the product's `DLimits` keeps
    no table, the codes would pass `CELL_BUDGET` or a factor refuses the
    run; `los_check` then reads that side one node at a time."""

    def __init__(self, dp, pool):
        self.pool = pool
        self.records = [None] * len(pool.nodes)
        self.left = self.right = self.codes = None
        points, table = dp.structure.m, dp.limits.table
        run = dp.structure.evaluator(pool.span).pool_run(pool)
        if run is not None:
            self.left = _pool_rows(pool, run[2])
        if table is None or len(pool.nodes) * points ** pool.span > spaces.CELL_BUDGET:
            return
        runs = [f.evaluator(pool.span).pool_run(pool) for f in dp.factors]
        if None in runs:
            return
        shapes = _axis_shapes(dp.sizes, pool.span)
        self.codes = np.ravel_multi_index(
            [run[2].reshape((-1,) + shape) for run, shape in zip(runs, shapes)],
            dp.limits.shape).reshape((-1,) + (points,) * pool.span)
        limits = table.take(self.codes)
        complete = (limits.reshape(len(limits), -1) >= 0).all(axis=1).tolist()
        self.right = [row if ok else None
                      for row, ok in zip(_pool_rows(pool, limits), complete)]

    def fill(self, row, limits):
        """Row ``row`` of the right side, read through ``limits`` and
        held."""
        out = limits.read(self.codes[self.pool.cuts[row]].reshape(-1))
        out.setflags(write=False)
        self.right[row] = out
        return out


def _pool_rows(pool, table):
    """Each node's row of a stacked ``table`` (rows first), cut to the
    node's free variables and flattened, in pool order: one gather per
    group of `FormulaPool.groups`."""
    out = [None] * len(pool.nodes)
    for rows, index in pool.groups:
        block = table[index].reshape(len(rows), -1)
        block.setflags(write=False)
        for row, values in zip(rows, block):
            out[row] = values
    return out


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
    check_cost("a D-product structure on %s points" % count_text(total),
               _product_space_cost(vq, sizes) + structure_cost(vq, sig, total)
               + sum(dlim_cost(vq, total ** arity, len(sizes))
                     for arity, _ in sig.predicates.values()))
    limits = shared_limits(vq, D)
    space = _product_space([f.space for f in factors], limits)
    pred_tables = {}
    for pname, (arity, _) in sig.predicates.items():
        values = _factor_axes([f.pred_tables[pname] for f in factors], sizes, arity)
        pred_tables[pname] = limits(values).reshape((total,) * arity)
    # the product point of a tuple of factor points, as in row-major order
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    fun_tables = {}
    for fname, (arity, _) in sig.functions.items():
        images = _factor_axes([f.fun_tables[fname] for f in factors], sizes, arity)
        fun_tables[fname] = np.asarray(sum(stride * image for stride, image in zip(
            strides, images)), dtype=np.int32).reshape((total,) * arity)
    consts = {c: int(sum(stride * f.const_points[c] for stride, f in zip(strides, factors)))
              for c in sig.constants}
    structure = validate_structure(space, sig, pred_tables, fun_tables, consts,
                                   name="D-product")
    return DProductStructure(structure, factors, D, space.tuples, limits)


# -- the Łoś verifier ----------------------------------------------------------------


class LosEntry(Record):
    __match_args__ = ("assignment", "left", "right")
    def __init__(self, assignment, left, right):
        self.assignment, self.left, self.right = assignment, left, right

    @property
    def equal(self):
        return self.left == self.right


class LosReport(Record):
    """One formula's Łoś values per assignment of its w free variables, the
    w-tuples of the product's points in row-major order; ``entries`` pairs
    them with the points' names when asked. Equality compares the formula,
    the hypothesis records, the point names, the width and both arrays;
    the repr leaves the point names out."""
    __match_args__ = ("formula", "left", "right", "hypothesis", "points", "width")
    def __init__(self, formula, left, right, hypothesis, points, width):
        self.formula = formula
        self.left = left                # the product's value, per assignment
        self.right = right              # the D-limit of the factors', per assignment
        self.hypothesis = hypothesis    # (factor name, subformula, sup_ok, inf_ok)
        self.points = points            # the product's point names
        self.width = width

    def __repr__(self):
        return "LosReport(%s)" % ", ".join("%s=%r" % (name, getattr(self, name))
                                           for name in self.__match_args__ if name != "points")

    @property
    def entries(self):
        return [LosEntry(a, x, y) for a, x, y in zip(iproduct(self.points, repeat=self.width),
                                                     self.left.tolist(), self.right.tolist())]

    def __eq__(self, other):
        return (isinstance(other, LosReport)
                and (self.formula, self.hypothesis, self.points, self.width)
                == (other.formula, other.hypothesis, other.points, other.width)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right))

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
    structure and each factor, the D-limits by the carrier, the read plan and
    the pool's `LosTable` by ``dp``. A pooled φ reads its row of each side
    and the records of its quantified nodes from the table; a side the
    table refused, and any φ outside a pool, is read one node at a time:
    the product's node table and one read of the factors' node tables
    through ``dp.limits`` (`DProductStructure.factor_limits`)."""
    vq, product = dp.structure.V, dp.structure
    pooled = phi._pool
    table = None if pooled is None else dp.los_table(pooled[0])
    # a node's table has size-m axes exactly at its free variables and then
    # the batch axis of one, so flattened it runs over the w-tuples of
    # points in row-major order
    if table is None or table.left is None:
        left = product.evaluator(phi.span).codes(phi).reshape(-1)
    else:
        left = table.left[pooled[1]]
    if table is None or table.right is None:
        right = dp.factor_limits(phi).reshape(-1)
    else:
        right = table.right[pooled[1]]
        if right is None:
            right = table.fill(pooled[1], dp.limits)
    hypothesis = []
    for sub in phi.quantified:
        if table is None:
            hypothesis += _records(dp, sub)
        else:
            records = table.records[sub._pool[1]]
            if records is None:
                records = table.records[sub._pool[1]] = _records(dp, sub)
            hypothesis += records
    return LosReport(phi.text(vq), left, right, hypothesis, product.points, len(phi.window))


def _records(dp, sub):
    """The hypothesis records (factor name, text, sup_ok, inf_ok) of the
    quantified node ``sub`` over the factors, in factor order."""
    text = sub.text(dp.structure.V)
    return [(f.name, text) + f.hypothesis(sub) for f in dp.factors]


def los_sweep(dp: DProductStructure, pool):
    """`los_check` of each formula of the pool on ``dp``, in pool order. The
    reports' cells, the pool size times T^span on T product points, are
    charged first."""
    pool = list(pool)
    span = max([phi.span for phi in pool], default=0)
    check_cost("a Łoś sweep of %d formulas of span %d on %d points" % (len(pool), span,
                                                                        dp.structure.m),
               len(pool) * dp.structure.m ** span)
    return [los_check(dp, phi) for phi in pool]


# -- compactness --------------------------------------------------------------------


class CompactnessResult(Record):
    __match_args__ = ("model", "subsets", "chosen", "generator")
    def __init__(self, model, subsets, chosen, generator):
        self.model, self.subsets, self.chosen, self.generator = model, subsets, chosen, generator

    @property
    def factor_names(self):
        return [m.name for m in self.chosen]


def compactness_build(conditions, candidates) -> CompactnessResult:
    """Mirror the compactness proof at finite scale: index the finite
    subsets of the theory, pick a model per subset, extend the
    finite-intersection family to the (principal) ultrafilter generated at
    the full-theory index, build the D-product and verify it models T. The
    scan of the 2^|T| subsets against the candidates is charged first."""
    conds = theory(conditions)
    candidates = list(candidates)
    check_cost("compactness over %d conditions and %d candidates" % (len(conds), len(candidates)),
               spaces.loop_cost(len(candidates) << len(conds)))
    subsets = [c for k in range(len(conds) + 1) for c in combinations(range(len(conds)), k)]
    # each candidate's satisfied conditions, each evaluated once
    holds = [{i for i, cond in enumerate(conds) if satisfies(cand, cond)}
             for cand in candidates]
    chosen = []
    for subset in subsets:
        pick = next((cand for cand, ok in zip(candidates, holds) if ok.issuperset(subset)),
                    None)
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
