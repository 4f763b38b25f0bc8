"""L-structures, formula evaluation, theories, substructures, depth-bounded
formula enumeration and the Tarski-Vaught machinery.

`eval_formula` is the definitional single-assignment evaluator. Every sweep
uses `TableEvaluator`, which evaluates each formula node once over all
assignments of x0..x(k-1) and a stack of structures; `eval_table` is its
single-structure view. The unit suite cross-checks the two.

An evaluator keeps its memo for as long as it lives, so a caller that holds
one across a pool (the elementarity and Tarski-Vaught sweeps) evaluates
each shared node once. A validated structure's tables are read-only, so the
structure holds its own evaluator per window size (`LStructure.evaluator`)
and its Łoś hypothesis verdicts (`LStructure.hypothesis`): every D-product
that has it as a factor, and every Łoś sweep on that product, shares them.
The memo holds at most `spaces.CELL_BUDGET` table cells: when storing a
table would pass that, the memo is emptied first, and a table larger than
the budget is not stored. A node that was dropped is evaluated again when
next asked for, so the budget changes the cost, never a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product as iproduct

import numpy as np

from .coquantale import CoQuantale
from .errors import (ArityMismatch, CqlError, FreeVariableMismatch, MissingInterpretation,
                     ModulusViolated, NotCoGirard, NotSubstructure,
                     NotValueCoquantale, SignatureMismatch, UnboundVariable)
from .formulas import (App, Conn, Const, DistAtom, Inf, PredAtom, Signature, Sup, Val, Var,
                       default_kit, first_failure, free_vars, modulus_cost, modulus_witness,
                       validate_modulus)
from . import spaces
from .spaces import ContinuitySpace, _triangle_witness, check_cost, loop_cost


class LStructure:
    """An interpreted structure over a validated continuity space."""

    def __init__(self, space, sig, pred_tables, fun_tables, const_points, name=""):
        self.space = space
        self.V = space.V
        self.sig = sig
        self.pred_tables = pred_tables
        self.fun_tables = fun_tables
        self.const_points = const_points
        self.name = name or "structure"
        self.m = space.m
        self.dist = space.dist
        self._evaluators = {}
        self._hypotheses = {}

    @property
    def points(self):
        return self.space.points

    def evaluator(self, k):
        """This structure's `TableEvaluator` over x0..x(k-1), held for as
        long as the structure lives."""
        hit = self._evaluators.get(k)
        if hit is None:
            hit = self._evaluators[k] = TableEvaluator.of([self], k)
        return hit

    def hypothesis(self, sub):
        """(sup_ok, inf_ok): whether both discrete-Cauchy sums of the body of
        the quantified formula ``sub`` vanish here (`cauchy_sums_vanish`),
        held per node; the entry keeps its node alive, so the id is not
        reused."""
        hit = self._hypotheses.get(id(sub))
        if hit is None:
            family = self.evaluator(sub.span).table(sub.body, sub.window + (sub.var,))
            hit = self._hypotheses[id(sub)] = (sub, cauchy_sums_vanish(self.V, family))
        return hit[1]

    def __repr__(self):
        return "LStructure(%s: %d points over %s)" % (self.name, self.m, self.V.name)


def validate_structure(space: ContinuitySpace, sig: Signature, pred_tables,
                       fun_tables=None, const_points=None, name="") -> LStructure:
    """Check totality of every interpretation and verify each declared
    modulus exhaustively (directed product distance on the domain; the
    symmetric value distance on predicate outputs, the structure distance
    on function outputs)."""
    vq = space.V
    if not isinstance(vq, CoQuantale) or not vq.value_flag:
        raise NotValueCoquantale("structures need a table-backed value co-quantale")
    fun_tables = dict(fun_tables or {})
    const_points = dict(const_points or {})
    pred_tables = dict(pred_tables or {})
    m = space.m

    for kind, declared, given in (("predicate", sig.predicates, pred_tables),
                                  ("function", sig.functions, fun_tables)):
        missing = set(declared) - set(given)
        extra = set(given) - set(declared)
        if missing:
            raise MissingInterpretation("missing %s table for %s" % (kind, sorted(missing)[0]))
        if extra:
            raise MissingInterpretation("undeclared %s table %s" % (kind, sorted(extra)[0]))
    if set(const_points) != set(sig.constants):
        raise MissingInterpretation("constant interpretations must match the signature")

    norm_preds, norm_funs = {}, {}
    for symbols, given, norm, bound, claim in (
            (sig.predicates, pred_tables, norm_preds, vq.size, "be total on M^%d"),
            (sig.functions, fun_tables, norm_funs, m, "map M^%d into M")):
        for sname, (arity, modulus) in symbols.items():
            table = np.asarray(given[sname], dtype=np.int32)
            if table.shape != (m,) * arity or table.min() < 0 or table.max() >= bound:
                raise MissingInterpretation("%s table must %s" % (sname, claim % arity))
            validate_modulus(vq, modulus)
            norm[sname] = table
    consts = {}
    for cname in sig.constants:
        point = const_points[cname]
        if isinstance(point, str):
            point = space.index(point)
        if not 0 <= point < m:
            raise MissingInterpretation("constant %s maps outside the universe" % cname)
        consts[cname] = int(point)

    check_cost("checking the moduli of %s" % (name or "a structure"),
               structure_cost(vq, sig, m))
    dist = space.dist
    for kind, symbols, tables, out_dist in (("predicate", sig.predicates, norm_preds, vq.dsym),
                                            ("function", sig.functions, norm_funs, dist)):
        for sname, (arity, modulus) in symbols.items():
            label = "%s %s" % (kind, sname)
            witness = modulus_witness(vq, label, dist, arity, out_dist,
                                      tables[sname].reshape(-1), modulus)
            if witness is not None:
                eps, s, t = witness
                raise ModulusViolated(
                    "%s jumps more than its modulus allows (tuples %d, %d at ε=%s)"
                    % (label, s, t, vq.element_name(eps)))
    for table in list(norm_preds.values()) + list(norm_funs.values()):
        table.setflags(write=False)
    return LStructure(space, sig, norm_preds, norm_funs, consts, name)


def structure_cost(vq: CoQuantale, sig: Signature, m):
    """Cell operations of the modulus checks of every symbol on m points."""
    return sum(modulus_cost(vq, m ** arity, arity, modulus)
               for arity, modulus in [*sig.predicates.values(), *sig.functions.values()])


def enumerate_bodies(vq: CoQuantale, m, modulus):
    """Every body on m points (a table with the bottom on its diagonal, a
    unary P with the given modulus) in lexicographic order of the off-diagonal
    cells, then P: the stacked dist (N, m, m) and P (N, m) of `TableEvaluator`,
    and the first body of each class, the least packed key over permutations.
    The modulus test and the permuted keys run over blocks of candidate
    tables of at most CELL_BUDGET cells."""
    n, cells, orders = vq.size, np.flatnonzero(~np.eye(m, dtype=bool)), math.factorial(m)
    check_cost("enumerating bodies on %d points over %s" % (m, vq.name),
               n ** len(cells) * (m ** 3 + orders * m * m + n ** m * (m * m + orders * m)))
    perms = np.array(list(permutations(range(m))))
    dist = np.full((n ** len(cells), m, m), vq.bottom, dtype=np.int32)
    dist.reshape(len(dist), -1)[:, cells] = np.indices(   # the last cell fastest
        (n,) * len(cells), dtype=np.int32).reshape(len(cells), len(dist)).T
    dist = dist[_triangle_witness(vq, dist)[:, 0] < 0]
    preds = np.indices((n,) * m, dtype=np.int32).reshape(m, -1).T
    gaps = vq.dsym[preds[:, :, None], preds[:, None]]      # [p, x, y] = d_sym(P(x), P(y))
    fails = first_failure(vq, modulus)
    # packed key of each permuted body: its off-diagonal distances, then P
    digits = n ** np.arange(len(cells) + m - 1, -1, -1, dtype=np.int64)
    admitted = np.empty((len(dist), len(preds)), dtype=bool)
    keys = np.empty((len(dist), orders), dtype=np.int64)
    rows = max(1, spaces.CELL_BUDGET // (max(len(preds), orders) * m * m))
    for start in range(0, len(dist), rows):     # blocks of at most CELL_BUDGET cells
        block = dist[start:start + rows]
        jumps = fails[block[:, None], gaps]     # [s, p, x, y]: the first ε failed
        admitted[start:start + rows] = (jumps == len(modulus.table)).all(axis=(2, 3))
        moved = block[:, perms[:, :, None], perms[:, None, :]].reshape(len(block), orders, -1)
        keys[start:start + rows] = moved[:, :, cells] @ digits[:len(cells)] * n ** m
    space, pred = np.nonzero(admitted)
    keys = (keys[space] + (preds[:, perms] @ digits[len(cells):])[pred]).min(axis=1)
    return dist[space], preds[pred], np.sort(np.unique(keys, return_index=True)[1])


# -- evaluation -------------------------------------------------------------


def eval_term(struct: LStructure, t, assignment) -> int:
    match t:
        case Var(index=i):
            if i not in assignment:
                raise UnboundVariable("x%d is not assigned" % i)
            return assignment[i]
        case Const(name=name):
            return struct.const_points[name]
        case App(func=f, args=args):
            vals = tuple(eval_term(struct, a, assignment) for a in args)
            return int(struct.fun_tables[f][vals])
    raise TypeError("not a term: %r" % (t,))


def eval_formula(struct: LStructure, phi, assignment=None) -> int:
    """Structural recursion per the five interpretation clauses; sup/inf
    range over the whole universe."""
    sigma = assignment or {}
    match phi:
        case DistAtom(left=l, right=r):
            return int(struct.dist[eval_term(struct, l, sigma),
                                   eval_term(struct, r, sigma)])
        case PredAtom(pred=p, args=args):
            vals = tuple(eval_term(struct, a, sigma) for a in args)
            return int(struct.pred_tables[p][vals])
        case Conn(connective=c, args=args):
            return c.apply(eval_formula(struct, a, sigma) for a in args)
        case Val(element=e):
            return e
        case Sup(var=x, body=b):
            return struct.V.join_of(
                eval_formula(struct, b, {**sigma, x: a}) for a in range(struct.m))
        case Inf(var=x, body=b):
            return struct.V.meet_of(
                eval_formula(struct, b, {**sigma, x: a}) for a in range(struct.m))
    raise TypeError("not a formula: %r" % (phi,))


class TableEvaluator:
    """Memoized tables of formulas over a batch of structures that share a
    value co-quantale, a signature and a universe size m.

    Every table has a leading batch axis and one axis per variable
    x0..x(k-1). An axis has size m where its variable is free and size 1
    where it is not; a quantifier folds its own axis down to size 1. So a
    node's table does not depend on the formula around it, and each node is
    evaluated once per evaluator. A single structure is a batch of one
    (``TableEvaluator.of``).
    """

    def __init__(self, V, k, dist, preds, funs=None, consts=None):
        self.V = V
        self.k = k
        self.dist = dist
        self.batch, self.m = dist.shape[:2]
        # no node's table is larger than the window's
        check_cost("a window of %d variables over %d x %d points" % (k, self.batch, self.m),
                   self.batch * self.m ** k)
        self.preds = preds
        self.funs = funs or {}
        self.consts = consts or {}
        self.memo = {}
        self.cells = 0          # cells held by the memo's tables
        self.bidx = np.arange(self.batch).reshape((-1,) + (1,) * k)
        self.grids = [np.arange(self.m, dtype=np.int32).reshape(
            (1,) * (1 + i) + (-1,) + (1,) * (k - 1 - i)) for i in range(k)]

    @classmethod
    def of(cls, structs, k):
        """Stack structures on one carrier, signature and universe size."""
        structs = list(structs)
        first = structs[0]

        def stack(arrays):
            # a batch of one is a view, not a copy
            return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

        return cls(first.V, k, stack([s.dist for s in structs]),
                   {p: stack([s.pred_tables[p] for s in structs])
                    for p in first.pred_tables},
                   {f: stack([s.fun_tables[f] for s in structs])
                    for f in first.fun_tables},
                   {c: np.array([s.const_points[c] for s in structs]).reshape(
                       (-1,) + (1,) * k) for c in first.const_points})

    def __call__(self, phi):
        # keyed by identity: pools share subformula objects, and the entry
        # keeps its node alive so the id is not reused
        hit = self.memo.get(id(phi))
        if hit is not None:
            return hit[1]
        table = self._node(phi)
        table.setflags(write=False)
        if self.cells + table.size > spaces.CELL_BUDGET:
            self.memo.clear()
            self.cells = 0
        if table.size <= spaces.CELL_BUDGET:
            self.memo[id(phi)] = (phi, table)
            self.cells += table.size
        return table

    def table(self, phi, window, b=0):
        """φ on batch member b with one axis of size m per window variable,
        in window order; every free variable must be in the window."""
        if len(set(window)) < self.k:
            missing = free_vars(phi) - set(window)
            if missing:
                raise UnboundVariable("x%d is not in the evaluation window" % min(missing))
        kept = sorted(window)
        return self.members(phi, kept)[b].transpose([kept.index(v) for v in window])

    def members(self, phi, window):
        """φ on every batch member, with one axis of size m per variable of
        the increasing ``window``, which holds every free variable."""
        out = self(phi)[(slice(None),) + tuple(slice(None) if v in window else 0
                                               for v in range(self.k))]
        shape = (self.batch,) + (self.m,) * len(window)
        return out if out.shape == shape else np.broadcast_to(out, shape)

    def _axis(self, i):
        if not 0 <= i < self.k:
            raise UnboundVariable("x%d is not in the evaluation window" % i)
        return 1 + i

    def _term(self, t):
        match t:
            case Var(index=i):
                return self.grids[self._axis(i) - 1]
            case Const(name=name):
                return self.consts[name]
            case App(func=f, args=args):
                return self.funs[f][(self.bidx,) + tuple(self._term(a) for a in args)]
        raise TypeError("not a term: %r" % (t,))

    def _node(self, phi):
        match phi:
            case DistAtom(left=l, right=r):
                return self.dist[self.bidx, self._term(l), self._term(r)]
            case PredAtom(pred=p, args=args):
                return self.preds[p][(self.bidx,) + tuple(self._term(a) for a in args)]
            case Conn(connective=c, args=args):
                return c.table[tuple(self(a) for a in args)]
            case Val(element=e):
                return np.full((1,) * (1 + self.k), e, dtype=np.int32)
            case Sup(var=x, body=b):
                return fold_table(self.V.lattice.join, self(b), self._axis(x))
            case Inf(var=x, body=b):
                return fold_table(self.V.lattice.meet, self(b), self._axis(x))
        raise TypeError("not a formula: %r" % (phi,))


def fold_table(op, table, axis):
    """Fold a lattice join or meet table along one axis, keeping the axis
    with size 1. Halves overlap by one cell on odd sizes, which
    idempotence allows."""
    lead = (slice(None),) * (axis % table.ndim)
    while table.shape[axis] > 1:
        half = (table.shape[axis] + 1) // 2
        table = op[table[lead + (slice(None, half),)], table[lead + (slice(-half, None),)]]
    return table


def cauchy_sums_vanish(vq, family):
    """Whether each discrete-Cauchy sum of a value family vanishes, as
    (sup-side, inf-side), over every position of the leading axes; the last
    axis of ``family`` runs over the quantified variable."""
    # [..., l, k] = f_l ∸ f_k
    diffs = vq.tsub[family[..., :, None], family[..., None, :]]
    join, meet = vq.lattice.join, vq.lattice.meet
    sup_side = fold_table(meet, fold_table(join, diffs, -2), -1)
    inf_side = fold_table(meet, fold_table(join, diffs, -1), -2)
    return bool((sup_side == vq.bottom).all()), bool((inf_side == vq.bottom).all())


def eval_table(struct: LStructure, phi, window=None):
    """Evaluate over every assignment of the window variables at once.

    Returns an array of V elements with one axis per window variable, in
    window order; cross-checked against eval_formula in the test suite.
    """
    window = phi.window if window is None else tuple(window)
    k = max([phi.span] + [v + 1 for v in window])
    return TableEvaluator.of([struct], k).table(phi, window)


# -- conditions and theories ---------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """The formal statement 'formula = 0'."""
    formula: object


def theory(conditions):
    out = tuple(conditions)
    for cond in out:
        if free_vars(cond.formula):
            raise FreeVariableMismatch("theory members must be sentences")
    return out


def satisfies(struct: LStructure, condition: Condition, points=()) -> bool:
    """M ⊨ E(a₁..aₙ): the formula evaluates exactly to 0. Points are bound
    to the free variables in increasing index order."""
    fv = sorted(free_vars(condition.formula))
    if len(points) != len(fv):
        raise ArityMismatch("condition has %d free variables, got %d points"
                            % (len(fv), len(points)))
    sigma = {}
    for var, point in zip(fv, points):
        sigma[var] = struct.space.index(point) if isinstance(point, str) else point
    return eval_formula(struct, condition.formula, sigma) == struct.V.bottom


def models_theory(struct: LStructure, conditions) -> bool:
    return all(satisfies(struct, cond) for cond in theory(conditions))


def logical_distance(phi1, phi2, struct: LStructure) -> int:
    """⋁ over all tuples of the symmetric value distance of the two
    evaluations (the single-structure clause only)."""
    if free_vars(phi1) != free_vars(phi2):
        raise FreeVariableMismatch("formulas must share their free variables")
    window = phi1.window
    t1 = eval_table(struct, phi1, window)
    t2 = eval_table(struct, phi2, window)
    sym = struct.V.dsym[t1, t2]
    return struct.V.join_of(int(v) for v in np.asarray(sym).reshape(-1))


# -- substructures ----------------------------------------------------------------


def is_substructure(sub: LStructure, sup: LStructure) -> bool:
    """Point containment plus restriction equality of every table."""
    if sub.V is not sup.V:
        raise SignatureMismatch("structures must share their value co-quantale")
    if sub.sig != sup.sig:
        raise SignatureMismatch("structures must share their signature")
    if not set(sub.points) <= set(sup.points):
        return False
    lift = np.array([sup.space.index(p) for p in sub.points], dtype=np.int32)
    if (sub.dist != sup.dist[lift[:, None], lift[None, :]]).any():
        return False
    for p, table in sub.pred_tables.items():
        if (table != sup.pred_tables[p][np.ix_(*[lift] * table.ndim)]).any():
            return False
    for f, table in sub.fun_tables.items():     # images compared as points of sup
        if (lift[table] != sup.fun_tables[f][np.ix_(*[lift] * table.ndim)]).any():
            return False
    for cname in sub.sig.constants:
        if sub.points[sub.const_points[cname]] != sup.points[sup.const_points[cname]]:
            return False
    return True


# -- formula enumeration -----------------------------------------------------------


def enumeration_kit(vq: CoQuantale):
    """Join, meet and b∸□ per dualizer, in a fixed order."""
    kit = default_kit(vq)
    names = ["vee", "wedge"] + sorted(k for k in kit if k.startswith("dual:"))
    return [kit[k] for k in names]


def enumerate_formulas(sig: Signature, vq: CoQuantale, depth, max_free_vars,
                       kit=None):
    """Deterministic duplicate-free list of all formulas of tree depth up
    to ``depth`` over the kit connectives and both quantifiers, with
    variables x0..x(k-1) and signature constants as the terms. Each
    candidate built is charged as a loop iteration, up to `pool_bound`."""
    if depth < 0 or max_free_vars < 0:
        raise CqlError("a formula pool needs depth >= 0 and max_free_vars >= 0, not %d and %d"
                       % (depth, max_free_vars))
    if kit is None:
        kit = enumeration_kit(vq)
    check_cost("enumerating formulas to depth %d with max_free_vars=%d" % (depth, max_free_vars),
               loop_cost(pool_bound(sig, depth, max_free_vars, kit)))
    terms = [Var(i) for i in range(max_free_vars)]
    terms += [Const(c) for c in sig.constants]
    seen = set()
    pool = []

    def push(phi):
        if phi not in seen:
            seen.add(phi)
            pool.append(phi)

    for t1 in terms:
        for t2 in terms:
            push(DistAtom(t1, t2))
    for pname in sorted(sig.predicates):
        arity = sig.predicates[pname][0]
        for combo in iproduct(terms, repeat=arity):
            push(PredAtom(pname, combo))

    for _ in range(depth):
        snapshot = list(pool)
        for conn in kit:
            if conn.arity == 1:
                for phi in snapshot:
                    push(Conn(conn, (phi,)))
            elif conn.arity == 2:
                for a, b in combinations_with_replacement(snapshot, 2):
                    push(Conn(conn, (a, b)))
            else:
                for combo in iproduct(snapshot, repeat=conn.arity):
                    push(Conn(conn, combo))
        for phi in snapshot:
            for x in phi.window:
                push(Sup(x, phi))
                push(Inf(x, phi))
    return pool


def pool_bound(sig: Signature, depth, max_free_vars, kit):
    """An upper bound on the candidates `enumerate_formulas` builds, from its
    recurrence: t² + Σ t^arity atoms over t terms, then per round P ↦ P +
    Σ P^arity over the kit (P(P+1)/2 for a binary connective) + 2k·P
    quantifications. Rounds stop once P is past WORK_BUDGET, which no loop
    cost admits, so no huge integer is built; such a bound is a lower bound
    of the recurrence."""
    t = max_free_vars + len(sig.constants)
    size = t * t + sum(t ** arity for arity, _ in sig.predicates.values())
    for _ in range(depth):
        if size > spaces.WORK_BUDGET:
            break
        size += (sum(size * (size + 1) // 2 if c.arity == 2 else size ** c.arity for c in kit)
                 + 2 * max_free_vars * size)
    return size


# -- elementarity and the Tarski-Vaught test ------------------------------------


@dataclass
class Verdict:
    passed: bool
    depth: int
    checked: int
    witness: dict | None

    def describe(self):
        if self.passed:
            return "pass up to depth %d (%d checks)" % (self.depth, self.checked)
        parts = ", ".join("%s=%s" % (k, v) for k, v in sorted(self.witness.items()))
        return "FAIL at depth <= %d: %s" % (self.depth, parts)


def _compare_tables(outer, blocks, pool, depth, labels, cases):
    """Compare, for every pool formula φ and every (node, window, witness
    entries) in ``cases(φ)``, each substructure's table of the node against
    its superstructure's restricted to its points, streaming the pool one
    formula at a time. ``outer`` holds the superstructures; each block holds
    an evaluator of substructures, the index array of their points and
    their names: member c of a block is superstructure c restricted to those
    points. A member is dropped at its first failing node, and its
    `Verdict` counts the cells compared up to and including that node and
    names its first failing cell in row-major order."""
    lives = [np.ones(inner.batch, dtype=bool) for inner, _, _ in blocks]
    verdicts = [[None] * inner.batch for inner, _, _ in blocks]
    cells = [0] * len(blocks)       # per block, the cells compared on each open member
    name = outer.V.element_name
    for phi, node, window, entries in ((phi, *case) for phi in pool for case in cases(phi)):
        open_blocks = [j for j, live in enumerate(lives) if live.any()]
        if not open_blocks:
            break
        full = outer.members(node, window)
        for j in open_blocks:
            inner, lift, points = blocks[j]
            mine = inner.members(node, window).reshape(inner.batch, -1)
            theirs = full[(slice(None),) + np.ix_(*[lift] * len(window))].reshape(
                inner.batch, -1)
            differ = mine != theirs
            cells[j] += differ.shape[1]
            fresh = np.flatnonzero(lives[j] & differ.any(axis=1))
            if not fresh.size:
                continue
            first = differ[fresh].argmax(axis=1)
            m, w = inner.m, len(window)
            for b, cell, x, y in zip(fresh.tolist(), first.tolist(),
                                     mine[fresh, first].tolist(), theirs[fresh, first].tolist()):
                verdicts[j][b] = Verdict(False, depth, cells[j], {
                    "formula": phi.text(outer.V), **entries,
                    **{"x%d" % v: points[cell // m ** (w - 1 - i) % m]
                       for i, v in enumerate(window)},
                    labels[0]: name(x), labels[1]: name(y)})
            lives[j][fresh] = False
    return [[v or Verdict(True, depth, n, None) for v in block]
            for block, n in zip(verdicts, cells)]


def _compare_pair(sub, sup, depth, max_free_vars, labels, cases):
    """`_compare_tables` on one substructure and its superstructure."""
    if not is_substructure(sub, sup):
        raise NotSubstructure("%s is not a substructure of %s" % (sub.name, sup.name))
    if not sub.V.dualizers:
        raise NotCoGirard("%s has no dualizing element" % sub.V.name)
    lift = np.array([sup.space.index(p) for p in sub.points], dtype=np.int32)
    [[verdict]] = _compare_tables(
        TableEvaluator.of([sup], max_free_vars),
        [(TableEvaluator.of([sub], max_free_vars), lift, sub.points)],
        enumerate_formulas(sub.sig, sub.V, depth, max_free_vars), depth, labels, cases)
    return verdict


def _inf_cases(phi):
    return [(Inf(x, phi), tuple(v for v in phi.window if v != x), {"inf_var": "x%d" % x})
            for x in phi.window]


def elementary_upto(sub: LStructure, sup: LStructure, depth,
                    max_free_vars=2) -> Verdict:
    """Check φ^M(ā) = φ^N(ā) for every enumerated formula up to the given
    depth and every tuple from the substructure."""
    return _compare_pair(sub, sup, depth, max_free_vars, ("sub_value", "sup_value"),
                         lambda phi: [(phi, phi.window, {})])


def tarski_vaught_upto(sub: LStructure, sup: LStructure, depth,
                       max_free_vars=2) -> Verdict:
    """Check the inf-equality ⋀{φ^M(c, ā)} = ⋀{φ^N(c, ā)} over the same
    enumerated pool, for every choice of quantified variable and every
    parameter tuple drawn from the substructure."""
    return _compare_pair(sub, sup, depth, max_free_vars, ("sub_inf", "sup_inf"), _inf_cases)


def tarski_vaught_bodies(vq: CoQuantale, m, modulus, depth, max_free_vars=2):
    """`tarski_vaught_upto` of every substructure on a nonempty subset of
    the points against its superstructure, over the first body of each
    class of `enumerate_bodies` on m points, named p0..p(m-1): the verdicts
    in the order class, then subset by increasing bit mask. A substructure
    is its class's stacked tables restricted to the subset, so no
    `LStructure` is built per body: one batch of every class per subset."""
    if not vq.dualizers:
        raise NotCoGirard("%s has no dualizing element" % vq.name)
    dist, P, first = enumerate_bodies(vq, m, modulus)
    dist, P = dist[first], P[first]
    subsets = [[i for i in range(m) if mask >> i & 1] for mask in range(1, 1 << m)]
    columns = _compare_tables(
        TableEvaluator(vq, max_free_vars, dist, {"P": P}),
        [(TableEvaluator(vq, max_free_vars, dist[:, idx][:, :, idx], {"P": P[:, idx]}),
          np.array(idx), ["p%d" % i for i in idx]) for idx in subsets],
        enumerate_formulas(Signature(predicates=[("P", 1, modulus)]), vq, depth, max_free_vars),
        depth, ("sub_inf", "sup_inf"), _inf_cases)
    return [v for row in zip(*columns) for v in row]
