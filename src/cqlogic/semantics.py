"""L-structures, formula evaluation, theories, substructures, depth-bounded
formula enumeration and the Tarski-Vaught machinery.

`eval_formula` is the definitional single-assignment evaluator. Every sweep
uses `TableEvaluator`, which evaluates each formula node once over all
assignments of x0..x(k-1) and a stack of structures; `eval_table` is its
single-structure view. The unit suite cross-checks the two, and the int32
evaluator that `TableEvaluator` replaced is kept in the tests as its twin.
`TableEvaluator` computes on Birkhoff masks, so it needs a distributive
lattice; every value lattice is one.

An evaluator keeps its memo for as long as it lives, so a caller that holds
one across a pool (the elementarity and Tarski-Vaught sweeps) evaluates
each shared node once. A validated structure's tables are read-only, so the
structure holds its own evaluator per window size (`LStructure.evaluator`)
and its Łoś hypothesis verdicts (`LStructure.hypothesis`, folds of tables no
larger than the body's): its D-products and their Łoś sweeps share them.
A memo entry is one table of Birkhoff masks, and element indices are
decoded where a value leaves, never held. The memo holds at most
`spaces.CELL_BUDGET` mask cells: when storing a table would pass that, the
memo is emptied first, and a table larger than the budget is not stored. A
node that was dropped is evaluated again when next asked for, so the budget
changes the cost, never a table.

An `enumerate_formulas` pool (`FormulaPool`) is evaluated as a unit: the
first miss for one of its nodes runs the whole pool as one stacked program
(`TableEvaluator.pool_run`), and the node's masks are a view of its row.
"""

from __future__ import annotations

import math
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
from .lattice import birkhoff, fold_table, integer_array
from .records import Frozen, Record, set_field
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

    def evaluator_of(self, phi):
        """The evaluator of φ's pool's span when the pool may run stacked
        here (`FormulaPool.admitted`), else that of φ's own span."""
        pooled = phi._pool
        if pooled is not None and pooled[0].admitted(self.m, 1):
            return self.evaluator(pooled[0].span)
        return self.evaluator(phi.span)

    def hypothesis(self, sub):
        """(sup_ok, inf_ok): whether both discrete-Cauchy sums of the body of
        the quantified formula ``sub`` vanish here (`cauchy_sums_vanish`),
        held per node; the entry keeps its node alive, so the id is not
        reused."""
        hit = self._hypotheses.get(id(sub))
        if hit is None:
            family = self.evaluator_of(sub).table(sub.body, sub.window + (sub.var,))
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
            table = integer_array(given[sname], MissingInterpretation, "%s table" % sname)
            if table.shape != (m,) * arity or table.min() < 0 or table.max() >= bound:
                raise MissingInterpretation("%s table must %s" % (sname, claim % arity))
            validate_modulus(vq, modulus)
            norm[sname] = table.astype(np.int32, copy=False)
    consts = {}
    for cname in sig.constants:
        point = const_points[cname]
        if isinstance(point, str):
            point = space.index(point)
        if not 0 <= integer_array(point, MissingInterpretation, "constant %s" % cname) < m:
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
        admitted[start:start + rows] = (jumps == modulus.delta.size).all(axis=(2, 3))
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

    A node's table has one axis per variable x0..x(k-1) and a batch axis.
    An axis has size m where its variable is free and size 1 where it is
    not; a quantifier folds its own axis down to size 1. So a node's table
    does not depend on the formula around it, and each node is evaluated
    once per evaluator. A single structure is a batch of one
    (``TableEvaluator.of``).

    The tables hold Birkhoff masks (`lattice.Birkhoff`): the atoms gather
    from mask copies of the distance and predicate tables, ∨ and ∧ are
    ``|`` and ``&``, a sup or an inf is one ``reduce`` of ``|`` or ``&``
    over its axis, and any other connective decodes, gathers from its table
    and encodes (`Connective.masked`). Inside, the batch axis is the last one,
    so that on a big batch of small structures every operation runs long
    inner loops: on 4096 structures of 3 points, a broadcast ``|`` of two
    one-variable tables took 130 µs and a ``reduce`` over a point axis
    190-270 µs with the batch axis first, against 2.6 µs and 2.3 µs with it
    last (2-core host). Values leave as element indices, decoded at each
    call: `codes` with the batch axis last, `members` and `table` with
    it first. A memo entry is (node, masks), or (pool, stacked masks) for a
    pool's run (`pool_run`); no evaluator holds element indices.
    """

    def __init__(self, V, k, dist, preds, funs=None, consts=None):
        """``dist`` (batch, m, m), ``preds`` and ``funs`` (batch, m, ...)
        and ``consts`` (batch,) hold each member's tables and points."""
        self.V = V
        self.code = birkhoff(V.lattice)
        self.k = k
        self.batch, self.m = dist.shape[:2]
        # no node's table is larger than the window's
        check_cost("a window of %d variables over %d x %d points" % (k, self.batch, self.m),
                   self.batch * self.m ** k)
        enc = self.code.enc
        self.dist = enc[np.moveaxis(dist, 0, -1)]
        self.preds = {p: enc[np.moveaxis(table, 0, -1)] for p, table in preds.items()}
        self.funs = {f: np.moveaxis(table, 0, -1) for f, table in (funs or {}).items()}
        self.consts = {c: np.asarray(points).reshape((1,) * k + (-1,))
                       for c, points in (consts or {}).items()}
        self.memo = {}
        self.cells = 0          # mask cells held by the memo
        self.bidx = np.arange(self.batch)
        self.grids = [np.arange(self.m, dtype=np.int32).reshape(
            (1,) * i + (-1,) + (1,) * (k - i)) for i in range(k)]
        # [w]: the axis order that puts the batch axis of w + 1 axes first
        self.batch_first = [(w,) + tuple(range(w)) for w in range(k + 1)]

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
                   {c: np.array([s.const_points[c] for s in structs])
                    for c in first.const_points})

    def codes(self, phi):
        """φ's table of element indices, batch axis last, decoded from its
        masks at each call and not held."""
        codes = self.code.decode(self.masks(phi))
        codes.setflags(write=False)
        return codes

    def masks(self, phi):
        """φ's table of Birkhoff masks, batch axis last: its row of its
        pool's stacked run, cut to its own shape, when the pool runs here
        (`pool_run`), else its own memo entry."""
        # keyed by identity: pools share subformula objects, and the entry
        # keeps its node alive so the id is not reused
        hit = self.memo.get(id(phi))
        if hit is not None:
            return hit[1]
        pooled = phi._pool
        if pooled is not None:
            run = self.pool_run(pooled[0])
            if run is not None:
                return run[pooled[0].cuts[pooled[1]]]
        masks = self._node(phi)
        masks.setflags(write=False)
        self._store(phi, masks)
        return masks

    def pool_run(self, pool):
        """The pool's stacked masks, held as its memo entry, or None when k
        is below the pool's span or the pool is not `FormulaPool.admitted`.
        A row per node, in pool order, has a size-m axis per variable of the
        span and then the batch axis; the atoms are evaluated alone, and
        each step of the program is one gather and one operation."""
        hit = self.memo.get(id(pool))
        if hit is not None:
            return hit[1]
        if self.k < pool.span or not pool.admitted(self.m, self.batch):
            return None
        atoms, steps = pool.program()
        masks = np.empty((len(pool.nodes),) + (self.m,) * pool.span
                         + (1,) * (self.k - pool.span) + (self.batch,), dtype=self.code.enc.dtype)
        for row in atoms:
            masks[row] = self._node(pool.nodes[row])
        for kind, what, out, args in steps:
            if kind is Conn:
                masks[out] = what.masked(self.code)(*[masks[a] for a in args])
            else:
                fold = np.bitwise_or if kind is Sup else np.bitwise_and
                masks[out] = fold.reduce(masks[args[0]], axis=1 + what, keepdims=True)
        masks.setflags(write=False)
        self._store(pool, masks)
        return masks

    def _store(self, key, masks):
        """Hold the masks of a node or a pool run as the entry (key, masks),
        emptying the memo first when they would pass the budget; masks
        larger than the budget are not held."""
        if self.cells + masks.size > spaces.CELL_BUDGET:
            self.memo.clear()
            self.cells = 0
        if masks.size <= spaces.CELL_BUDGET:
            self.memo[id(key)] = (key, masks)
            self.cells += masks.size

    def table(self, phi, window, b=0):
        """φ on batch member b with one axis of size m per window variable,
        in window order; the window holds variables of x0..x(k-1) only, each
        once, and every free variable of φ."""
        for v in window:
            self._axis(v)
        missing = set(phi.window).difference(window)
        if missing:
            raise UnboundVariable("x%d is not in the evaluation window" % min(missing))
        for i, v in enumerate(window):
            if v in window[:i]:
                raise CqlError("x%d is repeated in the evaluation window" % v)
        kept = sorted(window)
        return self.members(phi, kept)[b].transpose([kept.index(v) for v in window])

    def members(self, phi, window):
        """φ on every batch member, with one axis of size m per variable of
        the increasing ``window``, which holds every free variable."""
        return self.spread(self.codes(phi), window).transpose(self.batch_first[len(window)])

    def spread(self, table, window):
        """A node's table (batch axis last) with one axis of size m per
        variable of the increasing ``window``, which holds every free
        variable of the node, and then the batch axis."""
        out = table[tuple(slice(None) if v in window else 0 for v in range(self.k))]
        shape = (self.m,) * len(window) + (self.batch,)
        return out if out.shape == shape else np.broadcast_to(out, shape)

    def _axis(self, i):
        if not 0 <= i < self.k:
            raise UnboundVariable("x%d is not in the evaluation window" % i)
        return i

    def _term(self, t):
        match t:
            case Var(index=i):
                return self.grids[self._axis(i)]
            case Const(name=name):
                return self.consts[name]
            case App(func=f, args=args):
                return self.funs[f][tuple(self._term(a) for a in args) + (self.bidx,)]
        raise TypeError("not a term: %r" % (t,))

    def _node(self, phi):
        if phi.__class__ is Conn:       # most nodes of a pool, so looked at first
            memo, args = self.memo, []
            for a in phi.args:          # memo hits read in place
                hit = memo.get(id(a))
                args.append(self.masks(a) if hit is None else hit[1])
            return phi.connective.masked(self.code)(*args)
        match phi:
            case DistAtom(left=l, right=r):
                return self.dist[self._term(l), self._term(r), self.bidx]
            case PredAtom(pred=p, args=args):
                return self.preds[p][tuple(self._term(a) for a in args) + (self.bidx,)]
            case Val(element=e):
                return np.full((1,) * (self.k + 1), self.code.enc[e], dtype=self.code.enc.dtype)
            case Sup(var=x, body=b):
                return np.bitwise_or.reduce(self.masks(b), axis=self._axis(x), keepdims=True)
            case Inf(var=x, body=b):
                return np.bitwise_and.reduce(self.masks(b), axis=self._axis(x), keepdims=True)
        raise TypeError("not a formula: %r" % (phi,))


def cauchy_sums_vanish(vq, family):
    """Whether each discrete-Cauchy sum of a value family vanishes, as
    (sup-side, inf-side), over every position of the leading axes; the last
    axis of ``family`` runs over the quantified variable. As − ∸ a keeps
    joins and a ∸ − sends meets to joins (`check_residuation_laws`), the sums
    ⋀_k ⋁_l (f_l ∸ f_k) and ⋀_l ⋁_k (f_l ∸ f_k) are ⋀_k (⋁f ∸ f_k) and
    ⋀_l (f_l ∸ ⋀f): two folds and two ∸ gathers the size of the family."""
    join, meet, tsub = vq.lattice.join, vq.lattice.meet, vq.tsub
    sides = tsub[fold_table(join, family, -1), family], tsub[family, fold_table(meet, family, -1)]
    return tuple(bool((fold_table(meet, side, -1) == vq.bottom).all()) for side in sides)


def eval_table(struct: LStructure, phi, window=None):
    """Evaluate over every assignment of the window variables at once.

    Returns an array of V elements with one axis per window variable, in
    window order; cross-checked against eval_formula in the test suite.
    """
    window = phi.window if window is None else tuple(window)
    k = max([phi.span] + [v + 1 for v in window])
    return TableEvaluator.of([struct], k).table(phi, window)


# -- conditions and theories ---------------------------------------------------


class Condition(Frozen):
    """The formal statement 'formula = 0'."""
    __match_args__ = ("formula",)
    def __init__(self, formula):
        set_field(self, "formula", formula)


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
    sym = struct.V.dsym[eval_table(struct, phi1), eval_table(struct, phi2)]
    return int(fold_table(struct.V.lattice.join, np.reshape(sym, -1), 0)[0])


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


class FormulaPool:
    """The nodes of one `enumerate_formulas` pool, each child before its
    parents; every node records (pool, row) as its ``_pool``. A node's
    table is its row of the stacked run cut to its own shape (``cuts``:
    size 1 on each axis whose variable is not free); ``groups`` holds, per
    set of free variables, (rows, index): the rows with that set, in pool
    order, and the index that gathers their cut tables from a stacked run
    at once; `layout` holds what a Łoś report of each row prints."""

    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        # a quantifier binds only a variable free in its body, so the atoms
        # hold every variable of the pool
        self.span = max([phi.span for phi in self.nodes
                         if phi.__class__ not in (Conn, Sup, Inf)], default=0)
        self.cuts = self.groups = self._program = None
        self._layouts = {}
        for row, phi in enumerate(self.nodes):
            set_field(phi, "_pool", (self, row))

    def admitted(self, m, batch):
        """Whether twice the stacked masks over m points and the batch take
        at most half of `CELL_BUDGET` cells: the held masks, plus the element
        indices that a Łoś pass decodes from them (`ultraproduct.LosTable`).
        The other half keeps node tables from evicting the run over and
        over."""
        return 2 * len(self.nodes) * m ** self.span * batch <= spaces.CELL_BUDGET // 2

    def program(self):
        """(atom rows, steps), compiled with ``cuts`` and ``groups`` on
        first use: one step per level and operation, in level order, as
        (Conn, connective, out rows, argument rows per place) or (Sup or
        Inf, variable, out rows, (body rows,)). An atom's level is 0, any
        other node's one more than its deepest argument's."""
        if self._program is None:
            rows = {id(phi): row for row, phi in enumerate(self.nodes)}
            levels, free, atoms, groups = [], [], [], {}
            for row, phi in enumerate(self.nodes):
                kind = phi.__class__
                if kind is Conn:
                    what, args = phi.connective, [rows[id(a)] for a in phi.args]
                    free.append(0)
                    for a in args:
                        free[row] |= free[a]
                elif kind is Sup or kind is Inf:
                    what, args = phi.var, [rows[id(phi.body)]]
                    free.append(free[args[0]] & ~(1 << what))
                else:
                    levels.append(0)
                    free.append(sum(1 << v for v in phi.window))
                    atoms.append(row)
                    continue
                levels.append(1 + max(levels[a] for a in args))
                out, places = groups.setdefault((levels[row], kind, id(what)),
                                                (what, [], [[] for _ in args]))[1:]
                out.append(row)
                for place, a in zip(places, args):
                    place.append(a)
            self.cuts = [(row,) + tuple(slice(None) if bits >> v & 1 else slice(1)
                                        for v in range(self.span))
                         for row, bits in enumerate(free)]
            by_free = {}
            for row, bits in enumerate(free):
                by_free.setdefault(bits, []).append(row)
            self.groups = [(rows, (np.array(rows),) + self.cuts[rows[0]][1:])
                           for rows in by_free.values()]
            steps = [(kind, what, np.array(out), tuple(map(np.array, places)))
                     for (_, kind, _), (what, out, places) in sorted(
                         groups.items(), key=lambda item: item[0][0])]
            self._program = atoms, steps
        return self._program

    def layout(self, vq):
        """Compiled once per carrier vq: per row, the node's text, its width
        and the rows of its quantified nodes (`Formula.quantified`); and the
        rows of the pool's sup and inf nodes."""
        hit = self._layouts.get(vq)
        if hit is None:
            quantified = [tuple(sub._pool[1] for sub in phi.quantified) for phi in self.nodes]
            hit = self._layouts[vq] = (
                [phi.text(vq) for phi in self.nodes], [len(phi.window) for phi in self.nodes],
                quantified, [row for row, subs in enumerate(quantified) if row in subs])
        return hit


def enumerate_formulas(sig: Signature, vq: CoQuantale, depth, max_free_vars):
    """Deterministic duplicate-free list of all formulas of tree depth up
    to ``depth`` over the unary and binary connectives of `enumeration_kit`
    and both quantifiers, with variables x0..x(k-1) and signature constants
    as the terms; its nodes form one `FormulaPool`. Each candidate built is
    charged as a loop iteration, up to `pool_bound`."""
    if depth < 0 or max_free_vars < 0:
        raise CqlError("a formula pool needs depth >= 0 and max_free_vars >= 0, not %d and %d"
                       % (depth, max_free_vars))
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
            else:
                for a, b in combinations_with_replacement(snapshot, 2):
                    push(Conn(conn, (a, b)))
        for phi in snapshot:
            for x in phi.window:
                push(Sup(x, phi))
                push(Inf(x, phi))
    FormulaPool(pool)
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


class Verdict(Record):
    __match_args__ = ("passed", "depth", "checked", "witness")
    def __init__(self, passed, depth, checked, witness):
        self.passed, self.depth, self.checked, self.witness = passed, depth, checked, witness

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
    name, decode = outer.V.element_name, outer.code.decode
    for phi, node, window, entries in ((phi, *case) for phi in pool for case in cases(phi)):
        open_blocks = [j for j, live in enumerate(lives) if live.any()]
        if not open_blocks:
            break
        # Birkhoff masks are one per element, so masks compare as values do;
        # the tables are (cell, member), cells in row-major order
        full = outer.spread(outer.masks(node), window)
        for j in open_blocks:
            inner, lift, points = blocks[j]
            mine = inner.spread(inner.masks(node), window).reshape(-1, inner.batch)
            theirs = full[np.ix_(*[lift] * len(window))].reshape(-1, inner.batch)
            differ = mine != theirs
            cells[j] += len(differ)
            fresh = np.flatnonzero(lives[j] & differ.any(axis=0))
            if not fresh.size:
                continue
            first = differ[:, fresh].argmax(axis=0)
            m, w = inner.m, len(window)
            for b, cell, x, y in zip(fresh.tolist(), first.tolist(),
                                     decode(mine[first, fresh]).tolist(),
                                     decode(theirs[first, fresh]).tolist()):
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
