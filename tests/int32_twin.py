"""The table evaluator as it was before it computed on Birkhoff masks:
every table holds int32 element indices, a connective is a gather from its
table and a sup or an inf is `fold_table` over the lattice's join or meet
table. It is the reference twin that `semantics.TableEvaluator` is checked
against, table for table."""

import numpy as np

from cqlogic import spaces
from cqlogic.errors import UnboundVariable
from cqlogic.formulas import App, Conn, Const, DistAtom, Inf, PredAtom, Sup, Val, Var, free_vars
from cqlogic.lattice import fold_table
from cqlogic.spaces import check_cost


class Int32Evaluator:
    """Memoized tables of formulas over a batch of structures that share a
    value co-quantale, a signature and a universe size m.

    Every table has a leading batch axis and one axis per variable
    x0..x(k-1). An axis has size m where its variable is free and size 1
    where it is not; a quantifier folds its own axis down to size 1. So a
    node's table does not depend on the formula around it, and each node is
    evaluated once per evaluator. A single structure is a batch of one
    (``Int32Evaluator.of``).
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
