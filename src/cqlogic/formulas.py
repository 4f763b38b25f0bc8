"""Syntax of the logic: signatures, terms, formulas, connectives with
declared moduli, the s-expression parser and modulus inference.

Grammar (s-expressions, '#'-free, whitespace separated):

    formula := "(d" term term ")"
             | "(" predname term* ")"
             | "(conn" connname formula* ")"
             | "(val" element ")"
             | "(sup" var formula ")"
             | "(inf" var formula ")"
    term    := var | constname | "(" funname term* ")"
    var     := "x" digits

A modulus is one read-only array: a positive δ per ε of `positives`, in
that order. Connective moduli are measured with the symmetric value
distance on both sides and max-combined tuple distance on the inputs; the
claim is verified exhaustively before a connective is accepted.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from functools import lru_cache, reduce

import numpy as np

from .coquantale import CoQuantale, epsilon_halver
from .errors import (ArityMismatch, FormulaSyntaxError, ModulusViolated,
                     NotValueCoquantale, UnknownSymbol)
from . import spaces
from .records import Frozen, set_field

RESERVED = {"d", "conn", "val", "sup", "inf"}
VAR_RE = re.compile(r"^x(\d+)$")


class Modulus:
    """Δ: V⁺ → V⁺ as one read-only int32 array, δ per ε of `positives` in
    that order; equal moduli have equal bytes, so they are one table."""

    def __init__(self, delta):
        delta = np.asarray(delta)
        self.delta = delta.astype(np.int32)
        if (self.delta != delta).any():
            raise ModulusViolated("delta %s is not an element" % delta[self.delta != delta][0])
        self.delta.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.delta.tobytes() == other.delta.tobytes()

    def __hash__(self):
        return hash(self.delta.tobytes())

    def __repr__(self):
        return "Modulus(%r)" % (self.delta.tolist(),)


def validate_modulus(vq: CoQuantale, modulus: Modulus) -> Modulus:
    delta = modulus.delta
    if delta.shape != (len(vq.positives()),):
        raise ModulusViolated("modulus must be total on the positives filter")
    odd = np.flatnonzero((delta < 0) | (delta >= vq.size))
    if odd.size:
        raise ModulusViolated("delta %d is not an element" % delta[odd[0]])
    low = np.flatnonzero(~vq.lattice.cwb[vq.bottom, delta])
    if low.size:
        raise ModulusViolated("delta %s is not positive" % vq.element_name(delta[low[0]]))
    return modulus


def modulus_cost(vq, count, arity, modulus):
    """Cell operations of `modulus_witness` over ``count`` argument tuples of
    ``arity`` coordinates: ``arity`` gathers per (s, t) cell, plus the
    n²·|modulus| table of `first_failure`."""
    return count * count * arity + vq.size ** 2 * modulus.delta.size


@lru_cache(maxsize=16)
def first_failure(vq, modulus):
    """[d, od]: the position in `positives` of the first ε with d ≤ Δ(ε) but
    od not ≤ ε, or ``modulus.delta.size`` when there is none. Built once per
    carrier and modulus and shared read-only."""
    leq = vq.lattice.leq
    bad = leq[:, None, modulus.delta] & ~leq[None, :, list(vq.positives())]
    first = np.where(bad.any(axis=2), bad.argmax(axis=2), modulus.delta.size)
    first = first.astype(np.min_scalar_type(modulus.delta.size))
    first.setflags(write=False)
    return first


@lru_cache(maxsize=32)
def _grids(n, arity):
    """The coordinates of every ``arity``-tuple over n points, row-major:
    [i, s] is the i-th coordinate of tuple s. Shared read-only."""
    grids = np.indices((n,) * arity).reshape(arity, -1)
    grids.setflags(write=False)
    return grids


def modulus_witness(vq, what, coord_dist, arity, out_dist, outputs, modulus):
    """The first (ε, s, t), ε in the order of `positives` and then tuples s, t
    in row-major order, with d(s,t) ≤ Δ(ε) but out_dist[outputs[s], outputs[t]]
    not ≤ ε, or None; d is the join of ``coord_dist`` over the ``arity``
    coordinates. Rows s run in blocks of at most CELL_BUDGET (s, t) cells;
    each cell gathers its first failing ε from `first_failure`."""
    n = len(coord_dist)
    count = n ** arity
    spaces.check_cost("modulus check of %s" % what, modulus_cost(vq, count, arity, modulus))
    first = first_failure(vq, modulus)
    grids = _grids(n, arity)
    rows = max(1, spaces.CELL_BUDGET // count)
    best, where = modulus.delta.size, None                  # ε position, s·count + t
    for start in range(0, count, rows):
        s = np.arange(start, min(start + rows, count))
        near = coord_dist[grids[0][s, None], grids[0]]
        for g in grids[1:]:
            near = vq.lattice.join[near, coord_dist[g[s, None], g]]
        fail = first[near, out_dist[outputs[s, None], outputs]].reshape(-1)
        at = int(fail.argmin())
        if fail[at] < best:
            best, where = int(fail[at]), start * count + at
            if best == 0:
                break
    return None if where is None else (vq.positives()[best],) + divmod(where, count)


def identity_modulus(vq: CoQuantale) -> Modulus:
    return Modulus(vq.positives())


@lru_cache(maxsize=16)
def halver_modulus(vq: CoQuantale) -> Modulus:
    """The ε-halver on every positive, built once per carrier."""
    return Modulus([epsilon_halver(vq, e) for e in vq.positives()])


def compose_moduli(vq: CoQuantale, inner: Modulus, outer: Modulus) -> Modulus:
    """Modulus for g∘f from f's (inner) and g's (outer) moduli, via `position`."""
    return Modulus(inner.delta[vq.position[outer.delta]])


def meet_moduli(vq: CoQuantale, moduli) -> Modulus:
    """Pointwise meet; stays positive because V⁺ is meet-closed."""
    deltas = [m.delta for m in moduli] or [vq.positives()]          # of none: the identity
    return Modulus(reduce(lambda a, b: vq.lattice.meet[a, b], deltas))


class Connective(Frozen):
    """A uniformly continuous map V^n -> V with a verified modulus.

    Equality and hashing go by (name, arity) so formulas stay hashable;
    names are expected to be unique within a kit. The connective keeps its
    operation on Birkhoff masks (`masked`) once it has been asked for.
    """
    __match_args__ = ("name", "arity")
    _records = Frozen._records + ("_masked",)

    def __init__(self, name, arity, table, modulus):
        set_field(self, "name", name)
        set_field(self, "arity", arity)
        set_field(self, "table", table)
        set_field(self, "modulus", modulus)
        self._unkept()

    def apply(self, args):
        return int(self.table[tuple(args)])

    def masked(self, code):
        """The connective on mask arrays of the `lattice.Birkhoff` encoding
        ``code`` (`Birkhoff.lift` of its table), kept with its encoding."""
        kept = self._masked
        if kept is None or kept[0] is not code:
            kept = (code, code.lift(self.table))
            set_field(self, "_masked", kept)
        return kept[1]

    def __repr__(self):
        return "Connective(%s/%d)" % (self.name, self.arity)


def register_connective(vq: CoQuantale, name, table, claimed: Modulus) -> Connective:
    """Verify the claimed modulus exhaustively and wrap the table.

    The check: for all argument tuples x, y and every positive ε, if the
    max-combined symmetric distance of x and y is ≤ Δ(ε) then the symmetric
    distance of the outputs is ≤ ε.
    """
    table = np.asarray(table, dtype=np.int32)
    arity = table.ndim
    if arity < 1:
        raise ArityMismatch("connectives must have arity >= 1")
    n = vq.size
    if table.shape != (n,) * arity or table.min() < 0 or table.max() >= n:
        raise ModulusViolated("connective table must be total on V^%d" % arity)
    validate_modulus(vq, claimed)
    witness = modulus_witness(vq, "connective %s" % name, vq.dsym, arity, vq.dsym,
                              table.reshape(-1), claimed)
    if witness is not None:
        eps, s, t = witness
        x, y = (tuple(vq.element_name(int(i)) for i in np.unravel_index(u, table.shape))
                for u in (s, t))
        raise ModulusViolated(
            "%s: inputs %s, %s within Δ(%s)=%s but outputs %s apart"
            % (name, x, y, vq.element_name(eps),
               vq.element_name(claimed.delta[vq.position[eps]]),
               vq.element_name(int(vq.dsym[table.flat[s], table.flat[t]]))))
    return Connective(name, arity, table, claimed)


class _Kit(Mapping):
    """The builtin connectives of one co-quantale by name. Each is registered,
    its modulus verified, on first use and then kept, so a formula pays only
    for the connectives it names; a connective whose check fails raises the
    same ModulusViolated at every use."""

    def __init__(self, vq):
        self.vq = vq
        self._specs = {"id": (np.arange(vq.size, dtype=np.int32), identity_modulus),
                       "vee": (vq.lattice.join, identity_modulus),
                       "wedge": (vq.lattice.meet, identity_modulus)}
        if vq.value_flag:
            self._specs["oplus"] = (vq.add, halver_modulus)
        for b in vq.dualizers:
            self._specs["dual:%s" % vq.element_name(b)] = (vq.tsub[b], identity_modulus)
        self._registered = {}

    def __getitem__(self, name):
        conn = self._registered.get(name)
        if conn is None:
            table, modulus = self._specs[name]
            conn = self._registered[name] = register_connective(self.vq, name, table,
                                                                modulus(self.vq))
        return conn

    def __contains__(self, name):
        return name in self._specs

    def __iter__(self):
        return iter(self._specs)

    def __len__(self):
        return len(self._specs)


def default_kit(vq: CoQuantale) -> Mapping:
    """Join, meet, monoid addition, identity and b∸□ per dualizer, by name.

    One kit per co-quantale, cached on the instance; each connective is
    checked on first use (see `_Kit`). The addition connective needs the
    ε-halver so it only ships on value co-quantales.
    """
    kit = getattr(vq, "_default_kit", None)
    if kit is None:
        kit = vq._default_kit = _Kit(vq)
    return kit


# -- terms and formulas -------------------------------------------------------


class Var(Frozen):
    __match_args__ = ("index",)
    def __init__(self, index):
        set_field(self, "index", index)


class Const(Frozen):
    __match_args__ = ("name",)
    def __init__(self, name):
        set_field(self, "name", name)


class App(Frozen):
    __match_args__ = ("func", "args")
    def __init__(self, func, args):
        set_field(self, "func", func)
        set_field(self, "args", args)


class Formula(Frozen):
    """Base of the formula nodes. A node holds records of itself, each
    computed on first use: a pool's nodes are the same objects for every
    structure and product it is checked on, so each record is computed once
    per node, not once per check. The records are written with `set_field`
    beside the node's fields, as `Frozen` keeps its key: an instance
    ``__dict__`` (which ``cached_property`` would make) takes every field
    load of the node off CPython's specialized path. A node built by
    `semantics.enumerate_formulas` also records (pool, row), its pool and
    its place in it, as ``_pool``."""

    _records = Frozen._records + ("_window", "_span", "_quantified", "_texts", "_moduli",
                                  "_pool")

    @property
    def window(self):
        """The free variables in increasing order."""
        kept = self._window
        if kept is None:
            kept = tuple(sorted(free_vars(self)))
            set_field(self, "_window", kept)
        return kept

    @property
    def span(self):
        """`var_span`: one more than the largest variable index."""
        kept = self._span
        if kept is None:
            kept = var_span(self)
            set_field(self, "_span", kept)
        return kept

    @property
    def quantified(self):
        """`quantified_subformulas`: the sup and inf nodes, outermost first."""
        kept = self._quantified
        if kept is None:
            kept = tuple(quantified_subformulas(self))
            set_field(self, "_quantified", kept)
        return kept

    def text(self, vq):
        """`print_formula` over the carrier vq, kept per carrier."""
        texts = self._texts
        if texts is None:
            texts = {}
            set_field(self, "_texts", texts)
        hit = texts.get(vq)
        if hit is None:
            hit = texts[vq] = print_formula(self, vq)
        return hit

    def modulus(self, sig, vq):
        """`_infer`, kept per carrier and signature."""
        moduli = self._moduli
        if moduli is None:
            moduli = {}
            set_field(self, "_moduli", moduli)
        hit = moduli.get((vq, sig))             # held as a 1-tuple: None is a record too
        if hit is None:
            hit = moduli[vq, sig] = (_infer(self, sig, vq),)
        return hit[0]


class DistAtom(Formula):
    __match_args__ = ("left", "right")
    def __init__(self, left, right):
        set_field(self, "left", left)
        set_field(self, "right", right)
        self._unkept()


class PredAtom(Formula):
    __match_args__ = ("pred", "args")
    def __init__(self, pred, args):
        set_field(self, "pred", pred)
        set_field(self, "args", args)
        self._unkept()


class Conn(Formula):
    __match_args__ = ("connective", "args")
    def __init__(self, connective, args):
        set_field(self, "connective", connective)
        set_field(self, "args", args)
        self._unkept()


class Val(Formula):
    __match_args__ = ("element",)
    def __init__(self, element):
        set_field(self, "element", element)
        self._unkept()


class Sup(Formula):
    __match_args__ = ("var", "body")
    def __init__(self, var, body):
        set_field(self, "var", var)
        set_field(self, "body", body)
        self._unkept()


class Inf(Formula):
    __match_args__ = ("var", "body")
    def __init__(self, var, body):
        set_field(self, "var", var)
        set_field(self, "body", body)
        self._unkept()


def term_free_vars(t):
    match t:
        case Var(index=i):
            return frozenset([i])
        case Const():
            return frozenset()
        case App(args=args):
            return frozenset().union(*map(term_free_vars, args))
    raise TypeError("not a term: %r" % (t,))


def free_vars(phi):
    match phi:
        case DistAtom(left=l, right=r):
            return term_free_vars(l) | term_free_vars(r)
        case PredAtom(args=args):
            return frozenset().union(*map(term_free_vars, args))
        case Conn(args=args):
            return frozenset().union(*map(free_vars, args))
        case Val():
            return frozenset()
        case Sup(var=x, body=b) | Inf(var=x, body=b):
            return free_vars(b) - {x}
    raise TypeError("not a formula: %r" % (phi,))


def var_span(phi):
    """One more than the largest variable index in φ, free or bound."""
    match phi:
        case Var(index=i):
            return i + 1
        case DistAtom(left=l, right=r):
            return max(var_span(l), var_span(r))
        case App(args=args) | PredAtom(args=args) | Conn(args=args):
            return max(map(var_span, args), default=0)
        case Sup(var=x, body=b) | Inf(var=x, body=b):
            return max(x + 1, var_span(b))
    return 0


def quantified_subformulas(phi):
    """The sup and inf nodes of φ, outermost first."""
    match phi:
        case Sup(body=b) | Inf(body=b):
            return [phi] + quantified_subformulas(b)
        case Conn(args=args):
            return [q for a in args for q in quantified_subformulas(a)]
        case _:
            return []


def is_quantifier_free(phi):
    match phi:
        case Sup() | Inf():
            return False
        case Conn(args=args):
            return all(is_quantifier_free(a) for a in args)
        case _:
            return True


def is_sentence(phi):
    return not free_vars(phi)


def formula_depth(phi):
    match phi:
        case Conn(args=args):
            return 1 + max(formula_depth(a) for a in args)
        case Sup(body=b) | Inf(body=b):
            return 1 + formula_depth(b)
        case _:
            return 0


# -- signatures ------------------------------------------------------------------


class Signature:
    """Non-logical symbol declarations: predicates and functions carry an
    arity and a declared modulus, constants are bare names."""

    def __init__(self, predicates=(), functions=(), constants=()):
        self.predicates = {}
        self.functions = {}
        self.constants = tuple(str(c) for c in constants)
        for name, arity, modulus in predicates:
            self.predicates[str(name)] = (int(arity), modulus)
        for name, arity, modulus in functions:
            self.functions[str(name)] = (int(arity), modulus)
        names = list(self.predicates) + list(self.functions) + list(self.constants)
        if len(set(names)) != len(names):
            raise UnknownSymbol("symbol names must be unique across kinds")
        for name in names:
            if name in RESERVED or VAR_RE.match(name):
                raise UnknownSymbol("%r is a reserved name" % name)
        for name, (arity, _) in list(self.predicates.items()) + list(self.functions.items()):
            if arity < 1:
                raise ArityMismatch("%s: arity must be >= 1" % name)

    def __eq__(self, other):
        return (isinstance(other, Signature)
                and self.predicates == other.predicates
                and self.functions == other.functions
                and self.constants == other.constants)

    def __hash__(self):
        return hash((frozenset(self.predicates.items()), frozenset(self.functions.items())))

    def __repr__(self):
        return ("Signature(preds=%r, funs=%r, consts=%r)"
                % (sorted(self.predicates), sorted(self.functions), list(self.constants)))


# -- parsing -------------------------------------------------------------------


_TOKEN_RE = re.compile(r"[()]|[^()\s]+")


def _tokenize(text):
    return [(match.group(0), match.start()) for match in _TOKEN_RE.finditer(text)]


class _Parser:
    def __init__(self, text, sig, vq, kit):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.vq = vq
        self.kit = kit
        self.length = len(text)

    def peek(self):
        if self.pos >= len(self.tokens):
            return None, self.length
        return self.tokens[self.pos]

    def next(self):
        tok, at = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", at)
        self.pos += 1
        return tok, at

    def expect(self, symbol):
        tok, at = self.next()
        if tok != symbol:
            raise FormulaSyntaxError("expected %r, got %r" % (symbol, tok), at)

    def done(self):
        tok, at = self.peek()
        if tok is not None:
            raise FormulaSyntaxError("trailing input %r" % tok, at)

    # terms ------------------------------------------------------------

    def term(self):
        tok, at = self.next()
        if tok == ")":
            raise FormulaSyntaxError("unexpected ')'", at)
        if tok == "(":
            head, hat = self.next()
            if head not in self.sig.functions:
                raise UnknownSymbol("unknown function symbol %r" % head)
            return App(head, self.args_until_close(self.term, head,
                                                   self.sig.functions[head][0]))
        m = VAR_RE.match(tok)
        if m:
            return Var(int(m.group(1)))
        if tok in self.sig.constants:
            return Const(tok)
        raise UnknownSymbol("unknown term symbol %r" % tok)

    def args_until_close(self, parse_one, head, arity):
        args = []
        while True:
            tok, _ = self.peek()
            if tok == ")":
                self.next()
                if len(args) != arity:
                    raise ArityMismatch("%s expects %d arguments, got %d"
                                        % (head, arity, len(args)))
                return tuple(args)
            if tok is None:
                raise FormulaSyntaxError("missing ')'", self.length)
            args.append(parse_one())

    # formulas ----------------------------------------------------------

    def formula(self):
        tok, at = self.next()
        if tok != "(":
            raise FormulaSyntaxError("formulas start with '('", at)
        head, hat = self.next()
        if head == "d":
            left = self.term()
            right = self.term()
            self.expect(")")
            return DistAtom(left, right)
        if head == "val":
            name, nat = self.next()
            element = self.vq.parse_element(name)
            self.expect(")")
            return Val(element)
        if head in ("sup", "inf"):
            var, vat = self.next()
            m = VAR_RE.match(var)
            if not m:
                raise FormulaSyntaxError("quantifier variable must be xN", vat)
            body = self.formula()
            self.expect(")")
            node = Sup if head == "sup" else Inf
            return node(int(m.group(1)), body)
        if head == "conn":
            name, nat = self.next()
            if name not in self.kit:
                raise UnknownSymbol("unknown connective %r" % name)
            conn = self.kit[name]
            return Conn(conn, self.args_until_close(self.formula, name, conn.arity))
        if head in self.sig.predicates:
            return PredAtom(head, self.args_until_close(self.term, head,
                                                        self.sig.predicates[head][0]))
        raise UnknownSymbol("unknown formula head %r" % head)


def parse_formula(text, sig: Signature, vq: CoQuantale):
    parser = _Parser(text, sig, vq, default_kit(vq))
    phi = parser.formula()
    parser.done()
    return phi


def parse_term(text, sig: Signature, vq: CoQuantale):
    parser = _Parser(text, sig, vq, {})
    t = parser.term()
    parser.done()
    return t


def print_term(t):
    match t:
        case Var(index=i):
            return "x%d" % i
        case Const(name=name):
            return name
        case App(func=f, args=args):
            return "(%s %s)" % (f, " ".join(print_term(a) for a in args))
    raise TypeError("not a term: %r" % (t,))


def print_formula(phi, vq: CoQuantale = None):
    match phi:
        case DistAtom(left=l, right=r):
            return "(d %s %s)" % (print_term(l), print_term(r))
        case PredAtom(pred=p, args=args):
            return "(%s %s)" % (p, " ".join(print_term(a) for a in args))
        case Conn(connective=c, args=args):
            return "(conn %s %s)" % (c.name, " ".join(print_formula(a, vq) for a in args))
        case Val(element=e):
            return "(val %s)" % (vq.element_name(e) if vq is not None else e)
        case Sup(var=x, body=b):
            return "(sup x%d %s)" % (x, print_formula(b, vq))
        case Inf(var=x, body=b):
            return "(inf x%d %s)" % (x, print_formula(b, vq))
    raise TypeError("not a formula: %r" % (phi,))


# -- modulus inference ----------------------------------------------------------


def _composed(vq, parts, outer):
    """The meet of ``outer`` after each part that can move, or None."""
    live = [compose_moduli(vq, p, outer) for p in parts if p is not None]
    return meet_moduli(vq, live) if live else None


def infer_modulus(phi, sig: Signature, vq: CoQuantale) -> Modulus:
    """A modulus valid for the formula's interpretation in every structure.

    Atoms compose the declared predicate modulus with the term moduli; the
    distance atom uses the ε-halver (moving both arguments by δ moves the
    distance by at most δ + δ); connectives compose; quantifiers pass the
    body's modulus through unchanged.
    """
    if not vq.value_flag:
        raise NotValueCoquantale("modulus inference needs a value co-quantale")
    result = phi.modulus(sig, vq)
    return result if result is not None else identity_modulus(vq)


def _infer(phi, sig, vq):
    """The modulus of a formula node or a term, or None when it contains no
    variable and so cannot move at all."""
    match phi:
        case Var():
            return identity_modulus(vq)
        case Const() | Val():
            return None
        case App(func=f, args=args):
            return _composed(vq, [_infer(a, sig, vq) for a in args], sig.functions[f][1])
        case DistAtom(left=l, right=r):
            return _composed(vq, [_infer(t, sig, vq) for t in (l, r)], halver_modulus(vq))
        case PredAtom(pred=p, args=args):
            return _composed(vq, [_infer(a, sig, vq) for a in args], sig.predicates[p][1])
        case Conn(connective=c, args=args):
            return _composed(vq, [a.modulus(sig, vq) for a in args], c.modulus)
        case Sup(body=b) | Inf(body=b):
            return b.modulus(sig, vq)
    raise TypeError("not a formula or term: %r" % (phi,))
