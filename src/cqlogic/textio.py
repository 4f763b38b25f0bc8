"""Line-oriented text formats for lattices, co-quantales, spaces and
structures, plus the workspace that keeps loaded objects by name.

All formats are UTF-8 with '#' comments. Directives:

  @lattice NAME / @elements E0 E1 ... / @leq A B
      (the loader applies the reflexive-transitive closure)
  @coquantale NAME over LATTICE / @add A B C      (meaning A + B = C)
  @coquantale NAME / @builtin SPEC
  @space NAME over COQUANTALE / @points P Q ... / @dist P Q ELEM
      (missing pairs default: diagonal 0, off-diagonal top)
  @structure NAME over COQUANTALE / @universe P Q ... / @dist P Q ELEM /
      @pred P ARITY [@modulus EPS DELTA ...] / @predval P POINTS... ELEM /
      @fun F ARITY [@modulus ...] / @funval F POINTS... POINT / @const C P
      (each positive EPS once; an omitted @modulus means the identity table)

A COQUANTALE that no block declares may be a builtin spec (``chain:4``,
``freelocale:2``, ...): the reader resolves it to the shared carrier of that
spec, so a structure written over a builtin loads back on its own. A
declared block of the same name takes precedence.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import coquantale as cq
from . import semantics as sem
from . import spaces as sp
from .errors import ParseError, SizeLimit, UnknownBuiltin, UnknownElement
from .formulas import Modulus, Signature, identity_modulus
from .lattice import _path_counts, validate_lattice


class Workspace:
    """Loaded objects by kind and name; everything validated on entry."""

    def __init__(self):
        self.lattices = {}
        self.coquantales = {}
        self.spaces = {}
        self.structures = {}

    def register(self, kind, name, obj):
        table = getattr(self, kind)
        if name in table:
            raise ParseError("duplicate %s name %r" % (kind[:-1], name))
        table[name] = obj

    def coquantale(self, name, line=None):
        """The declared co-quantale ``name``, else the builtin of that spec;
        a name that is neither is a ParseError on ``line``."""
        if name in self.coquantales:
            return self.coquantales[name]
        return _builtin(name, line, "unknown co-quantale %r" % name)

    def structure(self, name):
        if name not in self.structures:
            raise ParseError("unknown structure %r" % name)
        return self.structures[name]

    def load_path(self, path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError("cannot read %s: %s" % (path, exc.strerror))
        self.load_text(text)

    def load_text(self, text):
        for header, lines in _split_blocks(text):
            # a block opens only at @lattice, @coquantale, @space or @structure
            getattr(self, "_load_" + header[0][0][1:])(header, lines)

    # -- block loaders ------------------------------------------------------

    def _load_lattice(self, header, lines):
        name = _block_name(header)
        elements = None
        pairs = []
        for tokens, lineno in lines:
            if tokens[0] == "@elements":
                elements = tokens[1:]
            elif tokens[0] == "@leq":
                _expect(tokens, 3, lineno)
                pairs.append((tokens[1], tokens[2], lineno))
            else:
                raise ParseError("unexpected %r in @lattice" % tokens[0], lineno)
        if not elements:
            raise ParseError("@lattice %s needs @elements" % name, header[1])
        n = len(elements)
        # square the reflexive relation until stable: ⌈log₂ n⌉ + 1 products at most
        sp.check_cost("closing the order of @lattice %s on %d elements" % (name, n),
                      n ** 3 * ((n - 1).bit_length() + 1))
        index = {e: i for i, e in enumerate(elements)}
        order = np.eye(n, dtype=bool)
        for a, b, lineno in pairs:
            if a not in index or b not in index:
                raise ParseError("unknown element in @leq %s %s" % (a, b), lineno)
            order[index[a], index[b]] = True
        while True:
            closed = _path_counts(order, order) > 0
            if (closed == order).all():
                break
            order = closed
        self.register("lattices", name, validate_lattice(order, elements))

    def _load_coquantale(self, header, lines):
        tokens, lineno = header
        name = _block_name(header)
        if len(tokens) == 2:
            builtin_line = [l for l in lines if l[0][0] == "@builtin"]
            if len(builtin_line) != 1 or len(lines) != 1:
                raise ParseError("@coquantale %s needs 'over LATTICE' or a single @builtin" % name,
                                 lineno)
            toks, lno = builtin_line[0]
            _expect(toks, 2, lno)
            self.register("coquantales", name, _builtin(toks[1], lno))
            return
        if len(tokens) != 4 or tokens[2] != "over":
            raise ParseError("use '@coquantale NAME over LATTICE'", lineno)
        if tokens[3] not in self.lattices:
            raise ParseError("unknown lattice %r" % tokens[3], lineno)
        lattice = self.lattices[tokens[3]]
        n = lattice.n
        add = np.full((n, n), -1, dtype=np.int64)
        for toks, lno in lines:
            if toks[0] != "@add":
                raise ParseError("unexpected %r in @coquantale" % toks[0], lno)
            _expect(toks, 4, lno)
            try:
                a, b, c = (lattice.index(t) for t in toks[1:4])
            except KeyError as exc:
                raise ParseError("unknown element %s" % exc, lno)
            if add[a, b] not in (-1, c):
                raise ParseError("conflicting @add for %s %s" % (toks[1], toks[2]), lno)
            add[a, b] = c
            add[b, a] = c
        add[lattice.bottom, :] = np.where(add[lattice.bottom, :] == -1,
                                          np.arange(n), add[lattice.bottom, :])
        add[:, lattice.bottom] = add[lattice.bottom, :]
        if (add == -1).any():
            a, b = map(int, np.argwhere(add == -1)[0])
            raise ParseError("missing @add %s %s" % (lattice.name(a), lattice.name(b)),
                             header[1])
        self.register("coquantales", name, cq.validate_coquantale(lattice, add, name))

    def _parse_space_block(self, header, lines, points_directive):
        tokens, lineno = header
        if len(tokens) != 4 or tokens[2] != "over":
            raise ParseError("use '%s NAME over COQUANTALE'" % tokens[0], lineno)
        vq = self.coquantale(tokens[3], lineno)
        points = None
        dist_lines = []
        rest = []
        for toks, lno in lines:
            if toks[0] == points_directive:
                points = toks[1:]
            elif toks[0] == "@dist":
                _expect(toks, 4, lno)
                dist_lines.append((toks[1], toks[2], toks[3], lno))
            else:
                rest.append((toks, lno))
        if not points:
            raise ParseError("%s block needs %s" % (tokens[0], points_directive), lineno)
        index = {p: i for i, p in enumerate(points)}
        m = len(points)
        dist = [[vq.bottom if i == j else vq.top for j in range(m)] for i in range(m)]
        for a, b, val, lno in dist_lines:
            if a not in index or b not in index:
                raise ParseError("unknown point in @dist %s %s" % (a, b), lno)
            try:
                dist[index[a]][index[b]] = vq.parse_element(val)
            except UnknownElement:
                raise ParseError("unknown element %r" % val, lno)
        return vq, points, dist, rest

    def _load_space(self, header, lines):
        name = _block_name(header)
        vq, points, dist, rest = self._parse_space_block(header, lines, "@points")
        if rest:
            raise ParseError("unexpected %r in @space" % rest[0][0][0], rest[0][1])
        self.register("spaces", name, sp.validate_space(vq, points, dist))

    def _load_structure(self, header, lines):
        name = _block_name(header)
        vq, points, dist, rest = self._parse_space_block(header, lines, "@universe")
        space = sp.validate_space(vq, points, dist)
        index = {p: i for i, p in enumerate(points)}
        preds, funs, consts = [], [], []
        predvals, funvals = {}, {}
        for toks, lno in rest:
            kind = toks[0]
            if kind in ("@pred", "@fun"):
                if len(toks) < 3:
                    raise ParseError("%s needs NAME and ARITY" % kind, lno)
                try:
                    arity = int(toks[2])
                except ValueError:
                    raise ParseError("bad arity %r" % toks[2], lno)
                modulus = identity_modulus(vq)
                if len(toks) > 3:
                    if toks[3] != "@modulus" or (len(toks) - 4) % 2:
                        raise ParseError("inline modulus must be '@modulus EPS DELTA ...'", lno)
                    try:
                        eps, delta = ([vq.parse_element(t) for t in toks[i::2]] for i in (4, 5))
                    except UnknownElement:
                        raise ParseError("unknown element in @modulus", lno)
                    if len(set(eps)) < len(eps):
                        raise ParseError("@modulus lists an ε twice", lno)
                    if sorted(eps) != list(vq.positives()):
                        raise ParseError("@modulus must list every positive ε", lno)
                    modulus = Modulus(np.array(delta)[np.argsort(eps)])
                (preds if kind == "@pred" else funs).append((toks[1], arity, modulus))
            elif kind in ("@predval", "@funval"):
                store = predvals if kind == "@predval" else funvals
                store.setdefault(toks[1], []).append((toks[2:], lno))
            elif kind == "@const":
                _expect(toks, 3, lno)
                consts.append((toks[1], toks[2], lno))
            else:
                raise ParseError("unexpected %r in @structure" % kind, lno)
        sig = Signature(predicates=preds, functions=funs,
                        constants=[c[0] for c in consts])
        pred_tables = _load_tables("@predval", preds, predvals, index, "a value", header[1],
                                   vq.parse_element, lambda text: "unknown element %r" % text)
        fun_tables = _load_tables("@funval", funs, funvals, index, "an image", header[1],
                                  index.__getitem__, lambda text: "unknown point in @funval")
        const_points = {}
        for cname, point, lno in consts:
            if point not in index:
                raise ParseError("unknown point %r in @const" % point, lno)
            const_points[cname] = index[point]
        self.register("structures", name,
                      sem.validate_structure(space, sig, pred_tables, fun_tables,
                                             const_points, name=name))


def _builtin(spec, line, unknown=None):
    """The builtin carrier of ``spec``; an unknown spec (worded ``unknown``
    if given) or one past its cap is a ParseError on ``line``."""
    try:
        return cq.builtin(spec)
    except UnknownBuiltin as exc:
        raise ParseError(unknown or str(exc), line)
    except SizeLimit as exc:
        raise ParseError(str(exc), line)


def _load_tables(kind, symbols, rows, index, noun, header_line, parse, bad):
    """The total table of each symbol from its ``kind`` lines: points, then a
    last token that ``parse`` reads and ``bad`` words the failure of."""
    tables = {}
    for sname, arity, _ in symbols:
        table = np.zeros((len(index),) * arity, dtype=np.int32)
        filled = np.zeros(table.shape, dtype=bool)
        for args, lno in rows.get(sname, []):
            if len(args) != arity + 1:
                raise ParseError("%s %s needs %d points and %s" % (kind, sname, arity, noun), lno)
            try:
                where = tuple(index[a] for a in args[:-1])
            except KeyError:
                raise ParseError("unknown point in %s" % kind, lno)
            try:
                table[where] = parse(args[-1])
            except (KeyError, UnknownElement):
                raise ParseError(bad(args[-1]), lno)
            filled[where] = True
        if not filled.all():
            raise ParseError("%s table for %s is not total" % (kind, sname), header_line)
        tables[sname] = table
    return tables


def write_structure(struct, name=None) -> str:
    """Emit a structure in the same text format the loader accepts: a @dist
    line for each cell off the default table, a @predval and @funval line for
    each cell of each table, in row-major order. The text is joined from one
    string per row of a table, not one per cell."""
    vq = struct.V
    names = [vq.element_name(e) for e in range(vq.size)]
    points = struct.points
    out = ["@structure %s over %s" % (name or struct.name, vq.name)]
    out.append("@universe %s" % " ".join(points))
    # the cells off the default table: top, with the bottom on the diagonal
    moved = struct.dist != vq.top
    np.fill_diagonal(moved, struct.dist.diagonal() != vq.bottom)
    for p, row, mask in zip(points, struct.dist, moved):
        cols = np.flatnonzero(mask)
        if cols.size:
            prefix = "@dist %s " % p
            out.append("\n".join([prefix + points[j] + " " + names[e]
                                  for j, e in zip(cols.tolist(), row[cols].tolist())]))
    for pname in sorted(struct.sig.predicates):
        arity, modulus = struct.sig.predicates[pname]
        out.append("@pred %s %d %s" % (pname, arity, _modulus_text(vq, modulus)))
        out.extend(_rows("@predval " + pname, points, struct.pred_tables[pname], names))
    for fname in sorted(struct.sig.functions):
        arity, modulus = struct.sig.functions[fname]
        out.append("@fun %s %d %s" % (fname, arity, _modulus_text(vq, modulus)))
        out.extend(_rows("@funval " + fname, points, struct.fun_tables[fname], points))
    for cname in struct.sig.constants:
        out.append("@const %s %s" % (cname, points[struct.const_points[cname]]))
    out.append("")              # the final newline, with no copy of the joined text
    return "\n".join(out)


def _rows(head, points, table, render):
    """One string per row of ``table`` (its last axis) holding the line
    `head args entry` of each of the row's cells, the entry named by
    ``render``, in row-major order."""
    for lead, row in zip(product(points, repeat=table.ndim - 1), table.reshape(-1, len(points))):
        prefix = " ".join((head,) + lead) + " "
        yield "\n".join([prefix + p + " " + render[e] for p, e in zip(points, row.tolist())])


def _modulus_text(vq, modulus):
    return "@modulus " + " ".join("%s %s" % (vq.element_name(e), vq.element_name(d))
                                  for e, d in zip(vq.positives(), modulus.delta))


def _split_blocks(text):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not tokens[0].startswith("@"):
            raise ParseError("directives start with '@', got %r" % tokens[0], lineno)
        if tokens[0] in ("@lattice", "@coquantale", "@space", "@structure"):
            current = ((tokens, lineno), [])
            blocks.append(current)
        else:
            if current is None:
                raise ParseError("%r before any block header" % tokens[0], lineno)
            current[1].append((tokens, lineno))
    return blocks


def _block_name(header):
    tokens, lineno = header
    if len(tokens) < 2:
        raise ParseError("%s needs a name" % tokens[0], lineno)
    return tokens[1]


def _expect(tokens, count, lineno):
    if len(tokens) != count:
        raise ParseError("%s expects %d fields" % (tokens[0], count - 1), lineno)
