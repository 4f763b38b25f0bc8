"""Finite V-continuity spaces, their topologies, and the two dictionaries
(preorders over the two-element carrier, topological spaces over free
locales).

A space stores its value universe V (a table co-quantale, or the principal
down-sets of a free locale as bitmasks), an ordered point list and one
read-only (m, m) distance table of integers in V's array format
``V.dtype``: int32 element indices over a table co-quantale, uint64 masks
over the principal down-sets. Both answer the same table lookups (``V.add``,
``V.lattice.leq``/``join``/``cwb``) by numpy, so every law has one kernel.
`validate_space` is the only place a table is converted; every other
function reads or gathers that array. Point sets returned by operations are
frozensets of point names. A topology stores its opens as int masks over
the point indices, and frozensets only as a view. One up-set kernel grows
the preorders a point at a time and gives their topologies and the induced
ones; validation and induced topologies share one closure check, and each
topology theorem is one bool table over the masks of τ, τ* and τ^s.

Points x and x' are twins when d(x,·) = d(x',·) and d(·,x) = d(·,x'), as in
a D-product of finitely many factors; `validate_space` runs the triangle
kernel on the first point of each twin class. A failing triple's
representatives fail too and are componentwise no larger, so the witness is
the full check's. The check is charged m³, its cost when no point has a twin.

Size limits come from two budgets: `CELL_BUDGET` bounds the cells of one
block of a row-blocked kernel and of one evaluator memo, `WORK_BUDGET` the
cell operations of one call. Every kernel and every Python-loop scan
computes its cost from its input sizes, a loop iteration counted at the
fixed rate of `loop_cost`, and `check_cost` refuses it before it starts.
Other modules read both budgets here at call time."""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress

import numpy as np

from .coquantale import builtin
from .errors import (NotAPreorder, NotATopology, NotPositive,
                     ReflexivityViolation, SizeLimit, TransitivityViolation,
                     UnknownElement, VerificationFailed)
from .lattice import _path_counts, fold_table, integer_array
from .records import Frozen, Record, set_field

# cells per block of a row-blocked kernel (up to 12 bytes each) and per
# TableEvaluator memo, which holds Birkhoff masks only (1 to 8 bytes, or a
# pointer to a Python int past 64 join-irreducibles)
CELL_BUDGET = 1 << 21
# cell operations one call may spend (a 512-point triangle check)
WORK_BUDGET = 1 << 27


def count_text(count):
    """A count for a `check_cost` text: past 8,192 bits, "at least 2^k"."""
    bits = int(count).bit_length()
    return "%d" % count if bits <= 8192 else "at least 2^%d" % (bits - 1)


def check_cost(what, cost):
    """Refuse an operation of more than WORK_BUDGET cell operations."""
    if cost > WORK_BUDGET:
        raise SizeLimit("%s costs %s cell operations (budget %d)"
                        % (what, count_text(cost), WORK_BUDGET))


def loop_cost(iterations):
    """Cell operations charged for ``iterations`` of a Python loop: 64 each.
    Measured on a 2-core host (Python 3.11.7): a cell of the 512-point
    triangle check takes 11-14 ns, and an iteration of a Python scan over
    sets of points 0.6-1.1 µs (48-85 cells)."""
    return 64 * iterations


class ContinuitySpace:
    """Points and a validated distance table; see `validate_space`."""

    def __init__(self, values, points, dist):
        self.V = values
        self.points = list(points)
        self.dist = dist
        self._index = {p: i for i, p in enumerate(self.points)}

    @property
    def m(self):
        return len(self.points)

    def index(self, point):
        try:
            return self._index[point]
        except KeyError:
            raise UnknownElement("%r is not a point of this space" % (point,)) from None

    def d(self, x, y):
        return self.dist[x, y]

    def point_set(self, indices):
        return frozenset(self.points[i] for i in indices)

    def __repr__(self):
        return "ContinuitySpace(points=%r over %s)" % (self.points, getattr(self.V, "name", "V"))


def validate_space(values, points, dist) -> ContinuitySpace:
    """Check the table's shape and entries, reflexivity and the triangle law
    exhaustively. The triangle law is decided on the first point of each
    twin class, and its witness is the first failing (x, y, z) of the whole
    table in row-major order. V's elements are the integers 0 to
    ``values.size`` - 1; the space keeps its own read-only copy of the table
    in the carrier's array format (``values.dtype``)."""
    points = [str(p) for p in points]
    if not points or len(set(points)) != len(points):
        raise ReflexivityViolation("points must be a nonempty list of unique names")
    m = len(points)
    check_cost("triangle check on %d points" % m, triangle_cost(m))
    try:
        table = np.asarray(dist)
    except ValueError:                                  # ragged rows
        table = np.empty(0)
    if table.shape != (m, m):
        raise ReflexivityViolation("dist table must be %d x %d" % (m, m))
    integer_array(table, ReflexivityViolation, "dist entries")
    bad = table[(table < 0) | (table >= values.size)]
    if bad.size:
        raise ReflexivityViolation("dist entry %d is not a V element" % bad[0])
    table = table.astype(values.dtype)
    for x in range(m):
        if table[x, x] != values.bottom:
            raise ReflexivityViolation("d(%s,%s) != 0" % (points[x], points[x]))
    reps = _twin_representatives(table)
    reduced = table if len(reps) == m else table[np.ix_(reps, reps)]
    x, y, z = _triangle_witness(values, reduced[None])[0]
    if x >= 0:
        raise TransitivityViolation("d(%s,%s) > d(%s,%s) + d(%s,%s)"
                                    % tuple(points[reps[i]] for i in (x, y, x, z, z, y)))
    table.setflags(write=False)
    return ContinuitySpace(values, points, table)


def _twin_representatives(table):
    """The first index of each twin class of a nonempty table, in increasing
    order: x and x' are twins when their rows and their columns are equal,
    so x is keyed by the bytes of row x of [table | tableᵀ]."""
    rows, cols = table.tobytes(), table.T.tobytes()
    step = len(rows) // len(table)
    first = {}
    for at in range(0, len(rows), step):
        first.setdefault(rows[at:at + step] + cols[at:at + step], at // step)
    return list(first.values())


def triangle_cost(m):
    """The m³ triples of the triangle check."""
    return m ** 3


def _triangle_witness(values, tables):
    """Per table of an (N, m, m) stack, the first (x, y, z) in row-major order
    with d(x,y) > d(x,z) + d(z,y), or (-1, -1, -1). Consecutive (table, row x)
    pairs run in blocks of at most CELL_BUDGET path cells, until every table
    has its witness."""
    count, m = tables.shape[:2]
    flat = tables.reshape(-1, m)               # row r is d(x, ·) of table r // m, x = r % m
    out = np.full((count, 3), -1)
    rows = max(1, CELL_BUDGET // (m * m))
    for start in range(0, len(flat), rows):
        block = flat[start:start + rows]
        other = tables if count == 1 else tables[np.arange(start, start + len(block)) // m]
        path = values.add[block[:, :, None], other]    # [r,z,y] = d(x,z) + d(z,y)
        ok = values.lattice.leq[block[:, :, None], path.transpose(0, 2, 1)]
        if ok.all():
            continue
        bad = ~ok.reshape(len(block), -1)      # [r - start, y·m + z]
        r = start + np.flatnonzero(bad.any(axis=1))
        r = r[out[r // m, 0] < 0]              # tables not settled by an earlier block
        r = r[np.unique(r // m, return_index=True)[1]]     # the first failing row of each
        out[r // m] = np.column_stack((r % m, *np.divmod(bad[r - start].argmax(axis=1), m)))
        if (out[:, 0] >= 0).all():
            break
    return out


def dual_space(space: ContinuitySpace) -> ContinuitySpace:
    """Transpose the distance table (valid as it stands, since + commutes)."""
    return ContinuitySpace(space.V, space.points, space.dist.T)


def symmetric_space(space: ContinuitySpace) -> ContinuitySpace:
    """d^s(x,y) = d(x,y) ∨ d(y,x)."""
    return validate_space(space.V, space.points, space.V.lattice.join[space.dist, space.dist.T])


def product_space(left: ContinuitySpace, right: ContinuitySpace) -> ContinuitySpace:
    """Pointwise-max product distance on the cartesian product."""
    if left.V is not right.V:
        raise ValueError("product factors must share a value universe")
    m, join = left.m * right.m, left.V.lattice.join
    check_cost("triangle check on %d points" % m, triangle_cost(m))
    points = ["%s|%s" % (p, q) for p in left.points for q in right.points]
    i, j = np.divmod(np.arange(m), right.m)    # pair (i, j), row-major
    return validate_space(left.V, points, join[left.dist[np.ix_(i, i)], right.dist[np.ix_(j, j)]])


def is_symmetric(space: ContinuitySpace) -> bool:
    return bool(np.array_equal(space.dist, space.dist.T))


# -- discs, topology, closure ---------------------------------------------------


def disc(space: ContinuitySpace, x, eps):
    """Open disc {y : d(x,y) ≺ ε}; ε must be positive."""
    V = space.V
    if not V.is_positive(eps):
        raise NotPositive("%s is not positive" % V.element_name(eps))
    return space.point_set(np.flatnonzero(V.lattice.cwb[space.dist[space.index(x)], eps]))


def closed_disc(space: ContinuitySpace, x, eps):
    """Closed disc {y : d(x,y) ≤ ε}; any ε is allowed."""
    return space.point_set(np.flatnonzero(space.V.lattice.leq[space.dist[space.index(x)], eps]))


class Topology(Frozen):
    """A finite topology: its points and its opens as int masks, bit x for
    point x, in increasing order. ``opens`` is the same family as a
    frozenset of frozensets of point names, built on first read."""
    __match_args__ = ("points", "masks")
    def __init__(self, points, masks):
        set_field(self, "points", points)
        set_field(self, "masks", masks)

    def _key(self):
        return (Topology, self.points, self.masks)

    @cached_property
    def opens(self):
        return frozenset(frozenset(_members(self.points, u)) for u in self.masks)


def _members(points, mask):
    return sorted(p for x, p in enumerate(points) if mask >> x & 1)


def _set_name(names):
    return "{%s}" % ",".join(sorted(map(str, names)))


def _mask_array(masks, m):
    """Masks over m points as an array: int64 below 63 points, Python ints past."""
    return np.array(masks, dtype=np.int64 if m < 63 else object)


def _by_size_then_names(masks, names):
    """[i, x]: whether point x, named names[x], lies in the i-th of
    ``masks`` (a `_mask_array`) in the canonical open order: by size, then
    by the sorted names of the members; over the names range(m), the order
    of `itertools.combinations`. Of two sets of one size, the one whose
    sorted names come first holds the first name where they differ. So with
    the name of rank i weighing 2^m - 2^(m-1-i), the sum of its members'
    weights sorts a set by size and then by names."""
    m = len(names)
    weight = [0] * m
    for i, x in enumerate(sorted(range(m), key=names.__getitem__)):
        weight[x] = (1 << m) - (1 << (m - 1 - i))
    bits = (masks[:, None] >> np.arange(m)) & 1
    # the sums stay below m·2^m: int64 below 57 points, Python ints past that
    keys = bits @ np.array(weight, dtype=np.int64 if m < 57 else object)
    return bits[keys.argsort()].astype(bool)


def validate_topology(points, opens) -> Topology:
    """Exhaustively check the finite topology axioms: unique point names,
    opens made of points, ∅ and the full set open, and the opens closed
    under ∩ and ∪ (`_check_closed`). A refusal names the first offender in a
    fixed order, its members sorted. The distinct opens are charged an
    iteration per open and per member for their masks, and `closed_cost`."""
    points = tuple(str(p) for p in points)
    index = {p: x for x, p in enumerate(points)}
    if len(index) != len(points):
        raise NotATopology("points must be unique names")
    opens = {frozenset(u) for u in opens}
    check_cost("validating a topology on %d points with %d opens" % (len(points), len(opens)),
               loop_cost(len(opens) + sum(map(len, opens))) + closed_cost(len(opens)))
    outside = [u for u in opens if not u <= index.keys()]
    if outside:
        first = min(outside, key=lambda u: (len(u), sorted(map(str, u))))
        raise NotATopology("open set %s is not a subset of the points" % _set_name(first))
    masks = sorted({sum(1 << index[p] for p in u) for u in opens})
    if not masks or masks[0] != 0 or masks[-1] != (1 << len(points)) - 1:
        raise NotATopology("must contain the empty set and the full set")
    _check_closed(points, _mask_array(masks, len(points)))
    return Topology(points, tuple(masks))


def _check_closed(points, opens):
    """Raise NotATopology at the first pair of opens u < w in mask order
    whose intersection (tested first) or union is not open. ``opens`` is an
    increasing `_mask_array` ending with the full set, so every result has
    a place at or before it. Rows of the pair table go in blocks of at most
    CELL_BUDGET cells. Both operations are symmetric and u ∩ u = u ∪ u = u,
    so the first failing cell in row-major order lies above the diagonal."""
    def missing(found):
        return opens[opens.searchsorted(found)] != found

    k = len(opens)
    rows = max(1, CELL_BUDGET // k)
    for start in range(0, k, rows):
        u = opens[start:start + rows, None]
        meet = missing(u & opens)
        bad = meet | missing(u | opens)
        first = int(bad.argmax())
        if bad.flat[first]:
            i, j = divmod(first, k)
            raise NotATopology("not closed under %s: %s, %s" % (
                "intersection" if meet[i, j] else "union",
                *(_set_name(_members(points, int(opens[x]))) for x in (start + i, j))))


def closed_cost(k):
    """4 cell operations for each of the k² pairs of `_check_closed`. On a
    2-core host the 16,777,216 of the 12-point discrete family took 0.8-1.0
    s, 49-61 ns a pair: 4.4 cells of the 512-point triangle check each."""
    return 4 * k * k


@lru_cache(maxsize=None)
def _subset_tables(m):
    """For the 2^m subset masks s: ~s as an (2^m, 1, 1) stack, and [s, x]:
    whether point x lies outside s. Read-only, one pair per m."""
    subsets = np.arange(1 << m, dtype=np.int64)
    tables = ~subsets[:, None, None], (subsets[:, None] >> np.arange(m)) & 1 == 0
    for table in tables:
        table.setflags(write=False)
    return tables


def _upsets(discs, m):
    """[P, s]: whether every point x in the subset with mask s has one of
    its masks discs[P, x, :] inside s, for each family P of a (P, m, r)
    stack. Families run in blocks of at most CELL_BUDGET cells, 2^m·m·r
    each, and a family past that in blocks of subsets."""
    count, _, radii = discs.shape
    complements, outside = _subset_tables(m)
    cols = min(1 << m, max(1, CELL_BUDGET // max(1, m * radii)))
    rows = max(1, CELL_BUDGET // max(1, cols * m * radii))
    out = np.empty((count, 1 << m), dtype=bool)
    for start in range(0, count, rows):
        for low in range(0, 1 << m, cols):
            # [P, s, x, r]: the r-th mask of x lies inside s
            inside = (discs[start:start + rows, None] & complements[low:low + cols]) == 0
            out[start:start + rows, low:low + cols] = \
                (inside.any(axis=3) | outside[low:low + cols]).all(axis=2)
    return out


def upsets_cost(families, m, radii):
    """The 2^m·m·radii cells of each of `_upsets`' families."""
    return families * m * radii << m


def induced_topology(space: ContinuitySpace) -> Topology:
    """All subsets U such that every x in U has a positive disc inside U.

    When the bottom is positive (every builtin carrier and every free
    locale), the disc B_0(x) suffices: ≺ is monotone in its right argument,
    so B_0(x) lies in every disc. Otherwise the discs of every radius in the
    positives filter are tried. Discs and candidate open sets are bitmasks
    over the point indices; the opens are the up-sets of `_upsets`, checked
    for closure by `_check_closed`. Every disc must come out open; a disc
    that does not raises VerificationFailed."""
    V, m, dist = space.V, space.m, space.dist
    radii = [V.bottom] if V.is_positive(V.bottom) else V.positives()
    check_cost("induced topology on %d points" % m, topology_cost(m, len(radii)))
    within = V.lattice.cwb[dist[:, :, None], np.array(radii, dtype=dist.dtype)]
    # within[x, y, ε]: d(x,y) ≺ ε; [x, ε] is the disc B_ε(x) as a bitmask over y
    discs = within.transpose(0, 2, 1) @ (1 << np.arange(m, dtype=np.int64))
    upset = _upsets(discs[None], m)[0]
    opens = np.flatnonzero(upset)
    _check_closed(space.points, opens)
    if not upset[discs].all():
        raise VerificationFailed("a disc of %r is not open: theorem violated" % space)
    return Topology(tuple(space.points), tuple(opens.tolist()))


def topology_cost(m, radii):
    """`induced_topology` on m points with ``radii`` positive radii: the
    m·m·radii cells of the ≺ table, the up-set test of one family of discs
    and the closure check of at most 2^m opens."""
    return m * m * radii + upsets_cost(1, m, radii) + closed_cost(1 << m)


def dist_to_set(space: ContinuitySpace, x, subset):
    """d(x, A) = ⋀{d(x,a) : a ∈ A}; the empty meet is top. A carrier
    without meets (the principal masks) raises NoMeets."""
    return space.V.meet_of(space.dist[space.index(x), space.index(a)] for a in subset)


def closure(space: ContinuitySpace, subset):
    """{y : d(y, A) = 0}, the τ_d-closure of A."""
    subset = frozenset(subset)
    return frozenset(p for p in space.points if dist_to_set(space, p, subset) == space.V.bottom)


def diameter(space: ContinuitySpace, subset=None):
    idx = [space.index(p) for p in (space.points if subset is None else subset)]
    table = space.dist[np.ix_(idx, idx)].reshape(-1)     # the empty join is the bottom
    return int(fold_table(space.V.lattice.join, table, 0)[0]) if idx else space.V.bottom


# -- theorem checks ---------------------------------------------------------------


class TheoremEntry(Record):
    __match_args__ = ("name", "passed", "witness")
    def __init__(self, name, passed, witness):
        self.name, self.passed, self.witness = name, passed, witness


class TheoremReport(Record):
    __match_args__ = ("entries", "notes")
    def __init__(self, entries, notes):
        self.entries, self.notes = entries, notes

    @property
    def all_pass(self):
        return all(e.passed for e in self.entries)

    def lines(self):
        return (["  %-28s %s" % (e.name, "pass" if e.passed else "FAIL at %s" % e.witness)
                 for e in self.entries] + ["  note: %s" % n for n in self.notes])


def _entry(name, bad, witness):
    """Passed when the bool table ``bad`` has no True cell, else failed at
    ``witness`` of the index of its first one in row-major order."""
    first = np.argwhere(bad)[:1]
    return TheoremEntry(name, not len(first), witness(*first[0]) if len(first) else None)


def check_topology_theorems(space: ContinuitySpace) -> TheoremReport:
    """Instantiate the closure/duality/neighborhood/separation statements over
    all points, subsets and positive radii: each is one bool table over the
    increasing masks of τ, τ* and τ^s, failed at its first True cell, members
    sorted. Closures are meets, so a carrier without meets is refused at once."""
    V = space.V
    V.meet_of(())                      # the empty meet: NoMeets on the principal masks
    m, dist, points, positives = space.m, space.dist, space.points, V.positives()
    check_cost("topology theorems on %d points" % m, theorem_cost(m, len(positives)))
    tau, star, sym = (np.array(t.masks, dtype=np.int64) for t in map(
        induced_topology, (space, dual_space(space), symmetric_space(space))))
    full, bit, subsets = (1 << m) - 1, 1 << np.arange(m, dtype=np.int64), np.arange(1 << m)
    inside, in_star = ((u >> np.arange(m)[:, None]) & 1 == 1 for u in (tau, star))  # x ∈ u
    near = np.full((1 << m, m), V.top, dtype=dist.dtype)   # [A, y]: d(y, A)
    for i in range(m):                 # the subsets whose last point is i
        near[1 << i:2 << i] = V.lattice.meet[near[:1 << i], dist[:, i]]
    below = V.lattice.leq[dist[:, :, None], np.array(positives, dtype=dist.dtype)]
    # [x, ε]: the closed disc {y : d(x,y) ≤ ε} and the dual one {y : d(y,x) ≤ ε}
    discs, duals = below.transpose(0, 2, 1) @ bit, below.transpose(1, 2, 0) @ bit
    # {V ∩ W} is a base of τ^s: every V ∩ W is τ^s-open and every τ^s-open the union of
    # those inside it (not τ^s itself: on finite examples it is not closed under ∪)
    meets = np.unique(tau[:, None] & star)
    joins = np.bitwise_or.reduce(np.where(meets & ~sym[:, None] == 0, meets, 0), axis=1)
    # [u, w]: u ∩ w = ∅, that is u ⊆ full - w; [u, a]: u ⊆ c ⊆ a for some τ*-closed c
    disjoint = tau[:, None] & star == 0
    between = _path_counts(disjoint, star[:, None] | tau == full) > 0
    r, n = len(positives), len(meets)
    entries = [
        _entry("closed-characterization",
               np.isin(full ^ subsets, tau) != ((near == V.bottom) @ bit == subsets),
               lambda a: "A=%s" % _members(points, a)),
        _entry("dual-discs-closed", ~np.isin(full ^ duals, tau),
               lambda x, e: "(x=%s, eps=%s)" % (points[x], V.element_name(positives[e]))),
        _entry("fundamental-neighborhoods", np.hstack((
            ~(inside[:, None] & (tau & ~discs[:, :, None] == 0)).any(axis=2),
            inside & ~(discs[:, :, None] & ~tau == 0).any(axis=1))),
            lambda x, j: ("(x=%s: closed disc is not a neighborhood)" % points[x] if j < r
                          else "(x=%s, U=%s)" % (points[x], _members(points, tau[j - r])))),
        _entry("symmetric-decomposition", np.concatenate((~np.isin(meets, sym), joins != sym)),
               lambda i: "V∩W=%s not symmetric-open" % _members(points, meets[i]) if i < n else
               "U=%s is not a union of intersections" % _members(points, sym[i - n])),
        _entry("pseudo-hausdorff", (dist != V.bottom) & (_path_counts(
            _path_counts(inside, disjoint) > 0, in_star.T) == 0),
            lambda x, y: "(x=%s, y=%s)" % (points[x], points[y])),
        _entry("regularity", inside & (_path_counts(inside, between) == 0),
               lambda x, a: "(x=%s, A=%s)" % (points[x], _members(points, tau[a])))]
    notes = (["positives filter contains 0; radius-0 discs are legal"]
             if V.is_positive(V.bottom) else [])
    return TheoremReport(entries, notes)


def theorem_cost(m, radii):
    """`check_topology_theorems` on m points with r = ``radii`` positive radii:
    the three induced topologies, then the cells of the statements' tables
    and products over at most O = 2^m opens in each of τ, τ* and τ^s; the
    largest, O³, is regularity's u ⊆ c ⊆ a (README lists every term)."""
    opens = 1 << m
    return 3 * topology_cost(m, radii) + opens ** 3 + (4 + 2 * m) * opens ** 2 + (
        (m * m + 4 * m + 3) * opens + m * m + radii * (3 * m * m + m + 2 * m * opens))


def is_T0(space: ContinuitySpace) -> bool:
    zero = space.dist == space.V.bottom
    return not (zero & zero.T & ~np.eye(space.m, dtype=bool)).any()


def is_v_domain(space: ContinuitySpace) -> bool:
    """T0 plus compactness of the symmetric topology; finite carriers are
    always compact, so this reduces to the T0 check."""
    return is_T0(space)


# -- the Flagg dictionary: topological spaces over free locales ----------------


def sorted_opens(topology: Topology):
    """The opens as point sets in the canonical order of the free-locale
    ground names U0, U1, ...: by size, then by sorted point names."""
    points = topology.points
    bits = _by_size_then_names(_mask_array(topology.masks, len(points)), points)
    return [frozenset(compress(points, row)) for row in bits.tolist()]


_freelocale = None      # cqlogic.freelocale, imported on first use: cql need not load it


def space_from_topology(topology: Topology, materialize="auto") -> ContinuitySpace:
    """Represent a topology as a continuity space over the free locale on
    its own open-set family.

    d(a,b) is the family of all finite sets A of opens such that every
    member of A containing a also contains b; that family is the principal
    down-set of the single set {U : a ∈ U implies b ∈ U}, stored as its mask
    over the k opens: the m²·k cells of the mask build are charged with the
    triangle check. Up to MATERIALIZE_MAX opens the default materializes the
    free locale into validated tables and reads each mask as its element
    there; otherwise the space is over the principal down-sets themselves,
    which refuse more than MASK_MAX opens.
    """
    points, k = list(topology.points), len(topology.masks)
    m = len(points)
    check_cost("the space of a topology on %d points with %d opens" % (m, k),
               m * m * k + triangle_cost(m))
    global _freelocale
    if _freelocale is None:
        from . import freelocale as _freelocale
    locale = _freelocale.FreeLocale(["U%d" % i for i in range(k)])
    values = locale.principals()
    # member[x]: the mask of the opens U_i that hold x; bit i of d(a, b) is
    # set when a ∉ U_i or b ∈ U_i, that is, unless U_i holds a and not b
    inside = _by_size_then_names(_mask_array(topology.masks, m), points)
    member = (1 << np.arange(k, dtype=np.uint64)) @ inside
    dist = ((1 << k) - 1) ^ (member[:, None] & ~member)
    if materialize == "auto":
        materialize = k <= _freelocale.MATERIALIZE_MAX
    if materialize:
        values, dist = locale.materialize(), locale.principal_index()[dist]
    return validate_space(values, points, dist)


def _preorder_rows(m, what):
    """[P, a]: the mask of ↑a = {b : a ≤ b} in each preorder on m points, by
    one-point extension: a preorder on k + 1 points is one on k points, a
    down-set D and an up-set U of it with U inside ↑d for each d in D, and
    z above D with ↑z = U ∪ {z}; rows come by parent, D's mask, U's mask.
    Step k is charged `upsets_cost` of its P parents and the P·4^k cells of
    their (D, U) table, a cell weighing 1 (12-13 ns on a 2-core host)."""
    rows = np.zeros((1, 0), dtype=np.int64)                # the preorder on no points
    for k in range(m):
        check_cost(what, upsets_cost(len(rows), k, 1) + (len(rows) << 2 * k))
        up = _upsets(rows[:, :, None], k)                  # [P, s]: s is an up-set
        full, sets = (1 << k) - 1, np.arange(1 << k)
        # [P, D]: the intersection of ↑d over the d in D; [t, s]: s lies inside t
        common = np.bitwise_and.reduce(np.where(_subset_tables(k)[1], full, rows[:, None]),
                                       axis=2, initial=full)
        inside = (sets & ~sets[:, None]) == 0
        # [P, D, U]: U and ~D are up-sets (~D is row full - D of up), U inside common[P, D]
        parent, low, high = np.nonzero(up[:, ::-1, None] & up[:, None] & inside[common])
        rows = np.column_stack((rows[parent] | ((low[:, None] >> np.arange(k)) & 1) << k,
                                high | 1 << k))
    return rows


def enumerate_preorders(points):
    """Every preorder on the given unique point names, as a frozenset of
    related pairs (the diagonal included), in the order of `_preorder_rows`;
    the m² pairs of each are charged by `loop_cost` before the first."""
    points = [str(p) for p in points]
    m = len(points)
    if len(set(points)) != m:
        raise NotAPreorder("points must be unique names")
    what = "enumerating preorders on %d points" % m
    rows = _preorder_rows(m, what)
    check_cost(what, loop_cost(len(rows) * m * m))
    return [frozenset((points[a], points[b]) for a in range(m) for b in range(m)
                      if row[a] >> b & 1) for row in rows.tolist()]


def enumerate_topologies(points):
    """Every topology on the given unique point names: the up-set topology
    of each preorder (Alexandrov; the specialization order takes it back),
    in increasing order of its mask over the 2^m subsets in `combinations`
    order, the up-set test of the P preorders charged by `upsets_cost`."""
    points = tuple(str(p) for p in points)
    m = len(points)
    if len(set(points)) != m:
        raise NotATopology("points must be unique names")
    what = "enumerating topologies on %d points" % m
    rows = _preorder_rows(m, what)
    check_cost(what, upsets_cost(len(rows), m, 1))
    upset = _upsets(rows[:, :, None], m)            # [P, s]: every x in s has ↑x inside s
    # the 2^m masks in `combinations` order
    order = _by_size_then_names(np.arange(1 << m), range(m)) @ (1 << np.arange(m))
    upset = upset[np.lexsort(upset[:, order].T)]
    masks, ends = np.nonzero(upset)[1].tolist(), np.cumsum(upset.sum(axis=1)).tolist()
    return [Topology(points, tuple(masks[start:end])) for start, end in zip([0] + ends, ends)]


# -- the preorder dictionary ----------------------------------------------------


def preorder_dictionary(points, relation) -> ContinuitySpace:
    """Encode a reflexive transitive relation as a space over the shared
    ``bool2``: d(x,y) = 0 iff (x,y) is related, else top. On such a table the
    triangle law is transitivity (0 + 0 = 0, a + top = top), decided by
    `validate_space`."""
    points = [str(p) for p in points]
    rel = {(str(a), str(b)) for a, b in relation}
    known = set(points)
    unknown = sorted(pair for pair in rel if not known.issuperset(pair))
    if unknown:
        raise NotAPreorder("pair (%s, %s) mentions unknown points" % unknown[0])
    for p in points:
        if (p, p) not in rel:
            raise NotAPreorder("not reflexive at %s" % p)
    V = builtin("bool2")
    dist = [[V.bottom if (a, b) in rel else V.top for b in points] for a in points]
    try:
        return validate_space(V, points, dist)
    except TransitivityViolation as exc:
        raise NotAPreorder("not transitive: %s" % exc) from None


def space_to_preorder(space: ContinuitySpace):
    """Read back the relation {(x,y) : d(x,y) = 0} from a two-valued space."""
    if getattr(space.V, "size", None) != 2:
        raise NotAPreorder("preorder dictionary requires a two-element carrier")
    return {(space.points[x], space.points[y])
            for x, y in np.argwhere(space.dist == space.V.bottom)}
