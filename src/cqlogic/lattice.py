"""Finite complete lattices and the co-well-below relation.

Elements are opaque indices 0..n-1 into shared tables; user-facing names
live in a parallel list. All tables are filled and frozen at validation
time, so every operation afterwards is a pure table lookup.
"""

from __future__ import annotations

import numpy as np

from .errors import NoBoundedness, NotALattice, NotAPartialOrder


class FiniteLattice:
    """A validated finite complete lattice.

    Fields: ``elements`` (names), ``leq`` (n x n bool), ``bottom``/``top``
    (indices), ``meet``/``join`` (n x n element tables) and ``cwb`` caching
    the co-well-below relation x ≺ y; ``_birkhoff`` keeps its `Birkhoff`
    encoding once `birkhoff` has made it.
    """

    _birkhoff = None

    def __init__(self, elements, leq, bottom, top, meet, join, cwb):
        self.elements = list(elements)
        self.n = len(self.elements)
        self.leq = leq
        self.bottom = int(bottom)
        self.top = int(top)
        self.meet = meet
        self.join = join
        self.cwb = cwb
        self._index = {name: i for i, name in enumerate(self.elements)}
        for table in (self.leq, self.meet, self.join, self.cwb):
            table.setflags(write=False)

    # -- element helpers ---------------------------------------------------

    def index(self, name):
        return self._index[name]

    def name(self, e):
        return self.elements[e]

    def carrier(self):
        return range(self.n)

    def meet_of(self, elems):
        acc = self.top
        for e in elems:
            acc = int(self.meet[acc, e])
        return acc

    def join_of(self, elems):
        acc = self.bottom
        for e in elems:
            acc = int(self.join[acc, e])
        return acc

    def __repr__(self):
        return "FiniteLattice(n=%d)" % self.n


def validate_lattice(order, names=None) -> FiniteLattice:
    """Check a binary relation table and derive all lattice tables.

    Raises NotAPartialOrder / NotALattice / NoBoundedness with a witness.
    """
    leq = np.asarray(order, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1] or leq.shape[0] == 0:
        raise NotAPartialOrder("order must be a nonempty square table")
    n = leq.shape[0]
    from .spaces import check_cost     # spaces imports this module
    # the n³ path counts of the transitivity check and of the ≺ table, and
    # the meet and join tables, at most n²/2 intersections of n-bit rows each
    check_cost("validating a lattice on %d elements" % n, 3 * n ** 3)
    if names is None:
        names = ["e%d" % i for i in range(n)]
    names = [str(x) for x in names]
    if len(names) != n or len(set(names)) != n:
        raise NotAPartialOrder("element names must be unique and match the table size")

    if not leq.diagonal().all():
        x = int(np.flatnonzero(~leq.diagonal())[0])
        raise NotAPartialOrder("not reflexive at %s" % names[x])
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        x, y = map(int, np.argwhere(sym)[0])
        raise NotAPartialOrder("not antisymmetric at (%s, %s)" % (names[x], names[y]))
    closure = _path_counts(leq, leq) > 0
    broken = closure & ~leq
    if broken.any():
        x, z = map(int, np.argwhere(broken)[0])
        y = int(np.flatnonzero(leq[x] & leq[:, z])[0])
        raise NotAPartialOrder(
            "not transitive: %s <= %s <= %s but not %s <= %s"
            % (names[x], names[y], names[z], names[x], names[z]))

    below_all = leq.all(axis=1)   # candidates for bottom
    above_all = leq.all(axis=0)
    if not below_all.any() or not above_all.any():
        raise NoBoundedness("no global bottom or top element")
    bottom = int(np.flatnonzero(below_all)[0])
    top = int(np.flatnonzero(above_all)[0])

    meet = _bound_table(leq, names, kind="meet")
    join = _bound_table(leq.T, names, kind="join")
    cwb = _cwb_table(leq)
    return FiniteLattice(names, leq, bottom, top, meet, join, cwb)


def _path_counts(left, right):
    """left @ right for bool tables, as exact counts.

    float32 products run on BLAS and count exactly up to 2^24 paths; a
    uint8 product would wrap at 256.
    """
    return left.astype(np.float32) @ right.astype(np.float32)


def _bit_keys(packed):
    """Rows of packed bits (the last axis) as one sortable bytes key each."""
    packed = np.ascontiguousarray(packed)
    return packed.view(np.dtype((np.void, packed.shape[-1])))[..., 0]


def _bound_table(leq, names, kind):
    """Greatest lower bounds for every pair (meets for leq, joins for leq.T).

    A comparable pair's meet is its smaller element. For the others, the
    common lower bounds of (x, y) are ↓x ∩ ↓y, and z is their greatest
    element exactly when ↓z = ↓x ∩ ↓y. So the down-sets are packed into bit
    rows and each intersection is looked up among the n down-sets, which
    are distinct by antisymmetry. Meets are symmetric, so only x < y is
    searched, and the first failing pair there is also the first in (x, y)
    order.
    """
    n = leq.shape[0]
    idx = np.arange(n)
    table = np.where(leq, idx[:, None], idx[None, :])
    bits = np.packbits(leq.T, axis=1)                     # bits[z]: ↓z
    down = _bit_keys(bits)
    order = np.argsort(down)
    x, y = np.nonzero(np.triu(~(leq | leq.T)))
    common = _bit_keys(bits[x] & bits[y])
    best = order[np.minimum(np.searchsorted(down[order], common), n - 1)]
    found = down[best] == common
    if not found.all():
        i = int(np.flatnonzero(~found)[0])
        raise NotALattice("no %s for pair (%s, %s)" % (kind, names[x[i]], names[y[i]]))
    table[x, y] = table[y, x] = best
    return table.astype(np.int32)


def _set_meets(leq, members):
    """The greatest lower bound of each row's set, in a validated lattice.

    ``members[k, b]`` says whether b is in the k-th set. z is a lower bound
    of a set when no member lies outside ↑z, and the greatest lower bound
    is the lower bound with the largest down-set; the empty set gives top.
    Joins are the meets of the dual order ``leq.T``.
    """
    lower = _path_counts(members, ~leq.T) == 0            # [k, z]
    return np.where(lower, leq.sum(axis=0), -1).argmax(axis=1)


def _cwb_table(leq):
    """x ≺ y by the closed form ⋀{a : a ≰ y} ≰ x, for every y at once."""
    return ~leq[_set_meets(leq, ~leq.T)].T


def join_irreducibles(lat: FiniteLattice):
    """The elements that are not the join of the elements strictly below
    them (bottom, the empty join, is not one); every element is the join
    of those below it."""
    strictly_below = lat.leq.T & ~np.eye(lat.n, dtype=bool)
    return np.flatnonzero(_set_meets(lat.leq.T, strictly_below) != np.arange(lat.n))


def meet_irreducibles(lat: FiniteLattice):
    """The elements that are not the meet of the elements strictly above
    them (top is not one); every element is the meet of those above it."""
    strictly_above = lat.leq & ~np.eye(lat.n, dtype=bool)
    return np.flatnonzero(_set_meets(lat.leq, strictly_above) != np.arange(lat.n))


# Up to 2^16 masks, a decode is one lookup in a table of 2^J int32 entries
# (256 KiB at J = 16, doubling with each bit past it). On a 2-core host it
# beat np.searchsorted over the sorted masks at every J from 4 to 16: 0.55
# against 1.5 us on 27 masks, 4.3-4.9 against 22-86 us on 4,096.
DECODE_TABLE_BITS = 16


class Birkhoff:
    """Birkhoff's representation of a finite distributive lattice (*Rings of
    sets*, 1937): each element as the mask of the join-irreducibles below
    it, bit j for the j-th of `join_irreducibles`. Joins are ``|``, meets
    ``&`` and the bottom is 0.

    ``enc[e]`` is the mask of element e, in the narrowest unsigned dtype of
    J bits for J join-irreducibles (uint8 up to 8 bits, ..., uint64 up to
    64) and as Python ints in an object array past 64, so every size is
    exact. ``decode`` maps an array of masks back to element indices: one
    lookup in a table of the 2^J masks up to DECODE_TABLE_BITS,
    `np.searchsorted` over the sorted masks past that."""

    def __init__(self, lat: FiniteLattice):
        rows = lat.leq[join_irreducibles(lat)].T              # [e, j]: j-th irreducible ≤ e
        bits = rows.shape[1]
        if bits > 64:
            enc = np.array([sum(1 << j for j in np.flatnonzero(row).tolist()) for row in rows],
                           dtype=object)
        else:
            dtype = np.dtype("u%d" % (1 << max(0, (bits - 1).bit_length() - 3)))
            enc = (rows * (np.ones(bits, dtype) << np.arange(bits, dtype=dtype))).sum(
                axis=1, dtype=dtype)
        # the masks are always an injective meet map; joins are unions exactly
        # when every join-irreducible is join-prime, that is, when L is distributive
        bad = enc[lat.join] != (enc[:, None] | enc)
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise NotALattice("not distributive: a join-irreducible is below %s ∨ %s and below "
                              "neither" % (lat.name(a), lat.name(b)))
        enc.setflags(write=False)
        self.bits, self.enc = bits, enc
        # decode(masks): the element index (int32) of each mask of an array
        if bits <= DECODE_TABLE_BITS:
            table = np.full(1 << bits, -1, dtype=np.int32)
            table[enc] = np.arange(lat.n)
            self.decode = table.take
        else:
            order = np.argsort(enc).astype(np.int32)
            ordered = enc[order]
            self.decode = lambda masks: order.take(np.searchsorted(ordered, masks))
        self._join, self._meet = lat.join, lat.meet

    def lift(self, table):
        """The operation on mask arrays of an element table of shape (n,)*r:
        ``|`` for the join table, ``&`` for the meet table, and otherwise a
        decode of each argument, a gather and an encode."""
        if np.array_equal(table, self._join):
            return np.bitwise_or
        if np.array_equal(table, self._meet):
            return np.bitwise_and
        masked, decode = self.enc[table], self.decode
        return lambda *masks: masked[tuple(map(decode, masks))]   # noqa: E731


def birkhoff(lat: FiniteLattice) -> Birkhoff:
    """The `Birkhoff` encoding of a distributive lattice, made once per
    lattice; raises NotALattice when the lattice is not distributive."""
    code = lat._birkhoff
    if code is None:
        code = lat._birkhoff = Birkhoff(lat)
    return code


# -- operations ---------------------------------------------------------------


def fold_table(op, table, axis):
    """Fold a lattice join or meet table along one axis, keeping the axis
    with size 1. Halves overlap by one cell on odd sizes, which
    idempotence allows."""
    lead = (slice(None),) * (axis % table.ndim)
    while table.shape[axis] > 1:
        half = (table.shape[axis] + 1) // 2
        table = op[table[lead + (slice(None, half),)], table[lead + (slice(-half, None),)]]
    return table


def co_well_below_oracle(lat: FiniteLattice, x, y) -> bool:
    """The quantified definition over all 2^n subsets, kept as a permanent
    cross-check of the closed form.  Exponential: charged the 2^n subset
    meets and, per subset, one ≤ test and its n candidate members."""
    from .spaces import check_cost, loop_cost     # spaces imports this module
    n = lat.n
    check_cost("the ≺ oracle on %d elements" % n, loop_cost((n + 2) << n))
    meets = _subset_meets(lat)
    below_y = lat.leq[:, y]
    for mask in range(1 << n):
        if lat.leq[meets[mask], x]:
            if not any(below_y[a] for a in range(n) if mask >> a & 1):
                return False
    return True


def _subset_meets(lat):
    """Meet of every bitmask subset, via the fold-from-top convention."""
    meets = [lat.top] * (1 << lat.n)
    for mask in range(1, 1 << lat.n):
        low = (mask & -mask).bit_length() - 1
        meets[mask] = lat.meet[meets[mask & (mask - 1)], low]
    return meets


def is_completely_distributive(lat: FiniteLattice) -> bool:
    """a = ⋀{b : a ≺ b} for every a."""
    return bool((_set_meets(lat.leq, lat.cwb) == np.arange(lat.n)).all())


def positives(lat: FiniteLattice):
    """The set {ε : 0 ≺ ε} as a sorted list of element indices."""
    return [int(e) for e in np.flatnonzero(lat.cwb[lat.bottom])]


def is_value_lattice(lat: FiniteLattice) -> bool:
    """Completely distributive, 0 ≺ 1, and positives closed under meet."""
    if not is_completely_distributive(lat):
        return False
    if not lat.cwb[lat.bottom, lat.top]:
        return False
    pos = lat.cwb[lat.bottom]
    return bool(pos[lat.meet[np.ix_(pos, pos)]].all())
