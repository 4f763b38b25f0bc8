"""Value co-quantale arithmetic over validated finite lattices.

The monoid addition, the cached truncated subtraction a ∸ b, the symmetric
value distance, structural property flags and the builtin example carriers
all live here. Everything is exact integer table arithmetic; no floats.
"""

from __future__ import annotations

import os
import random
from functools import cached_property, lru_cache

import numpy as np

from . import lattice as lat
from .errors import (BadIdentity, NotAssociative, NotCommutative,
                     NotMeetDistributive, NotPositive, NotValueCoquantale,
                     NoWitness, SizeLimit, UnknownBuiltin, UnknownElement,
                     VerificationFailed)
from .records import Record

DEFAULT_SEED = 20260810


class CoQuantale:
    """A validated co-quantale: lattice + commutative monoid tables.

    ``add``, ``tsub`` and ``dsym`` are n x n element tables; ``tsub[a, b]``
    caches a ∸ b = ⋀{r : r + b ≥ a} and ``dsym[a, b]`` the symmetric value
    distance (a ∸ b) ∨ (b ∸ a). Instances are immutable after validation.
    """

    dtype = np.int32      # distance tables hold element indices

    def __init__(self, lattice, add, tsub, dsym, value_flag,
                 co_divisible_flag, dualizers, safa_flag, name=""):
        self.lattice = lattice
        self.add = add
        self.tsub = tsub
        self.dsym = dsym
        self.value_flag = bool(value_flag)
        self.co_divisible_flag = bool(co_divisible_flag)
        self.dualizers = list(dualizers)
        self.safa_flag = bool(safa_flag)
        self.name = name or "coquantale"
        self._positives = tuple(lat.positives(lattice))   # {ε : 0 ≺ ε}, fixed per carrier
        self.position = np.cumsum(lattice.cwb[lattice.bottom]) - 1   # [ε]: index in positives
        self._dividers = {}                               # n -> the table of `_dividers`
        for table in (self.add, self.tsub, self.dsym, self.position):
            table.setflags(write=False)

    # -- value universe surface (shared with the Flagg principal masks) ----

    @property
    def size(self):
        return self.lattice.n

    @property
    def bottom(self):
        return self.lattice.bottom

    @property
    def top(self):
        return self.lattice.top

    def carrier(self):
        return self.lattice.carrier()

    def meet_of(self, elems):
        return self.lattice.meet_of(elems)

    def join_of(self, elems):
        return self.lattice.join_of(elems)

    def is_positive(self, e):
        return bool(self.lattice.cwb[self.lattice.bottom, e])

    def positives(self):
        return self._positives

    @cached_property
    def within(self):
        """[a, b, i]: d^s(a, b) ≤ ε_i for the i-th element ε_i of
        `positives`; the radius test of every D-limit, made once per
        carrier."""
        table = self.lattice.leq[self.dsym][:, :, list(self._positives)]
        table.setflags(write=False)
        return table

    def element_name(self, e):
        return self.lattice.name(e)

    def parse_element(self, text):
        try:
            return self.lattice.index(text)
        except KeyError:
            raise UnknownElement("%r is not an element of %s" % (text, self.name))

    def __repr__(self):
        return "CoQuantale(%s, n=%d)" % (self.name, self.size)


def validate_coquantale(lattice, add, name="") -> CoQuantale:
    """Verify the co-quantale axioms and fill all tables.

    Meet distribution is decided with ∸ (see _tsub_table) and associativity
    on the meet-irreducibles (see _associative); when either fails,
    _check_axioms runs the exhaustive checks to report the first witness.
    """
    from .spaces import check_cost, loop_cost     # spaces imports this module
    n = lattice.n
    # an upper bound, charged first: ∸ through the join-irreducibles (7 passes
    # over n³ cells and a loop over them), associativity on the
    # meet-irreducibles (4), complete distributivity (1) and the exhaustive
    # checks that run when either fails (6)
    check_cost("validating a co-quantale on %d elements" % n, 18 * n ** 3 + loop_cost(n))
    add = np.asarray(add, dtype=np.int32)
    if add.shape != (n, n) or add.min() < 0 or add.max() >= n:
        raise BadIdentity("add table must be total on the carrier")
    names = lattice.elements

    bad = add != add.T
    if bad.any():
        a, b = map(int, np.argwhere(bad)[0])
        raise NotCommutative("%s + %s != %s + %s" % (names[a], names[b], names[b], names[a]))
    ident = add[:, lattice.bottom] != np.arange(n)
    if ident.any():
        a = int(np.flatnonzero(ident)[0])
        raise BadIdentity("%s + 0 != %s" % (names[a], names[a]))
    tsub = _tsub_table(lattice, add)
    if tsub is None or not _associative(lattice, add):
        _check_axioms(lattice, add)
        raise AssertionError("reduced co-quantale checks disagree with the exhaustive ones")

    dsym = lattice.join[tsub, tsub.T].astype(np.int32)
    # (V, d^s) is T0 by antisymmetry; D-ultralimit uniqueness relies on it
    if not ((dsym == lattice.bottom) == np.eye(n, dtype=bool)).all():
        raise VerificationFailed("d^s is not T0: co-quantale axioms broken")
    value_flag = lat.is_value_lattice(lattice)
    cq = CoQuantale(lattice, add, tsub, dsym, value_flag, False, [], False, name)
    cq.co_divisible_flag = is_co_divisible(cq)
    cq.dualizers = dualizing_elements(cq)
    cq.safa_flag = has_safa(cq)
    return cq


def _check_axioms(lattice, add):
    """The exhaustive O(n³) checks of associativity and meet distribution,
    raising with the first failing triple in (a, b, c) order."""
    n = lattice.n
    names, meet = lattice.elements, lattice.meet
    # (a+b)+c against a+(b+c); the first failure is found in place
    bad = add[add, :] != add[np.arange(n)[:, None, None], add[None]]
    if bad.any():
        a, b, c = map(int, np.unravel_index(bad.argmax(), bad.shape))
        raise NotAssociative("(%s+%s)+%s != %s+(%s+%s)"
                             % (names[a], names[b], names[c], names[a], names[b], names[c]))
    # a + (b ∧ c) against (a+b) ∧ (a+c)
    bad = add[np.arange(n)[:, None, None], meet[None]] != meet[add[:, :, None], add[:, None, :]]
    if bad.any():
        a, b, c = map(int, np.unravel_index(bad.argmax(), bad.shape))
        raise NotMeetDistributive("a+(b∧c) != (a+b)∧(a+c) at (%s, %s, %s)"
                                  % (names[a], names[b], names[c]))
    bad = add[:, lattice.top] != lattice.top
    if bad.any():
        a = int(np.flatnonzero(bad)[0])
        raise NotMeetDistributive("%s + 1 != 1 (empty-meet distribution)" % names[a])


def _tsub_table(lattice, add):
    """tsub[a, b] = ⋀{r : r + b ≥ a}, or None when + does not distribute
    over all meets.

    r ↦ b + r preserves all meets (binary ones, and the empty one: b + 1 = 1)
    exactly when every set {r : a ≤ b + r} has a least element, which is
    then a ∸ b. Each a is the join of the join-irreducibles j below it, and
    its set is the intersection of theirs, so the least elements are found
    for join-irreducible j only and joined up: O(n² · #irreducibles).
    """
    n = lattice.n
    leq = lattice.leq
    irreducibles = lat.join_irreducibles(lattice)
    member = leq[irreducibles][:, add]                    # [j, b, r]: j <= b + r
    up = leq.sum(axis=1).astype(np.min_scalar_type(n))            # |↑r| >= 1
    least = (member * up).argmax(axis=2)                            # the largest ↑r
    if not (member == leq[least]).all():
        return None
    tsub = np.full((n, n), lattice.bottom, dtype=np.intp)           # [a, b]
    joins = lattice.join.ravel()
    for j, row in zip(irreducibles, least):
        above = leq[j]                                              # the a with j <= a
        tsub[above] = joins.take(tsub[above] * n + row)
    tsub = tsub.astype(np.int32)
    attained = leq[np.arange(n)[:, None], add[tsub, np.arange(n)[None, :]]]
    if not attained.all():
        raise VerificationFailed("tsub infimum not attained: co-quantale axioms broken")
    return tsub


def _associative(lattice, add):
    """(a+b)+c = a+(b+c) for all triples, once + distributes over all
    meets: both sides then preserve meets in c, and every c is the meet of
    the meet-irreducibles above it, so only those c are compared."""
    cols = add[:, lat.meet_irreducibles(lattice)]
    # [a, b, i]: (a+b)+m_i and a+(b+m_i) = (b+m_i)+a
    return bool((cols[add] == add[cols].transpose(2, 0, 1)).all())


# -- residuation law suite ------------------------------------------------


class LawResult(Record):
    __match_args__ = ("law", "passed", "witness", "mode")
    def __init__(self, law, passed, witness, mode):
        self.law, self.passed, self.witness, self.mode = law, passed, witness, mode


class ResiduationReport(Record):
    __match_args__ = ("coquantale", "seed", "results")
    def __init__(self, coquantale, seed, results):
        self.coquantale, self.seed, self.results = coquantale, seed, results

    @property
    def all_pass(self):
        return all(r.passed for r in self.results)


def check_residuation_laws(vq: CoQuantale, exhaustive_subset_limit=6,
                           sample_count=200, seed=None) -> ResiduationReport:
    """Check Prop. adjunction (1)-(6), both family laws and the monotonicity
    exchange law, reporting the first counterexample per law if any.

    Family laws run over all subsets when the carrier has at most
    ``exhaustive_subset_limit`` elements, otherwise over ``sample_count``
    seeded random subsets (seed recorded in the report).
    """
    from .spaces import check_cost, loop_cost     # spaces imports this module
    n = vq.size
    # the n³ tables of adjunction (1), (5) and (6) (10 passes) and of the
    # exchange law (4), and per subset 4n loop iterations and 2n² cells
    masks = 1 << n if n <= exhaustive_subset_limit else sample_count
    check_cost("the residuation laws on %d elements" % n,
               14 * n ** 3 + loop_cost(4 * n * masks) + 2 * n * n * masks)
    if seed is None:
        seed = int(os.environ.get("CQL_SEED", DEFAULT_SEED))
    leq = vq.lattice.leq
    add, tsub = vq.add, vq.tsub
    names = vq.lattice.elements
    idx = np.arange(n)
    results = []

    def record(law, ok_array, mode="exhaustive"):
        if bool(np.asarray(ok_array).all()):
            results.append(LawResult(law, True, None, mode))
        else:
            bad = ~np.asarray(ok_array)
            where = np.unravel_index(bad.argmax(), bad.shape)
            witness = "(" + ", ".join(names[int(i)] for i in where) + ")"
            results.append(LawResult(law, False, witness, mode))

    record("adjunction-1", leq[tsub][:, :, :] == leq[:, add])
    record("adjunction-2", leq[idx[:, None], add[tsub, idx[None, :]]])
    record("adjunction-3", leq[tsub[add, idx[None, :]], idx[:, None]])
    record("adjunction-4", (tsub == vq.bottom) == leq)
    a5a = tsub[:, add]
    a5b = tsub[tsub, :]
    record("adjunction-5", (a5a == a5b) & (a5a == a5b.transpose(0, 2, 1)))
    rhs6 = add[tsub[:, :, None], tsub[None, :, :]]
    record("adjunction-6", leq[np.broadcast_to(tsub[:, None, :], rhs6.shape), rhs6])
    # [a, b, c]: a ≤ b implies c ∸ b ≤ c ∸ a and a ∸ c ≤ b ∸ c
    record("monotone-exchange", ~leq[:, :, None] | (leq[tsub.T[None], tsub.T[:, None]]
                                                    & leq[tsub[:, None], tsub[None]]))

    masks, mode = _subset_masks(n, exhaustive_subset_limit, sample_count, seed)
    join_tab, rows = vq.lattice.join, np.stack((tsub, tsub.T), axis=1)   # rows[b]: b ∸ a, a ∸ b
    witnesses = {"join-family": None, "meet-family": None}
    for mask in masks:
        members = [i for i in range(n) if mask >> i & 1]
        rhs = np.full((2, n), vq.bottom, dtype=np.int32)
        for b in members:
            rhs = join_tab[rhs, rows[b]]
        # (⋁ b_i) ∸ a and a ∸ (⋀ b_i) per a
        lhs = tsub[vq.join_of(members)], tsub[:, vq.meet_of(members)]
        for law, left, right in zip(witnesses, lhs, rhs):
            if witnesses[law] is None and (left != right).any():
                a = int(np.flatnonzero(left != right)[0])
                witnesses[law] = "(a=%s, S={%s})" % (names[a], ",".join(names[i] for i in members))
    results += [LawResult(law, w is None, w, mode) for law, w in witnesses.items()]
    return ResiduationReport(vq.name, seed, results)


def _subset_masks(n, limit, sample_count, seed):
    if n <= limit:
        return range(1 << n), "exhaustive"
    rng = random.Random(seed)
    masks = [rng.getrandbits(n) for _ in range(sample_count)]
    return masks, "sampled(seed=%d, count=%d)" % (seed, sample_count)


# -- structural property detectors ---------------------------------------------


def is_co_divisible(vq: CoQuantale) -> bool:
    """a ≤ b implies b = a + (b ∸ a), checked for all pairs."""
    n = vq.size
    idx = np.arange(n)
    rebuilt = vq.add[idx[:, None], vq.tsub.T]      # a + (b ∸ a) at [a, b]
    return bool(np.where(vq.lattice.leq, rebuilt == idx[None, :], True).all())


def dualizing_elements(vq: CoQuantale):
    """All d with a = d ∸ (d ∸ a) for every a."""
    n = vq.size
    idx = np.arange(n)
    twice = vq.tsub[idx[:, None], vq.tsub]          # d ∸ (d ∸ a) at [d, a]
    return [int(d) for d in np.flatnonzero((twice == idx[None, :]).all(axis=1))]


def has_safa(vq: CoQuantale) -> bool:
    """Decide the sequential-approximation-from-above property.

    On a finite carrier a decreasing positive sequence with meet 0 is
    eventually constant, so one exists iff 0 ≺ 0; the witness is then the
    constant sequence at 0.
    """
    return bool(vq.lattice.cwb[vq.bottom, vq.bottom])


# -- epsilon arguments -----------------------------------------------------------


def epsilon_halver(vq: CoQuantale, eps) -> int:
    """A maximal δ ∈ V⁺ with δ + δ ≺ ε (ties broken by lowest index)."""
    return epsilon_n_divider(vq, eps, 2)


def epsilon_n_divider(vq: CoQuantale, eps, n) -> int:
    """A maximal θ ∈ V⁺ with nθ ≺ ε (ties broken by lowest index)."""
    if not vq.value_flag:
        raise NotValueCoquantale("%s is not a value co-quantale" % vq.name)
    if not vq.is_positive(eps):
        raise NotPositive("%s is not in the positives filter" % vq.element_name(eps))
    if n < 1:
        raise ValueError("n must be positive")
    theta = int(_dividers(vq, n)[eps])
    if theta < 0:
        raise NoWitness("no θ with %dθ ≺ %s; value axioms violated"
                        % (n, vq.element_name(eps)))
    return theta


def _dividers(vq, n):
    """[ε]: the lowest-index maximal θ ∈ V⁺ with nθ ≺ ε, or -1 when there is
    none. One read-only table per carrier and n, built by lookups: a good θ
    is maximal when no other good θ lies above it."""
    table = vq._dividers.get(n)
    if table is None:
        pos = np.array(vq.positives(), dtype=np.intp)
        total = pos
        for _ in range(n - 1):
            total = vq.add[total, pos]                        # nθ per positive θ
        good = vq.lattice.cwb[total]                          # [θ, ε]: nθ ≺ ε
        above = vq.lattice.leq[np.ix_(pos, pos)] & ~np.eye(len(pos), dtype=bool)
        maximal = good & (lat._path_counts(above, good) == 0)
        table = np.where(maximal.any(axis=0), pos[maximal.argmax(axis=0)], -1)
        table.setflags(write=False)
        vq._dividers[n] = table
    return table


# -- builtin carriers ---------------------------------------------------------------

CHAIN_MAX = 64
FREELOCALE_MAX = 3


@lru_cache(maxsize=None)
def builtin(spec: str) -> CoQuantale:
    """The named example co-quantale, one shared carrier per (kind, size).

    Accepted: ``bool2``, ``chain:n`` (1 <= n <= 64), ``lukasiewicz:n``
    (1 <= n <= 64) and ``freelocale:k`` (0 <= k <= 3). Each carrier goes
    through full validation once per process; every later call returns the
    same object, also for another spelling of its size (``chain:04``), so
    structures built over one carrier share their V. The carrier is named
    by its canonical spec (``chain:4``). The default connective kit of
    every chain fits the work budget (n <= 64; chain:64's takes about 2 s).
    """
    kind, _, arg = spec.partition(":")
    if kind == "bool2" and not arg:
        return _chain_like(1, ["0", "1"], "bool2")
    if kind not in ("chain", "lukasiewicz", "freelocale"):
        raise UnknownBuiltin("unknown builtin %r" % spec)
    try:
        n = int(arg)
    except ValueError:
        raise UnknownBuiltin("bad size in %r" % spec)
    if arg != str(n):
        return builtin("%s:%d" % (kind, n))
    if kind == "freelocale":
        if n < 0:
            raise UnknownBuiltin("freelocale size must be >= 0")
        if n > FREELOCALE_MAX:
            raise SizeLimit("freelocale ground set capped at %d" % FREELOCALE_MAX)
        from .freelocale import FreeLocale
        shared = FreeLocale("abc"[:n]).materialize()
        return validate_coquantale(shared.lattice, shared.add, name=spec)
    if n < 1:
        raise UnknownBuiltin("chain size must be positive")
    if n > CHAIN_MAX:
        raise SizeLimit("chain size capped at %d" % CHAIN_MAX)
    if kind == "chain":
        return _chain_like(n, [str(i) for i in range(n + 1)], spec)
    # Lukasiewicz levels, stored with the order already reversed: index i
    # is the grid point (n-i)/n, so the monoid identity (the real 1) sits
    # at the lattice bottom and add(i, j) = min(n, i+j) on indices.
    return _chain_like(n, ["%d/%d" % (n - i, n) for i in range(n + 1)], spec)


def _chain_like(n, names, name):
    size = n + 1
    order = np.fromfunction(lambda i, j: i <= j, (size, size), dtype=int)
    lattice = lat.validate_lattice(order, names)
    add = np.minimum(np.add.outer(np.arange(size), np.arange(size)), n)
    return validate_coquantale(lattice, add, name=name)
