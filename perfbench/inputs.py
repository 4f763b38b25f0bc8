"""Seeded inputs for the three workloads.

Seeds are reduced modulo ``VARIANTS`` so that every input set the
benchmark can generate has expected outputs pinned in ``expected.json``.
The generators use only ``random.Random`` and the standard library, so the
same seed gives byte-identical inputs on any Python 3 and without cqlogic.
"""

from __future__ import annotations

import random
from itertools import product

VARIANTS = 16
CHAIN = 4                      # every structure lives over chain:4
LOS_SIZES = (2, 3, 2)          # the Łoś corpus; products have at most 27 points
FLAGG_POINTS = (("a",), ("a", "b"), ("a", "b", "c"))


def variant(seed: int) -> int:
    return seed % VARIANTS


# -- structures over chain:4 ---------------------------------------------------


def _repaired_dist(m, rng):
    """A random chain:4 distance table lowered until the triangle law holds.

    On chain:n the addition is min(n, a+b) and the meet is min, so the
    repair takes d(x,y) := min(d(x,y), d(x,z) + d(z,y)) until stable.
    """
    dist = [[0 if i == j else rng.randrange(1, CHAIN + 1) for j in range(m)]
            for i in range(m)]
    changed = True
    while changed:
        changed = False
        for x, y, z in product(range(m), repeat=3):
            bound = min(CHAIN, dist[x][z] + dist[z][y])
            if dist[x][y] > bound:
                dist[x][y] = bound
                changed = True
    return dist


def _fits_modulus(dist, pvals):
    """The identity modulus of a unary predicate: |P(x) - P(y)|, the
    symmetric distance of the values, is at most d(x,y)."""
    m = len(pvals)
    return all(abs(pvals[x] - pvals[y]) <= dist[x][y]
               for x in range(m) for y in range(m))


def random_body(m, rng):
    """(dist, pvals) for an m-point structure with one unary predicate P."""
    while True:
        dist = _repaired_dist(m, rng)
        pvals = [rng.randrange(CHAIN + 1) for _ in range(m)]
        if _fits_modulus(dist, pvals):
            return dist, pvals


# -- flagg ------------------------------------------------------------------------


def flagg_order(seed: int, count: int):
    """A seeded permutation of the topology indices."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


# -- los ----------------------------------------------------------------------------


def los_corpus(seed: int):
    """Three (name, points, dist, pvals) bodies of sizes LOS_SIZES."""
    rng = random.Random("los-%d" % variant(seed))
    out = []
    for k, m in enumerate(LOS_SIZES):
        name = "ABC"[k]
        dist, pvals = random_body(m, rng)
        out.append((name, ["%s%d" % (name, i) for i in range(m)], dist, pvals))
    return out


def los_products(count=len(LOS_SIZES)):
    """Every (factor indices, principal generator) for widths 1 to 3."""
    return [(combo, gen) for width in (1, 2, 3)
            for combo in product(range(count), repeat=width)
            for gen in range(width)]


# -- cli --------------------------------------------------------------------------------


def _structure_block(name, points, dist, pvals):
    lines = ["@structure %s over C4" % name, "@universe " + " ".join(points)]
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            lines.append("@dist %s %s %d" % (p, q, dist[i][j]))
    lines.append("@pred P 1")
    lines.extend("@predval P %s %d" % (p, v) for p, v in zip(points, pvals))
    return "\n".join(lines)


def _space_block(name, points, dist):
    lines = ["@space %s over C4" % name, "@points " + " ".join(points)]
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            lines.append("@dist %s %s %d" % (p, q, dist[i][j]))
    return "\n".join(lines)


def _copy_extension(dist, pvals, src):
    """Add a point that duplicates point ``src``: the old structure is an
    elementary substructure of the new one, so tv and elem pass."""
    m = len(pvals)
    new = [row[:] + [row[src]] for row in dist]
    new.append(dist[src][:] + [0])
    new[src][m] = 0
    return new, pvals + [pvals[src]]


def _far_extension(dist, pvals):
    """Add a point at distance 4 from every point with P = 0. The caller
    keeps every old P value positive, so (inf x0 (P x0)) changes and tv
    and elem fail at depth 1."""
    m = len(pvals)
    new = [row[:] + [CHAIN] for row in dist]
    new.append([CHAIN] * m + [0])
    return new, pvals + [0]


CLI_FORMULAS = (
    "(P x0)", "(inf x0 (P x0))", "(sup x0 (P x0))", "(d x0 x1)",
    "(sup x1 (d x0 x1))", "(conn vee (P x0) (P x1))",
    "(inf x0 (conn wedge (P x0) (val 2)))", "(conn oplus (P x0) (val 1))",
    "(inf x0 (sup x1 (conn vee (d x0 x1) (P x1))))", "(conn dual:4 (P x0))",
)


def cli_defs(seed: int):
    """The defs file text and the pair and factor names the script uses."""
    rng = random.Random("cli-%d" % variant(seed))
    blocks = [
        "# cqlogic benchmark definitions, input variant %d" % variant(seed),
        "@lattice L4\n@elements 0 a b 1\n@leq 0 a\n@leq 0 b\n@leq a 1\n@leq b 1",
        "@coquantale D4 over L4\n@add a a a\n@add b b b\n@add a b 1\n@add a 1 1"
        "\n@add b 1 1\n@add 1 1 1",
        "@coquantale C4\n@builtin chain:4",
    ]
    for k in range(4):
        points = ["s%d" % i for i in range(4)]
        blocks.append(_space_block("S%d" % k, points, _repaired_dist(4, rng)))
    factors = {}
    for name, m in (("Q0", 4), ("Q1", 4), ("Q2", 4), ("Q3", 4),
                    ("T0", 3), ("T1", 3), ("T2", 3)):
        dist, pvals = random_body(m, rng)
        points = ["%s%d" % (name.lower(), i) for i in range(m)]
        factors[name] = (points, dist, pvals)
        blocks.append(_structure_block(name, points, dist, pvals))
    pairs = []
    for k in range(3):
        dist, pvals = random_body(3, rng)
        while min(pvals) == 0:
            dist, pvals = random_body(3, rng)
        points = ["m%d" % i for i in range(3)]
        blocks.append(_structure_block("M%d" % k, points, dist, pvals))
        d_pass, p_pass = _copy_extension(dist, pvals, rng.randrange(3))
        blocks.append(_structure_block("N%d" % k, points + ["m3"], d_pass, p_pass))
        d_fail, p_fail = _far_extension(dist, pvals)
        blocks.append(_structure_block("F%d" % k, points + ["m3"], d_fail, p_fail))
        pairs.append(("M%d" % k, "N%d" % k, "F%d" % k))
    return "\n\n".join(blocks) + "\n", pairs, factors


def cli_requests(seed: int, defs_path: str):
    """The fixed request script: a list of cql argument lists."""
    _, pairs, factors = cli_defs(seed)
    rng = random.Random("cli-script-%d" % variant(seed))
    load = ["--load", defs_path]
    reqs = [["check", "--builtin", "chain:8"],
            ["check", "--builtin", "chain:8", "--records"],
            ["check", "--builtin", "freelocale:3"],
            ["check", defs_path, "--records"],
            ["compactness-demo"], ["compactness-demo"]]
    structures = sorted(factors) + [name for trio in pairs for name in trio]
    for k in range(42):
        name = structures[k % len(structures)]
        formula = CLI_FORMULAS[k % len(CLI_FORMULAS)]
        req = ["eval"] + load + ["--structure", name, "--formula", formula]
        if "x0" in formula and "sup x0" not in formula and "inf x0" not in formula:
            points = factors[name][0] if name in factors else ["m0", "m1", "m2"]
            req += ["--assign", "x0=%s" % rng.choice(points)]
            if "x1" in formula and "sup x1" not in formula:
                req += ["--assign", "x1=%s" % rng.choice(points)]
        reqs.append(req)
    for k in range(4):
        reqs.append(["topology"] + load + ["--space", "S%d" % k])
        reqs.append(["topology"] + load + ["--space", "S%d" % k])
    for sub, good, bad in pairs:
        for command in ("tv", "elem"):
            for sup in (good, bad):
                reqs.append([command] + load + ["--sub", sub, "--sup", sup,
                                                "--depth", "1"])
                reqs.append([command] + load + ["--sub", sub, "--sup", sup,
                                                "--depth", "2", "--max-free-vars", "1"])
    for k in range(8):
        a, b = rng.sample(["T0", "T1", "T2", "Q0", "Q1"], 2)
        reqs.append(["ultra"] + load + ["--factors", a, b, "--principal", str(k % 2)])
        reqs.append(["los-check"] + load + ["--factors", a, b, "--principal", str(k % 2),
                                            "--formula", rng.choice(CLI_FORMULAS[:3])])
    reqs.append(["ultra"] + load + ["--factors", "Q0", "Q1", "Q2", "Q3",
                                    "--principal", str(rng.randrange(4))])
    reqs.append(["ultra"] + load + ["--factors", "Q0", "Q1", "T0", "T1", "T2",
                                    "--principal", str(rng.randrange(5))])
    reqs.append(["los-check"] + load + ["--factors", "Q0", "Q1", "Q2", "Q3",
                                        "--principal", str(rng.randrange(4)),
                                        "--formula", "(inf x0 (P x0))"])
    reqs.append(["los-check"] + load + ["--factors", "Q0", "Q1", "T0", "T1", "T2",
                                        "--principal", str(rng.randrange(5)),
                                        "--formula", "(sup x1 (d x0 x1))"])
    reqs.append(["los-check"] + load + ["--factors", "T0", "T1", "T2",
                                        "--principal", str(rng.randrange(3)),
                                        "--depth", "2"])
    return reqs
