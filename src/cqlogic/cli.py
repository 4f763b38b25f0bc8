"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 a theorem check failed (a
witness is printed), 2 input or validation error, 141 (128 + SIGPIPE) the
reader closed standard output early.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import coquantale as cq
from . import semantics as sem
from . import spaces as sp
from .errors import CqlError
from .formulas import Signature, identity_modulus, parse_formula
from .semantics import Condition
from .spaces import is_v_domain, validate_space
from .textio import Workspace, write_structure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cql",
                                     description="co-quantale valued logic workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="structural report for a co-quantale")
    p_check.add_argument("path", nargs="?", help="definition file to check")
    p_check.add_argument("--builtin", help="builtin spec, e.g. chain:4")
    p_check.add_argument("--records", action="store_true",
                         help="machine-readable key=value output")

    p_eval = sub.add_parser("eval", help="evaluate a formula in a structure")
    _add_load(p_eval)
    p_eval.add_argument("--structure", required=True)
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--assign", action="append", default=[],
                        metavar="xN=POINT")

    p_topo = sub.add_parser("topology", help="induced topology of a space")
    _add_load(p_topo)
    p_topo.add_argument("--space", required=True)

    for name in ("tv", "elem"):
        p = sub.add_parser(name, help="Tarski-Vaught / elementarity up to a depth")
        _add_load(p)
        p.add_argument("--sub", required=True)
        p.add_argument("--sup", required=True)
        p.add_argument("--depth", type=int, default=1)
        p.add_argument("--max-free-vars", type=int, default=2)

    p_ultra = sub.add_parser("ultra", help="emit a D-product structure")
    _add_load(p_ultra)
    p_ultra.add_argument("--factors", nargs="+", required=True)
    p_ultra.add_argument("--principal", type=int, required=True)

    p_los = sub.add_parser("los-check", help="verify the Łoś equality")
    _add_load(p_los)
    p_los.add_argument("--factors", nargs="+", required=True)
    p_los.add_argument("--principal", type=int, required=True)
    target = p_los.add_mutually_exclusive_group(required=True)
    target.add_argument("--formula")
    target.add_argument("--depth", type=int)
    p_los.add_argument("--max-free-vars", type=int, default=1)

    sub.add_parser("compactness-demo", help="scripted compactness construction")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:           # --help (0) or a usage error (2)
        return exc.code
    try:
        status = _dispatch(args)
        sys.stdout.flush()
        return status
    except CqlError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the rest of the output goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _add_load(parser):
    parser.add_argument("--load", action="append", default=[], metavar="FILE",
                        help="definition file (repeatable)")


def _workspace(args) -> Workspace:
    ws = Workspace()
    for path in args.load:
        ws.load_path(path)
    return ws


def _dispatch(args) -> int:
    command = args.command.replace("-", "_")
    return globals()["cmd_" + command](args)


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    targets = []
    if args.builtin:
        targets.append((args.builtin, cq.builtin(args.builtin)))
    if args.path:
        ws = Workspace()
        ws.load_path(args.path)
        targets.extend(sorted(ws.coquantales.items()))
    if not targets:
        print("error: nothing to check (give a path or --builtin)", file=sys.stderr)
        return 2
    failed = False
    for name, vq in targets:
        report = cq.check_residuation_laws(vq)
        failed = failed or not report.all_pass
        dsym_space = validate_space(vq, [vq.element_name(e) for e in vq.carrier()], vq.dsym)
        rows = [
            ("coquantale", name),
            ("carrier-size", str(vq.size)),
            ("value-lattice", _yn(vq.value_flag)),
            ("co-divisible", _yn(vq.co_divisible_flag)),
            ("co-girard", _yn(bool(vq.dualizers))),
            ("dualizers", ",".join(vq.element_name(d) for d in vq.dualizers) or "-"),
            ("safa", _yn(vq.safa_flag)),
            ("safa-witness", "u_n=%s" % vq.element_name(vq.bottom) if vq.safa_flag else "-"),
            ("dsym-T0", _yn(sp.is_T0(dsym_space))),
            ("dsym-v-domain", _yn(is_v_domain(dsym_space))),
            ("positives-contain-0", _yn(vq.is_positive(vq.bottom))),
            ("residuation-seed", str(report.seed)),
        ]
        for law in report.results:
            rows.append(("law." + law.law,
                         ("pass" if law.passed else "FAIL %s" % law.witness)
                         + " [%s]" % law.mode))
        if args.records:
            for key, value in rows:
                print("%s=%s" % (key, value))
        else:
            for key, value in rows:
                print("%-24s %s" % (key + ":", value))
        print()
    return 1 if failed else 0


def _yn(flag):
    return "yes" if flag else "no"


# -- eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    ws = _workspace(args)
    struct = ws.structure(args.structure)
    phi = parse_formula(args.formula, struct.sig, struct.V)
    sigma = {}
    for item in args.assign:
        var, _, point = item.partition("=")
        if not var.startswith("x") or not var[1:].isdigit():
            raise CqlError("bad assignment %r (use xN=POINT)" % item)
        if point not in struct.space.points:
            raise CqlError("unknown point %r in structure %s" % (point, args.structure))
        if int(var[1:]) in sigma:
            raise CqlError("%s is assigned twice" % var)
        sigma[int(var[1:])] = struct.space.index(point)
    value = sem.eval_formula(struct, phi, sigma)
    print(struct.V.element_name(value))
    return 0


# -- topology ---------------------------------------------------------------------


def cmd_topology(args) -> int:
    ws = _workspace(args)
    if args.space not in ws.spaces:
        raise CqlError("unknown space %r" % args.space)
    space = ws.spaces[args.space]
    opens = sp.sorted_opens(sp.induced_topology(space))
    print("opens: %d" % len(opens))
    for u in opens:
        print("  {%s}" % ",".join(sorted(u)))
    print("T0: %s" % _yn(sp.is_T0(space)))
    print("V-domain: %s" % _yn(is_v_domain(space)))
    return 0


# -- tv / elem ----------------------------------------------------------------------


def cmd_tv(args) -> int:
    return _pair_command(args, sem.tarski_vaught_upto, "tarski-vaught")


def cmd_elem(args) -> int:
    return _pair_command(args, sem.elementary_upto, "elementary")


def _pair_command(args, op, label) -> int:
    ws = _workspace(args)
    verdict = op(ws.structure(args.sub), ws.structure(args.sup),
                 args.depth, args.max_free_vars)
    print("%s: %s" % (label, verdict.describe()))
    return 0 if verdict.passed else 1


# -- ultra / los-check ----------------------------------------------------------------


def _d_product(args):
    """The D-product of --factors under the ultrafilter principal at --principal."""
    from . import ultraproduct as up     # only ultra, los-check and the demo need it
    ws = _workspace(args)
    factors = [ws.structure(n) for n in args.factors]
    if not 0 <= args.principal < len(factors):
        raise CqlError("--principal %d is not a factor index (0..%d)"
                       % (args.principal, len(factors) - 1))
    return up.d_product_structure(factors, up.PrincipalUltrafilter(len(factors), args.principal))


def cmd_ultra(args) -> int:
    dp = _d_product(args)
    sys.stdout.write(write_structure(dp.structure, name="product"))
    return 0


def cmd_los_check(args) -> int:
    from . import ultraproduct as up
    dp = _d_product(args)
    sig, vq = dp.factors[0].sig, dp.factors[0].V
    if args.depth is None:
        pool = [parse_formula(args.formula, sig, vq)]
    else:
        pool = sem.enumerate_formulas(sig, vq, args.depth, args.max_free_vars)
    print("formulas: %d" % len(pool))
    bad = 0
    for phi in pool:
        # one report at a time: a depth-2 pool's reports together held about
        # 1.2 GB on 162 product points
        report = up.los_check(dp, phi)
        if not report.all_equal:
            bad += 1
            for line in report.lines(vq):
                print(line)
    print("los-equalities: %s" % ("all hold" if not bad else "%d formulas FAIL" % bad))
    return 0 if not bad else 1


# -- compactness demo -----------------------------------------------------------------


def cmd_compactness_demo(args) -> int:
    from . import ultraproduct as up
    vq = cq.builtin("chain:4")
    ident = identity_modulus(vq)
    sig = Signature(predicates=[("P", 1, ident), ("Q", 1, ident)])
    dist = [[0, 1], [1, 0]]

    def make(name, pvals, qvals):
        space = validate_space(vq, [name + "0", name + "1"], dist)
        return sem.validate_structure(space, sig, {"P": pvals, "Q": qvals}, name=name)

    candidates = [make("A", [0, 0], [2, 2]), make("B", [2, 2], [0, 0]),
                  make("C", [0, 0], [0, 0])]
    e1 = Condition(parse_formula("(sup x0 (P x0))", sig, vq))
    e2 = Condition(parse_formula("(sup x0 (Q x0))", sig, vq))
    result = up.compactness_build([e1, e2], candidates)
    print("theory: (sup x0 (P x0)) = 0, (sup x0 (Q x0)) = 0")
    print("candidates: A (P=0), B (Q=0), C (both)")
    print("lambda index: %s" % [list(s) for s in result.subsets])
    print("chosen factors: %s" % ",".join(result.factor_names))
    print("principal generator: %d (the full theory)" % result.generator)
    print("product points: %d" % result.model.structure.m)
    print("verified: the D-product models the theory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
