import contextlib
import io
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqlogic import cli
from cqlogic import coquantale as cq
from cqlogic import formulas as F
from cqlogic import semantics as sem
from cqlogic import spaces as sp
from cqlogic.errors import ParseError
from cqlogic.textio import Workspace, write_structure

DEFS = """
# a two-element lattice and the join co-quantale over it
@lattice L2
@elements 0 1
@leq 0 1

@coquantale B over L2
@add 1 1 1

@coquantale C4
@builtin chain:4

@space S over B
@points p q
@dist p q 0
@dist q p 1

@structure M over C4
@universe a b
@dist a b 2
@dist b a 2
@pred P 1
@predval P a 0
@predval P b 2
@const c a

@structure N over C4
@universe a b z
@dist a b 2
@dist b a 2
@dist a z 1
@dist z a 1
@dist b z 1
@dist z b 1
@pred P 1
@predval P a 0
@predval P b 2
@predval P z 1
@const c a
"""


@pytest.fixture()
def defs_file(tmp_path):
    path = tmp_path / "defs.cql"
    path.write_text(DEFS, encoding="utf-8")
    return str(path)


@pytest.fixture()
def workspace(defs_file):
    ws = Workspace()
    ws.load_path(defs_file)
    return ws


# -- loader -------------------------------------------------------------------


def test_load_all_kinds(workspace):
    assert set(workspace.lattices) == {"L2"}
    assert set(workspace.coquantales) == {"B", "C4"}
    assert set(workspace.spaces) == {"S"}
    assert set(workspace.structures) == {"M", "N"}


def test_leq_closure_applied(workspace):
    lat = workspace.lattices["L2"]
    assert lat.leq[0, 0] and lat.leq[0, 1]


def test_space_defaults(workspace):
    S = workspace.spaces["S"]
    assert S.d(S.index("p"), S.index("q")) == 0   # explicit
    assert S.d(S.index("q"), S.index("p")) == 1


def test_structure_round_trip(workspace):
    text = write_structure(workspace.structures["N"])
    ws2 = Workspace()
    ws2.coquantales["chain:4"] = workspace.coquantales["C4"]
    ws2.load_text(text)
    reloaded = ws2.structures["N"]
    original = workspace.structures["N"]
    assert reloaded.points == original.points
    assert (reloaded.dist == original.dist).all()
    assert {k: v.tolist() for k, v in reloaded.pred_tables.items()} == \
        {k: v.tolist() for k, v in original.pred_tables.items()}
    assert reloaded.const_points == original.const_points


def _write_per_cell(struct, name=None):
    """The writer cell by cell: the reference for `write_structure`."""
    vq = struct.V
    out = ["@structure %s over %s" % (name or struct.name, vq.name)]
    out.append("@universe %s" % " ".join(struct.points))
    for i, p in enumerate(struct.points):
        for j, q in enumerate(struct.points):
            default = vq.bottom if i == j else vq.top
            if struct.dist[i, j] != default:
                out.append("@dist %s %s %s" % (p, q, vq.element_name(int(struct.dist[i, j]))))
    for kind, symbols, tables, image in (
            ("pred", struct.sig.predicates, struct.pred_tables, vq.element_name),
            ("fun", struct.sig.functions, struct.fun_tables, struct.points.__getitem__)):
        for sname in sorted(symbols):
            arity, modulus = symbols[sname]
            out.append("@%s %s %d @modulus %s" % (kind, sname, arity, " ".join(
                "%s %s" % (vq.element_name(e), vq.element_name(d))
                for e, d in zip(vq.positives(), modulus.delta))))
            for combo in np.ndindex(*tables[sname].shape):
                args = " ".join(struct.points[i] for i in combo)
                out.append("@%sval %s %s %s"
                           % (kind, sname, args, image(int(tables[sname][combo]))))
    for cname in struct.sig.constants:
        out.append("@const %s %s" % (cname, struct.points[struct.const_points[cname]]))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("spec", ["chain:4", "lukasiewicz:4"])
def test_write_structure_matches_the_per_cell_writer(spec):
    """Functions of arity 1 and 2, two constants and predicates of arity 1
    and 2; lukasiewicz:4 names its element i "(4-i)/4", so a name read by
    index shows. The writer joins one string per table row, and the text
    loads back to the same tables."""
    vq = cq.builtin(spec)
    ident = F.identity_modulus(vq)
    dist = [[0, 2, 1, 4], [2, 0, 1, 4], [1, 1, 0, 4], [4, 4, 4, 0]]
    space = sp.validate_space(vq, ["a", "b", "z", "w"], dist)
    sig = F.Signature(predicates=[("R", 2, ident), ("P", 1, ident)],
                      functions=[("g", 2, ident), ("f", 1, ident)], constants=["e", "c"])
    struct = sem.validate_structure(
        space, sig, {"R": np.maximum.outer(dist[0], dist[2]), "P": [3, 3, 3, 3]},
        {"f": [1, 0, 2, 3], "g": np.tile(np.arange(4), (4, 1))}, {"c": 2, "e": 3}, name="K")
    text = write_structure(struct)
    assert text == _write_per_cell(struct)
    assert write_structure(struct, "L") == _write_per_cell(struct, "L")
    assert "@predval R b z %s\n" % vq.element_name(2) in text
    ws = Workspace()
    ws.load_text(text)
    loaded = ws.structure("K")
    for kind in ("pred_tables", "fun_tables"):
        assert {k: v.tolist() for k, v in getattr(loaded, kind).items()} == \
            {k: v.tolist() for k, v in getattr(struct, kind).items()}


def test_parse_errors_carry_line_numbers():
    ws = Workspace()
    with pytest.raises(ParseError) as err:
        ws.load_text("@lattice L\n@elements a b\n@leq a zz\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="line 1"):
        ws.load_text("junk\n")
    with pytest.raises(ParseError):
        ws.load_text("@elements a b\n")


def test_covering_pairs_close_to_full_order():
    n = 9
    text = "@lattice C\n@elements %s\n" % " ".join("c%d" % i for i in range(n))
    text += "".join("@leq c%d c%d\n" % (i, i + 1) for i in range(n - 1))
    ws = Workspace()
    ws.load_text(text)
    chain = ws.lattices["C"]
    assert chain.leq.tolist() == [[i <= j for j in range(n)] for i in range(n)]
    assert (chain.bottom, chain.top) == (0, n - 1)


@pytest.mark.parametrize("block, message", [
    ("@space S over C4\n@points p q\n@dist p q 1\n@dist q p seven\n",
     "unknown element 'seven'"),
    ("@structure M over C4\n@universe p q\n@pred P 1\n@predval P p seven\n@predval P q 1\n",
     "unknown element 'seven'"),
    ("@structure M over C4\n@universe p q\n@predval P p 1\n@pred P 1 @modulus 1 1 2 2 3 seven\n",
     "unknown element in @modulus"),
    # each ε at most once
    ("@structure M over C4\n@universe p q\n@predval P p 1\n"
     "@pred P 1 @modulus 0 0 1 1 2 2 3 3 4 4 4 0\n", "@modulus lists an ε twice"),
], ids=["dist", "predval", "modulus", "modulus-twice"])
def test_unknown_dist_element_reports_its_line(block, message):
    ws = Workspace()
    ws.load_text("@coquantale C4\n@builtin chain:4\n")
    with pytest.raises(ParseError, match=message) as err:
        ws.load_text(block)
    assert err.value.line == 4


@pytest.mark.parametrize("lines, message", [
    ("@pred P 1\n@predval P p q 1\n", "line 4: @predval P needs 1 points and a value"),
    ("@pred P 1\n@predval P z 1\n", "line 4: unknown point in @predval"),
    ("@pred P 1\n@predval P q 1\n@predval P p 5\n", "line 5: unknown element '5'"),
    ("@pred P 1\n@predval P p 1\n", "line 1: @predval table for P is not total"),
    ("@fun f 1\n@funval f p\n", "line 4: @funval f needs 1 points and an image"),
    ("@fun f 1\n@funval f z p\n", "line 4: unknown point in @funval"),
    ("@fun f 1\n@funval f q p\n@funval f p z\n", "line 5: unknown point in @funval"),
    ("@fun f 1\n@funval f p q\n", "line 1: @funval table for f is not total"),
])
def test_table_lines_report_each_fault_on_its_line(lines, message):
    ws = Workspace()
    ws.load_text("@coquantale C4\n@builtin chain:4\n")
    with pytest.raises(ParseError) as err:
        ws.load_text("@structure M over C4\n@universe p q\n" + lines)
    assert str(err.value) == message


_L2 = "@lattice L\n@elements 0 1\n@leq 0 1\n"        # lines 1-3
_C4 = "@coquantale C4\n@builtin chain:4\n"               # lines 1-2


@pytest.mark.parametrize("text, message", [
    ("@lattice\n", "line 1: @lattice needs a name"),
    ("@lattice L\n@leq 0 1\n", "line 1: @lattice L needs @elements"),
    ("@lattice L\n@elements 0 1\n@add 0 0 0\n", "line 3: unexpected '@add' in @lattice"),
    ("@lattice L\n@elements 0 1\n@leq 0\n", "line 3: @leq expects 2 fields"),
    ("@coquantale C\n", "line 1: @coquantale C needs 'over LATTICE' or a single @builtin"),
    ("@coquantale C\n@builtin\n", "line 2: @builtin expects 1 fields"),
    ("@coquantale C\n@builtin nope\n", "line 2: unknown builtin 'nope'"),
    ("@coquantale C\n@builtin chain:x\n", "line 2: bad size in 'chain:x'"),
    ("@coquantale C\n@builtin chain:99\n", "line 2: chain size capped at 64"),
    ("@coquantale C under L\n", "line 1: use '@coquantale NAME over LATTICE'"),
    ("@coquantale C over L\n", "line 1: unknown lattice 'L'"),
    (_L2 + "@coquantale C over L\n@builtin bool2\n", "line 5: unexpected '@builtin' in @coquantale"),
    (_L2 + "@coquantale C over L\n@add 1 1 2\n", "line 5: unknown element '2'"),
    (_L2 + "@coquantale C over L\n@add 1 1 1\n@add 1 1 0\n",
     "line 6: conflicting @add for 1 1"),
    ("@space S\n@points p\n", "line 1: use '@space NAME over COQUANTALE'"),
    ("@space S over nope\n@points p\n", "line 1: unknown co-quantale 'nope'"),
    ("@space S over chain:99\n@points p\n", "line 1: chain size capped at 64"),
    (_C4 + "@space S over C4\n@dist p q 1\n", "line 3: @space block needs @points"),
    (_C4 + "@space S over C4\n@points p\n@dist p q 1\n", "line 5: unknown point in @dist p q"),
    (_C4 + "@space S over C4\n@points p\n@pred P 1\n", "line 5: unexpected '@pred' in @space"),
    (_C4 + "@structure M over C4\n@universe p\n@pred P\n",
     "line 5: @pred needs NAME and ARITY"),
    (_C4 + "@structure M over C4\n@universe p\n@fun f one\n", "line 5: bad arity 'one'"),
    (_C4 + "@structure M over C4\n@universe p\n@pred P 1 @modulus 1\n",
     "line 5: inline modulus must be '@modulus EPS DELTA ...'"),
    (_C4 + "@structure M over C4\n@universe p\n@pred P 1 @modulus 1 1\n",
     "line 5: @modulus must list every positive ε"),
    (_C4 + "@structure M over C4\n@universe p\n@points p\n",
     "line 5: unexpected '@points' in @structure"),
    (_C4 + "@structure M over C4\n@universe p\n@const c z\n",
     "line 5: unknown point 'z' in @const"),
    (_C4 + "@structure M over C4\n@universe p\n@const c\n", "line 5: @const expects 2 fields"),
])
def test_malformed_defs_fail_on_their_line(text, message):
    with pytest.raises(ParseError) as err:
        Workspace().load_text(text)
    assert str(err.value) == message


def test_duplicate_names_rejected():
    ws = Workspace()
    with pytest.raises(ParseError, match="duplicate"):
        ws.load_text("@coquantale X\n@builtin bool2\n@coquantale X\n@builtin bool2\n")


def test_missing_predval_rejected():
    ws = Workspace()
    bad = """
@coquantale C
@builtin bool2
@structure M over C
@universe a b
@pred P 1
@predval P a 0
"""
    with pytest.raises(ParseError, match="not total"):
        ws.load_text(bad)


def test_missing_add_pair_rejected():
    ws = Workspace()
    bad = "@lattice L\n@elements 0 m 1\n@leq 0 m\n@leq m 1\n@coquantale C over L\n"
    with pytest.raises(ParseError, match="missing @add"):
        ws.load_text(bad)


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_builtin_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "--builtin", "chain:4")
    assert code == 0
    assert "dualizers:               4" in out
    assert "value-lattice:           yes" in out


def test_check_records_mode(capsys):
    code, out, _ = run_cli(capsys, "check", "--builtin", "bool2", "--records")
    assert code == 0
    assert "value-lattice=yes" in out
    assert "law.adjunction-1=pass [exhaustive]" in out


def test_check_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "check", "--builtin", "freelocale:2")
    code2, out2, _ = run_cli(capsys, "check", "--builtin", "freelocale:2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_a_defs_file_reports_each_declared_co_quantale(capsys, defs_file):
    """`cql check FILE` reports the co-quantales of FILE by name; the
    `@builtin chain:4` block C4 gets the report of `--builtin chain:4`."""
    code, out, err = run_cli(capsys, "check", defs_file, "--records")
    assert (code, err) == (0, "")
    sections = out.split("\n\n")
    assert sections[2:] == [""]
    assert [s.splitlines()[:2] for s in sections[:2]] == \
        [["coquantale=B", "carrier-size=2"], ["coquantale=C4", "carrier-size=5"]]
    _, builtin, _ = run_cli(capsys, "check", "--builtin", "chain:4", "--records")
    assert sections[1].splitlines()[1:] == builtin.splitlines()[1:-1]


@pytest.mark.parametrize("text, message", [
    ("@coquantale C\n@builtin nope\n", "line 2: unknown builtin 'nope'"),
    ("@coquantale C\n@builtin chain:99\n", "line 2: chain size capped at 64"),
    ("@structure M over nope\n@universe a\n", "line 1: unknown co-quantale 'nope'"),
], ids=["unknown-builtin", "builtin-past-its-cap", "unknown-over"])
def test_check_reports_an_unresolved_co_quantale_on_its_line(capsys, tmp_path, text, message):
    path = tmp_path / "defs.cql"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "/definitely/not/there")
    assert code == 2
    assert "error:" in err


def test_check_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.cql"
    path.write_text("@lattice L\n@elements a\n@leq a b\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "line 3" in err


def test_check_refuses_a_thousand_element_lattice_by_cost(capsys, tmp_path):
    """The loader charges the closure of the order before it allocates it."""
    names = ["e%d" % i for i in range(1000)]
    path = tmp_path / "chain.cql"
    path.write_text("@lattice L\n@elements %s\n" % " ".join(names) + "".join(
        "@leq %s %s\n" % pair for pair in zip(names, names[1:])), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert "closing the order of @lattice L on 1000 elements" in err
    assert "cell operations" in err


def test_eval_command(capsys, defs_file):
    code, out, _ = run_cli(capsys, "eval", "--load", defs_file,
                           "--structure", "M", "--formula", "(inf x0 (P x0))")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "eval", "--load", defs_file,
                           "--structure", "M", "--formula", "(P x0)",
                           "--assign", "x0=b")
    assert code == 0 and out.strip() == "2"


def test_eval_error_exit(capsys, defs_file):
    code, _, err = run_cli(capsys, "eval", "--load", defs_file,
                           "--structure", "M", "--formula", "(P x0")
    assert code == 2 and "error:" in err


def test_eval_unknown_structure_exits_2(capsys, defs_file):
    code, out, err = run_cli(capsys, "eval", "--load", defs_file, "--structure", "Z",
                             "--formula", "(val 0)")
    assert (code, out, err) == (2, "", "error: unknown structure 'Z'\n")


def test_eval_unknown_point_exits_2(capsys, defs_file):
    code, out, err = run_cli(capsys, "eval", "--load", defs_file, "--structure", "M",
                             "--formula", "(P x0)", "--assign", "x0=zz")
    assert code == 2 and out == ""
    assert err == "error: unknown point 'zz' in structure M\n"


def test_variable_assigned_twice_exits_2(capsys, defs_file):
    code, out, err = run_cli(capsys, "eval", "--load", defs_file, "--structure", "M",
                             "--formula", "(P x0)", "--assign", "x0=a", "--assign", "x0=b")
    assert code == 2 and out == ""
    assert err == "error: x0 is assigned twice\n"


@pytest.mark.parametrize("argv", [
    ["tv", "--sub", "M", "--sup", "M", "--depth", "-1"],
    ["tv", "--sub", "M", "--sup", "M", "--max-free-vars", "-1"],
    ["elem", "--sub", "M", "--sup", "M", "--depth", "-1"],
    ["elem", "--sub", "M", "--sup", "M", "--max-free-vars", "-1"],
    ["los-check", "--factors", "M", "N", "--principal", "0", "--depth", "-1"],
    ["los-check", "--factors", "M", "N", "--principal", "0", "--depth", "1",
     "--max-free-vars", "-2"],
], ids=["tv-depth", "tv-vars", "elem-depth", "elem-vars", "los-depth", "los-vars"])
def test_negative_depth_or_free_variables_exit_2(capsys, defs_file, argv):
    """A negative bound gives an empty pool, which would pass vacuously."""
    code, out, err = run_cli(capsys, *argv[:1], "--load", defs_file, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: a formula pool needs depth >= 0 and max_free_vars >= 0")


@pytest.mark.parametrize("command", [["ultra"], ["los-check", "--formula", "(P c)"]],
                         ids=["ultra", "los-check"])
@pytest.mark.parametrize("principal", ["2", "-1"])
def test_principal_outside_the_factors_exits_2(capsys, defs_file, command, principal):
    code, out, err = run_cli(capsys, *command, "--load", defs_file, "--factors", "M", "N",
                             "--principal", principal)
    assert code == 2 and out == ""
    assert err == "error: --principal %s is not a factor index (0..1)\n" % principal


# argv: a subcommand (or none, or an unknown one), then units drawn mostly
# from its own flags; a flag comes with its value, so --depth stays at most
# 1 and --max-free-vars at most 2. "DEFS" is the defs file.
_LOAD = ["--load", "DEFS"]
_PAIR = [_LOAD, ["--sub", "M"], ["--sub", "N"], ["--sup", "N"], ["--sup", "Z"],
         ["--max-free-vars", "2"], ["--max-free-vars", "-1"]]
_PRODUCT = [_LOAD, ["--factors", "M", "N"], ["--factors", "N"], ["--principal", "0"],
            ["--principal", "7"]]
_UNITS = {
    "check": [["--builtin", "bool2"], ["--builtin", "chain:0"], ["DEFS"], ["missing.cql"]],
    "eval": [_LOAD, ["--structure", "M"], ["--structure", "Z"],
             ["--formula", "(sup x0 (P x0))"], ["--formula", "(P x0)"], ["--formula", "(P x0"],
             ["--assign", "x0=a"], ["--assign", "x0=zz"]],
    "topology": [_LOAD, ["--space", "S"], ["--space", "Z"]],
    "tv": _PAIR, "elem": _PAIR,
    "ultra": _PRODUCT,
    "los-check": _PRODUCT + [["--formula", "(P c)"]],
    "compactness-demo": [], "nope": [], None: [_LOAD],
}
_ANYWHERE = [["--help"], ["M"], ["--depth", "0"], ["--depth", "1"], ["--depth", "-1"],
             ["--depth", "x"], ["--max-free-vars", "x"], ["--records"]]
_ARGV = st.sampled_from(list(_UNITS)).flatmap(lambda command: st.lists(
    st.sampled_from(_UNITS[command] + _ANYWHERE), max_size=4).map(
    lambda units: ([command] if command else []) + [token for unit in units for token in unit]))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.fixture(scope="module")
def cli_defs(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "defs.cql"
    path.write_text(DEFS, encoding="utf-8")
    return str(path)


@settings(max_examples=150, deadline=None)
@given(argv=_ARGV)
def test_cli_returns_its_exit_code_and_is_deterministic(cli_defs, argv):
    """Any argv of at most 8 tokens returns 0, 1 or 2 (a usage error and
    --help too), raises nothing, and writes the same bytes when run twice."""
    argv = [cli_defs if token == "DEFS" else token for token in argv[:8]]
    first = _run_captured(argv)
    assert first[0] in (0, 1, 2)
    assert _run_captured(argv) == first


def test_topology_command(capsys, defs_file):
    code, out, _ = run_cli(capsys, "topology", "--load", defs_file, "--space", "S")
    assert code == 0
    assert "opens: 3" in out
    assert "{q}" in out


def test_tv_and_elem_commands(capsys, defs_file):
    code, out, _ = run_cli(capsys, "tv", "--load", defs_file,
                           "--sub", "M", "--sup", "M", "--depth", "1")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(capsys, "tv", "--load", defs_file,
                           "--sub", "M", "--sup", "N", "--depth", "1")
    assert code == 1 and "FAIL" in out
    code, out, _ = run_cli(capsys, "elem", "--load", defs_file,
                           "--sub", "M", "--sup", "N", "--depth", "1")
    assert code == 0


def test_ultra_emits_loadable_structure(capsys, defs_file, workspace, tmp_path):
    """The product is written `over chain:4`, a spec no block declares: it
    loads on its own, and beside the defs its V is the one of M and N."""
    code, out, _ = run_cli(capsys, "ultra", "--load", defs_file,
                           "--factors", "M", "N", "--principal", "0")
    assert code == 0 and out.startswith("@structure product over chain:4\n")
    ws = Workspace()
    ws.load_text(out)
    assert ws.structures["product"].m == 6
    assert ws.structures["product"].V is workspace.coquantales["C4"]
    written = tmp_path / "out.cql"
    written.write_text(out, encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--load", str(written),
                             "--structure", "product", "--formula", "(sup x0 (P x0))")
    assert (code, out, err) == (0, "2\n", "")
    code, out, _ = run_cli(capsys, "los-check", "--load", defs_file, "--load", str(written),
                           "--factors", "product", "M", "--principal", "0", "--depth", "1")
    assert code == 0
    assert out.splitlines()[-1] == "los-equalities: all hold"


def test_los_check_command(capsys, defs_file):
    code, out, _ = run_cli(capsys, "los-check", "--load", defs_file,
                           "--factors", "M", "N", "--principal", "1",
                           "--depth", "1")
    assert code == 0
    assert "all hold" in out


def test_los_check_of_one_formula(capsys, defs_file):
    code, out, err = run_cli(capsys, "los-check", "--load", defs_file, "--factors", "M", "N",
                             "N", "--principal", "1", "--formula", "(sup x1 (d x0 x1))")
    assert (code, out, err) == (0, "formulas: 1\nlos-equalities: all hold\n", "")


@pytest.mark.parametrize("target", [["--formula", "(P x0)", "--depth", "1"], []],
                         ids=["both", "neither"])
def test_los_check_takes_exactly_one_of_formula_and_depth(capsys, defs_file, target):
    """--formula and --depth are a required pair of exclusive flags: both,
    or neither, is a usage error, with nothing checked."""
    code, out, err = run_cli(capsys, "los-check", "--load", defs_file, "--factors", "M", "N",
                             "--principal", "0", *target)
    assert code == 2 and out == ""
    assert ("not allowed with argument" if target else "is required") in err


@pytest.mark.parametrize("spec", ["chain:4", "chain:04"])
def test_two_builtin_blocks_of_one_spec_share_their_carrier(capsys, tmp_path, spec):
    """`@builtin chain:4` and a second block of the same spec, or of another
    spelling of it, name one carrier, named `chain:4`, so structures over
    either are factors of one D-product."""
    text = DEFS.replace("@structure N over C4", "@coquantale D4\n@builtin %s\n\n"
                        "@structure N over D4" % spec)
    path = tmp_path / "two.cql"
    path.write_text(text, encoding="utf-8")
    ws = Workspace()
    ws.load_path(str(path))
    assert ws.coquantales["C4"] is ws.coquantales["D4"] is cq.builtin("chain:4")
    assert ws.coquantales["D4"].name == "chain:4"
    code, out, err = run_cli(capsys, "los-check", "--load", str(path),
                             "--factors", "M", "N", "--principal", "0", "--depth", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "los-equalities: all hold"


def test_an_unknown_co_quantale_name_exits_2(capsys, tmp_path):
    path = tmp_path / "nope.cql"
    path.write_text("@structure M over nope\n@universe a\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--load", str(path),
                             "--structure", "M", "--formula", "(val 0)")
    assert (code, out) == (2, "")
    assert err == "error: line 1: unknown co-quantale 'nope'\n"


def test_a_declared_block_named_like_a_spec_takes_precedence():
    """`over chain:4` reads the declared two-element block of that name,
    not the builtin five-element chain."""
    ws = Workspace()
    ws.load_text("@lattice L2\n@elements 0 1\n@leq 0 1\n\n"
                 "@coquantale chain:4 over L2\n@add 1 1 1\n\n"
                 "@space S over chain:4\n@points p q\n")
    declared = ws.coquantales["chain:4"]
    assert ws.coquantale("chain:4") is declared is not cq.builtin("chain:4")
    assert ws.spaces["S"].V is declared and declared.size == 2


FREELOCALE2_CHECK = """\
coquantale:              freelocale:2
carrier-size:            6
value-lattice:           yes
co-divisible:            yes
co-girard:               no
dualizers:               -
safa:                    yes
safa-witness:            u_n={a+b}
dsym-T0:                 yes
dsym-v-domain:           yes
positives-contain-0:     yes
residuation-seed:        20260810
law.adjunction-1:        pass [exhaustive]
law.adjunction-2:        pass [exhaustive]
law.adjunction-3:        pass [exhaustive]
law.adjunction-4:        pass [exhaustive]
law.adjunction-5:        pass [exhaustive]
law.adjunction-6:        pass [exhaustive]
law.monotone-exchange:   pass [exhaustive]
law.join-family:         pass [exhaustive]
law.meet-family:         pass [exhaustive]

"""


def test_cql_starts_without_dataclasses_the_free_locale_or_ultraproducts(defs_file):
    """In a fresh interpreter, `import cqlogic.cli` leaves `dataclasses`,
    `cqlogic.freelocale` and `cqlogic.ultraproduct` unloaded: the two
    modules load on first use. Importing `cqlogic.ultraproduct` after it,
    as `ultra`, `los-check` and `compactness-demo` do, still leaves
    `dataclasses` unloaded. A request that loads the free locale and a
    `chain:4` eval print what they printed when the free locale loaded at
    import, byte for byte."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, cqlogic.cli; print([m for m in ('dataclasses', 'cqlogic.freelocale',"
             " 'cqlogic.ultraproduct') if m in sys.modules]); import cqlogic.ultraproduct;"
             " print('dataclasses' in sys.modules)")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            timeout=60, check=True)
    assert loaded.stdout == b"[]\nFalse\n"
    for argv, expected in (
            (["check", "--builtin", "freelocale:2"], FREELOCALE2_CHECK),
            (["eval", "--load", defs_file, "--structure", "N", "--formula",
              "(sup x0 (conn vee (P x0) (d x0 c)))"], "2\n")):
        proc = subprocess.run([sys.executable, "-m", "cqlogic.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.encode(), b"")


def test_reader_closing_the_pipe_early_gets_no_traceback(defs_file):
    """A reader that stops after the first line, as `| head -n 1` does. The
    81-point product's text is larger than a pipe buffer, so with the
    default block-buffered stdout a later write fails: the command exits 141
    and writes nothing to stderr. (Unbuffered, a partial write would end
    the output without an error.)"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cqlogic.cli", "ultra", "--load", defs_file,
         "--factors", "N", "N", "N", "N", "--principal", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": src})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"@structure product ")
    assert err == b""


def test_compactness_demo(capsys):
    code, out, _ = run_cli(capsys, "compactness-demo")
    assert code == 0
    assert "verified" in out
