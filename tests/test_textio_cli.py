import os
import subprocess
import sys

import numpy as np
import pytest

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
    assert lat.le(0, 0) and lat.le(0, 1)


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
                for e, d in sorted(modulus.table.items()))))
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
    index shows."""
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
], ids=["dist", "predval", "modulus"])
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


def test_ultra_emits_loadable_structure(capsys, defs_file, workspace):
    code, out, _ = run_cli(capsys, "ultra", "--load", defs_file,
                           "--factors", "M", "N", "--principal", "0")
    assert code == 0
    ws = Workspace()
    ws.coquantales["chain:4"] = workspace.coquantales["C4"]
    ws.load_text(out)
    assert ws.structures["product"].m == 6


def test_los_check_command(capsys, defs_file):
    code, out, _ = run_cli(capsys, "los-check", "--load", defs_file,
                           "--factors", "M", "N", "--principal", "1",
                           "--depth", "1")
    assert code == 0
    assert "all hold" in out


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
