import hashlib
import json
import subprocess
import sys

import export_oracle
import pytest

from pathcrystals import folding
from pathcrystals.cartan import DynkinType
from pathcrystals.cli import main
from pathcrystals.crystal import generate
from pathcrystals.paths import straight_path

C2 = DynkinType("C", 2)


def run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "pathcrystals", *args],
        capture_output=True,
        env=env,
    )


def test_info_text(cli_env):
    res = run_cli(["info", "A2"], cli_env)
    assert res.returncode == 0
    out = res.stdout.decode()
    assert "connected subdiagrams: 3" in out
    assert "positive roots: 3" in out


def test_info_json_c2(cli_env):
    res = run_cli(["info", "C2", "--json"], cli_env)
    data = json.loads(res.stdout)
    assert data["cartan_matrix"] == [[2, -2], [-1, 2]]
    assert data["theta"] == {"1": 1, "2": 2}


def test_info_bad_type_exits_two(cli_env):
    res = run_cli(["info", "Z9"], cli_env)
    assert res.returncode == 2
    assert b"error" in res.stderr


def test_crystal_dot_export(cli_env):
    res = run_cli(["crystal", "A1", "2", "--export", "dot"], cli_env)
    assert res.returncode == 0
    out = res.stdout.decode()
    assert out.count("[label=") == 3 + 2  # 3 nodes, 2 edges


def test_crystal_json_export(cli_env):
    res = run_cli(["crystal", "C2", "1,0", "--export", "json"], cli_env)
    data = json.loads(res.stdout)
    assert len(data["vertices"]) == 4


def test_crystal_levi_components(cli_env):
    res = run_cli(["crystal", "A2", "1,0", "--levi", "1"], cli_env)
    data = json.loads(res.stdout)
    sizes = sorted(len(c["vertices"]) for c in data["components"])
    assert sizes == [1, 2]


def test_crystal_bad_weight_exits_two(cli_env):
    for bad in ("1", "1,x", "-1,0", "1,0,0"):
        res = run_cli(["crystal", "C2", bad], cli_env)
        assert res.returncode == 2, bad


def test_crystal_max_size_guard_exits_two(cli_env):
    res = run_cli(["crystal", "C2", "1,1", "--max-size", "5"], cli_env)
    assert res.returncode == 2


def test_crystal_out_file(cli_env, tmp_path):
    target = tmp_path / "c.json"
    res = run_cli(["crystal", "C2", "1,0", "--out", str(target)], cli_env)
    assert res.returncode == 0
    assert json.loads(target.read_text())["type"] == "C2"


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_crystal_out_file_matches_stdout(capsys, tmp_path, fmt):
    # the text and, after a JSON export, its newline; the same bytes either way
    target = tmp_path / f"c.{fmt}"
    assert main(["crystal", "G2", "1,1", "--export", fmt, "--out", str(target)]) == 0
    assert main(["crystal", "G2", "1,1", "--export", fmt]) == 0
    out = capsys.readouterr().out
    assert target.read_bytes() == out.encode()
    g = generate(DynkinType("G", 2), (1, 1))
    if fmt == "json":
        assert out == export_oracle.export_json(g) + "\n"
    else:
        assert out == export_oracle.export_dot(g)


@pytest.mark.parametrize("out", ["dir", "missing/c.json"])
def test_crystal_unwritable_out_exits_two(cli_env, tmp_path, out):
    target = tmp_path if out == "dir" else tmp_path / out
    res = run_cli(["crystal", "A1", "1", "--out", str(target)], cli_env)
    assert res.returncode == 2
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write")


def test_xi_permutation(cli_env):
    res = run_cli(["xi", "A2", "1,0", "1,2"], cli_env)
    data = json.loads(res.stdout)
    assert data["involution"] == [2, 1, 0]


def test_xi_single_vertex(cli_env):
    res = run_cli(["xi", "A1", "2", "1", "--vertex", "0"], cli_env)
    data = json.loads(res.stdout)
    assert data["image"] == 2


def test_fold_info_c2(cli_env):
    res = run_cli(["fold-info", "C2"], cli_env)
    data = json.loads(res.stdout)
    assert data["sigma"]["2"] == [2]
    assert data["gamma"]["2"] == 2


def test_fold_info_g2_triality_orbits(cli_env):
    res = run_cli(["fold-info", "G2"], cli_env)
    data = json.loads(res.stdout)
    assert data["sigma"] == {"1": [1, 3, 4], "2": [2]}


def test_fold_info_rejects_simply_laced(cli_env):
    res = run_cli(["fold-info", "A3"], cli_env)
    assert res.returncode == 2


def test_fold_info_rank_above_the_cap(capsys):
    assert main(["fold-info", "C5"]) == 2
    assert capsys.readouterr().err == "error: rank 5 above the cap 4\n"


def test_virtualize_mapping(cli_env):
    res = run_cli(["virtualize", "C2", "1,0"], cli_env)
    data = json.loads(res.stdout)
    assert data["x_size"] == 4 and data["y_size"] == 15
    assert len(data["image"]) == 4


VIRTUALIZE_DIGESTS = {
    ("C2", "1,0"): "92227832d81b102dae32c1f8572a6821bc769d8dfcda2b3eb53adc3e0cdc6219",
    ("C3", "1,0,1"): "879ea2178699af1ad2424cba2070c27c153b122ad83871f098b91ef7c0de4936",
    ("B3", "0,1,0"): "0d67880838bbf79215aa93654e491b6f78016317f64227b32f5cbce5602054fa",
    ("G2", "1,0"): "4ee355d36a61053d0be71a5adfb6996342c0311a012de858af81483d1f152b39",
}


@pytest.mark.parametrize("type_text,weight_text", sorted(VIRTUALIZE_DIGESTS))
def test_virtualize_output_pinned(capsys, type_text, weight_text):
    # sha256 of the whole stdout: the image table's order and labels are fixed
    assert main(["virtualize", type_text, weight_text]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VIRTUALIZE_DIGESTS[(type_text, weight_text)]


def test_virtualize_rejects_non_injective_image(monkeypatch, capsys):
    # every source path lands on the image of the highest vertex
    top = folding.virtualize_path(folding.folding_pair("C2"), straight_path(C2, (1, 0)))
    monkeypatch.setattr(folding, "virtualize_path", lambda fold, path: top)
    assert main(["virtualize", "C2", "1,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not an embedding") and "injectivity" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "seminormal", "C2", "1,0"],
        ["verify", "cactus", "A3", "0,1,0"],
        ["verify", "virtualization", "C2", "1,0"],
        ["verify", "virtual-relations", "C2", "1,0"],
        ["verify", "diagram", "C2", "1,0"],
        ["verify", "component-identity", "B3"],
        ["cactus-verify", "C2", "1,1"],
    ],
)
def test_verify_commands_pass(cli_env, args):
    res = run_cli(args, cli_env)
    assert res.returncode == 0, res.stderr.decode()
    assert b"PASS" in res.stdout


def test_verify_json_report(cli_env):
    res = run_cli(["verify", "diagram", "C2", "1,0", "--json"], cli_env)
    data = json.loads(res.stdout)
    assert data["status"] == "pass"
    assert data["violations"] == []
    assert "elapsed_s" in data


def test_verify_usage_errors(cli_env):
    assert run_cli(["verify", "diagram", "C2"], cli_env).returncode == 2
    assert run_cli(["verify", "component-identity", "B3", "1,0,0"], cli_env).returncode == 2
    assert run_cli(["verify", "nonsense", "C2", "1,0"], cli_env).returncode == 2
    assert run_cli(["verify", "diagram", "A3", "1,0,0"], cli_env).returncode == 2


def test_export_is_deterministic(cli_env):
    first = run_cli(["crystal", "C2", "1,1", "--export", "json"], cli_env)
    second = run_cli(["crystal", "C2", "1,1", "--export", "json"], cli_env)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_main_inprocess_exit_codes(capsys):
    assert main(["info", "A2"]) == 0
    capsys.readouterr()
    assert main(["info", "B1"]) == 2
    capsys.readouterr()


MALFORMED_INTEGERS = ["1_0", "+1", " 1", "1 ", "\u0661", "\u00b2", "", "1.0", "0x1"]


@pytest.mark.parametrize("entry", MALFORMED_INTEGERS)
@pytest.mark.parametrize(
    "args",
    [
        ["crystal", "A2", "{},0"],
        ["virtualize", "C2", "0,{}"],
        ["crystal", "A2", "1,0", "--levi", "{}"],
        ["xi", "A2", "1,0", "1,{}"],
    ],
    ids=["crystal", "virtualize", "levi", "xi-nodes"],
)
def test_malformed_integers_exit_two(capsys, args, entry):
    # int() alone accepts underscores, signs, spaces and non-ASCII digits
    argv = [a.format(entry) for a in args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot parse "), lines


@pytest.mark.parametrize("entry", MALFORMED_INTEGERS)
@pytest.mark.parametrize(
    "args",
    [
        ["crystal", "A1", "2", "--max-size", "{}"],
        ["xi", "A1", "2", "1", "--max-size", "{}"],
        ["virtualize", "C2", "1,0", "--max-size", "{}"],
        ["verify", "seminormal", "A1", "2", "--max-size", "{}"],
        ["cactus-verify", "A1", "2", "--max-size", "{}"],
        ["xi", "A1", "2", "1", "--vertex", "{}"],
    ],
    ids=["crystal", "xi", "virtualize", "verify", "cactus-verify", "xi-vertex"],
)
def test_malformed_integer_options_exit_two(capsys, args, entry):
    # argparse's type=int took " 1", "+1" and "1_0" for --vertex and --max-size
    argv = [a.format(entry) for a in args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot parse "), lines


@pytest.fixture
def digit_limit():
    # Python's default cap on int <-> str conversion since 3.11 (and 3.10.7)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "args,message",
    [
        (["crystal", "A1", "{ones}"], "error: cannot parse weight '1"),
        (["xi", "A2", "1,0", "1,2", "--vertex", "{ones}"], "error: cannot parse vertex '1"),
        (["crystal", "A1", "2", "--max-size", "{ones}"], "error: cannot parse max size '1"),
        (["info", "A{ones}"], "error: cannot parse Dynkin type 'A1"),
        (["fold-info", "C{ones}"], "error: cannot parse Dynkin type 'C1"),
        (["crystal", "A8", "{entries}"], "error: crystal of size at least 2**"),
    ],
    ids=["weight", "vertex", "max-size", "info", "fold-info", "size"],
)
def test_integers_past_the_digit_limit_exit_two(capsys, digit_limit, args, message):
    # str <-> int past the limit raises ValueError, which escaped as a traceback
    ones = "1" * (digit_limit + 700)
    entries = ",".join(["1" * 1000] * 8)  # each entry parses; the size does not print
    assert main([a.format(ones=ones, entries=entries) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines[0][:80]


def test_integer_options_keep_their_meaning(capsys):
    assert main(["xi", "A1", "2", "1", "--vertex", "0", "--max-size", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["image"] == 2
    assert main(["crystal", "A1", "2", "--max-size", "2"]) == 2
    assert capsys.readouterr().err == "error: crystal of size 3 exceeds the cap 2\n"


def test_malformed_weight_exits_two_from_the_shell(cli_env):
    res = run_cli(["crystal", "A2", "1_0,0"], cli_env)
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.decode().splitlines() == ["error: cannot parse weight '1_0,0'"]


@pytest.mark.parametrize("weight", ["1,-1", "-1,0", "-0,-2"])
def test_negative_weight_keeps_its_message(capsys, weight):
    assert main(["crystal", "A2", "--", weight]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weight entries must be nonnegative\n"
