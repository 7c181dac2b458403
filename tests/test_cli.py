"""The command-line surface: happy paths, audited failures as exit codes,
and byte-stable reruns."""

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coarsekit import cli, groups
from coarsekit._jsonutil import canonical_json, csv_text
from coarsekit.cli import main
from coarsekit.groups import group_from_token, word_norm_table
from coarsekit.metric import point_label

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_ball_command(capsys, tmp_path):
    csv_path = tmp_path / "norms.csv"
    code, body = run_json(
        capsys, "ball", "--group", "zn:1", "--radius", "4",
        "--norm-csv", str(csv_path),
    )
    assert code == 0
    assert body["schema"] == "coarsekit/1"
    assert len(body["points"]) == 9
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "element,norm"
    assert lines[1] == "(0),0"  # one coordinate, no comma, no quoting needed


def test_ball_norm_csv_quotes_plane_points(capsys, tmp_path):
    csv_path = tmp_path / "norms.csv"
    code, _ = run_json(
        capsys, "ball", "--group", "zn:2", "--radius", "1",
        "--norm-csv", str(csv_path),
    )
    assert code == 0
    text = csv_path.read_text()
    assert '"(0,1)",1' in text  # comma inside the label forces quotes


@pytest.mark.parametrize("token, radius", [("heisenberg", 5), ("lamplighter", 4)])
def test_ball_norm_csv_is_the_bfs_table(capsys, tmp_path, token, radius):
    csv_path = tmp_path / "norms.csv"
    code, _ = run(capsys, "ball", "--group", token, "--radius", str(radius), "--norm-csv", str(csv_path))
    assert code == 0
    table = word_norm_table(group_from_token(token), radius)
    rows = sorted(((point_label(e), n) for e, n in table.items()), key=lambda r: (r[1], r[0]))
    assert csv_path.read_text() == csv_text(("element", "norm"), rows)


def test_ball_norm_csv_runs_one_bfs(capsys, monkeypatch, tmp_path):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return word_norm_table(*args, **kwargs)

    monkeypatch.setattr(groups, "word_norm_table", counting)
    # the command module's own reference, where it keeps one
    monkeypatch.setattr(cli, "word_norm_table", counting, raising=False)
    code, _ = run(capsys, "ball", "--group", "heisenberg", "--radius", "5", "--norm-csv", str(tmp_path / "n.csv"))
    assert code == 0
    assert calls == [5]


def test_cover_ball_stats(capsys):
    code, body = run_json(
        capsys, "cover", "--method", "ball", "--group", "zn:1",
        "--radius", "8", "--lambda", "2",
    )
    assert code == 0
    assert body["stats"]["multiplicity"] == 5
    assert body["stats"]["lebesgue_pointwise"] >= 2


def test_cover_families(capsys):
    code, body = run_json(
        capsys, "cover", "--method", "families", "--group", "zn:1",
        "--radius", "8", "--lambda", "1",
    )
    assert code == 0
    assert body["stats"]["multiplicity"] <= 2


def test_cover_extension_happy_path(capsys):
    code, body = run_json(
        capsys, "cover", "--method", "extension", "--group", "zn:2",
        "--radius", "20", "--lambda", "2",
    )
    assert code == 0
    assert body["stats"]["multiplicity"] <= body["stats"]["multiplicity_bound"]
    assert body["stats"]["lebesgue_safe"] >= 2


def test_cover_extension_thin_kernel_exits_2(capsys):
    code, body = run_json(
        capsys, "cover", "--method", "extension", "--group", "zn:2",
        "--radius", "20", "--lambda", "2", "--kernel-lambda", "1",
    )
    assert code == 2
    assert body["type"] == "LebesgueTooSmall"
    assert body["needed"] == 42


def test_cover_extension_window_too_small(capsys):
    code, body = run_json(
        capsys, "cover", "--method", "extension", "--group", "zn:2",
        "--radius", "6", "--lambda", "7",
    )
    assert code == 2
    assert body["type"] == "WindowTooSmall"
    code, body = run_json(
        capsys, "cover", "--method", "extension", "--group", "zn:2",
        "--radius", "6", "--lambda", "7", "--allow-boundary",
    )
    assert code == 0
    assert body["warning"]["type"] == "WindowTooSmall"


def test_cover_wreath(capsys):
    code, body = run_json(
        capsys, "cover", "--method", "wreath", "--group", "lamplighter",
        "--radius", "5", "--lambda", "1",
    )
    assert code == 0
    assert body["stats"]["envelope"] == 26
    assert body["stats"]["multiplicity"] <= 26


def test_cover_wreath_rejects_a_non_wreath_group(capsys):
    code, body = run_json(
        capsys, "cover", "--method", "wreath", "--group", "heisenberg",
        "--radius", "3", "--lambda", "1",
    )
    assert code == 2
    assert body["type"] == "PreconditionFailed"
    assert body["error"] == "cannot split wreath token"
    assert body["token"] == "heisenberg"


def test_cover_extension_rejects_groups_other_than_the_plane(capsys):
    # free groups declare no split; a wreath product has factors, but its
    # kernel is no lattice for the interval cover V
    for token in ("free:2", "lamplighter"):
        code, body = run_json(
            capsys, "cover", "--method", "extension", "--group", token,
            "--radius", "3", "--lambda", "1",
        )
        assert code == 2
        assert body["type"] == "PreconditionFailed"
        assert body["error"] == "the extension method needs a declared extension"
        assert body["group"] == token


@pytest.mark.parametrize("token, radius", [("zn:2", 12), ("zn:3", 8), ("heisenberg", 6)])
def test_cover_extension_serves_every_declared_extension(capsys, token, radius):
    code, body = run_json(
        capsys, "cover", "--method", "extension", "--group", token,
        "--radius", str(radius), "--lambda", "1",
    )
    assert code == 0
    stats = body["stats"]
    assert stats["multiplicity"] <= stats["multiplicity_bound"]
    assert stats["diameter"] <= stats["diameter_bound"]
    assert stats["lebesgue_safe"] >= stats["lebesgue_target"] == 1
    assert stats["safe_points"] > 0


@pytest.mark.parametrize(
    "token",
    ["zn", "free", "wreath:zn:1", "zn:x", "zn:0", "zn:-1", "free:-1", "cyclic:1", "wreath:zn:1:cyclic:0"],
)
def test_malformed_group_tokens_exit_2(capsys, token):
    code, body = run_json(capsys, "ball", "--group", token, "--radius", "1")
    assert code == 2
    assert body["type"] == "PreconditionFailed"
    assert body["token"] == token


def test_certify_a_tent_bounds(capsys):
    code, body = run_json(
        capsys, "certify-a", "--group", "zn:1", "--radius", "12",
        "--p", "inf", "--n", "2..4", "--K", "1",
    )
    assert code == 0
    assert body["audit"]["pass"]
    assert body["bounds"]["1"]["2"] == pytest.approx(0.5)
    assert body["bounds"]["1"]["4"] == pytest.approx(0.25)


def test_certify_a_cover_pipeline_with_conversion(capsys):
    code, body = run_json(
        capsys, "certify-a", "--group", "zn:1", "--radius", "20",
        "--p", "2", "--n", "2..3", "--K", "1,2", "--convert-to", "1",
    )
    assert code == 0
    assert body["p"] == 1
    assert body["audit"]["pass"]


def test_embed_command(capsys):
    code, body = run_json(
        capsys, "embed", "--group", "zn:1", "--radius", "30", "--p", "2",
        "--levels", "3,7,15", "--budget", "3",
    )
    assert code == 0
    assert body["audit"]["pass"]
    assert [e["level"] for e in body["selected"]] == [3, 7, 15]
    assert body["buckets"]
    for row in body["buckets"]:
        assert row["min"] >= row["rho_lower"] - 1e-9
        assert row["max"] <= row["rho_upper"] + 1e-9


def test_profile_emits_csv(capsys, tmp_path):
    csv_path = tmp_path / "profile.csv"
    out_path = tmp_path / "profile.json"
    code, out = run(
        capsys, "profile", "--group", "zn:1", "--lambda", "1..2",
        "--diam-policy", "0,4", "--radius", "6",
        "--csv", str(csv_path), "--out", str(out_path),
    )
    assert code == 0
    assert out.startswith("group,lambda,diam_budget,multiplicity,method")
    assert csv_path.read_text() == out
    stored = json.loads(out_path.read_text())
    assert stored["group"] == "zn:1"
    assert stored["rows"]


def test_gromov_command(capsys):
    code, out = run(
        capsys, "gromov", "--group", "zn:1", "--cap", "2",
        "--lambda", "1..3", "--radius", "10",
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 3


def test_distortion_command(capsys):
    code, body = run_json(capsys, "distortion", "--group", "heisenberg", "--radius", "8")
    assert code == 0
    assert body["pairs"]
    assert 0.3 < body["slope"] < 0.7
    for token in ("zn:1", "free:2"):
        code, body = run_json(capsys, "distortion", "--group", token, "--radius", "4")
        assert code == 2
        assert body["type"] == "PreconditionFailed"
        assert body["error"] == "distortion profiling needs a declared extension"
    # the last axis of Z^2 is undistorted
    code, body = run_json(capsys, "distortion", "--group", "zn:2", "--radius", "6")
    assert code == 0
    assert body["slope"] == 1.0


def test_reruns_are_byte_identical(capsys):
    argv = [
        "certify-a", "--group", "zn:1", "--radius", "12",
        "--p", "inf", "--n", "2..4", "--K", "1,2",
    ]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "x", [15.9999999999, 16.0, -2.0000000001, 0.1 + 0.2, 2.5, 1e-12, 1234567890.5, 1e20, float("inf")]
)
def test_canonical_json_is_idempotent(x):
    once = canonical_json({"x": x})
    assert canonical_json(json.loads(once)) == once


def test_canonical_json_prints_near_integers_as_integers():
    assert canonical_json([15.9999999999, 16.0, -2.0000000001]) == canonical_json([16, 16, -2])


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_argv_passes_its_check(capsys):
    checks, workloads = _benchmark_module("checks"), _benchmark_module("workloads")
    references = checks.load_references()
    for argv in workloads.all_commands():
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert checks.check(argv, out.encode(), references) == [], argv


def test_schedule_validation(capsys):
    code, body = run_json(
        capsys, "profile", "--group", "zn:1", "--lambda", "2,1",
        "--diam-policy", "0,4", "--radius", "6",
    )
    assert code == 2
    assert body["type"] == "PreconditionFailed"
    code, body = run_json(
        capsys, "certify-a", "--group", "zn:1", "--radius", "8",
        "--p", "0.5", "--n", "2..3", "--K", "1",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, key, text",
    [
        ("embed --group zn:1 --radius 20 --p 2 --levels a,b --budget 2", "text", "a,b"),
        ("certify-a --group zn:1 --radius 8 --p 2 --n 2..b --K 1", "text", "2..b"),
        ("profile --group zn:1 --lambda 1..2 --diam-policy x --radius 6", "text", "x"),
        ("certify-a --group zn:1 --radius 8 --p abc --n 2..3 --K 1", "text", "abc"),
        ("certify-a --group zn:1 --radius 8 --p nan --n 2..3 --K 1", "p", "nan"),
    ],
    ids=["levels", "range", "diam-policy", "p", "p-nan"],
)
def test_malformed_numbers_exit_2(capsys, argv, key, text):
    code, body = run_json(capsys, *argv.split())
    assert code == 2
    assert body["type"] == "PreconditionFailed"
    assert body[key] == text
    if key == "p":
        assert body["error"] == "p must lie in [1, inf]"


# scales outside the paper's ranges: lambda >= 0, levels n >= 1, K >= 1
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, error",
    [
        ("certify-a --group zn:1 --radius 8 --p 2 --n=0..2 --K 1", "levels start at 1"),
        ("certify-a --group zn:1 --radius 8 --p 2 --n=2..3 --K=-1,1", "displacements start at 1"),
        ("cover --method interval --group zn:1 --radius 4 --lambda -1", "lambda must be nonnegative"),
        ("cover --method bricks --group zn:1 --radius 4 --lambda -1", "lambda must be nonnegative"),
        ("cover --method extension --group zn:2 --radius 4 --lambda -1", "lambda must be nonnegative"),
        ("cover --method wreath --group lamplighter --radius 4 --lambda -1", "lambda must be nonnegative"),
        ("gromov --group zn:2 --cap 6 --lambda=-1,1 --radius 6", "schedule below its least value"),
        ("gromov --group heisenberg --cap 6 --lambda=-1,1 --radius 6", "schedule below its least value"),
        ("profile --group zn:1 --lambda=-1,1 --diam-policy 0,4 --radius 6", "schedule below its least value"),
    ],
)
def test_scales_out_of_range_exit_2(capsys, argv, error):
    code, body = run_json(capsys, *argv.split())
    assert code == 2
    assert body["type"] == "PreconditionFailed"
    assert body["error"] == error


def test_every_option_is_read_and_every_read_is_an_option():
    # commands read the parsed namespace as ``args``; a misspelt option
    # name would otherwise fail only on the path that reads it
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = set()
    for sub in subs.choices.values():
        declared |= {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        declared |= set(sub._defaults)
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            assert [a.arg for a in node.args.args] == ["args"], node.name
    reads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    assert reads == declared


def test_the_environment_sets_no_ball_cap():
    argv = [sys.executable, "-m", "coarsekit.cli", "ball", "--group", "zn:1", "--radius", "5"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    plain = subprocess.run(argv, env=env, capture_output=True, text=True)
    capped = subprocess.run(argv, env={**env, "COARSEKIT_BALL_CAP": "3"}, capture_output=True, text=True)
    assert plain.returncode == capped.returncode == 0
    assert capped.stdout == plain.stdout


def test_readme_examples_exit_0(capsys, monkeypatch, tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [line.split()[1:] for line in block.splitlines() if line.startswith("coarsekit ")]
    assert len(examples) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_unknown_flag_is_fatal(capsys):
    with pytest.raises(SystemExit):
        main(["ball", "--group", "zn:1", "--radius", "2", "--frobnicate"])


def test_ball_cap_exit_code(capsys):
    code, body = run_json(
        capsys, "ball", "--group", "free:2", "--radius", "12", "--ball-cap", "1000",
    )
    assert code == 3
    assert body["type"] == "BallTooLarge"


def test_wreath_ball_cap_counts_the_window(capsys):
    # the 155 points of the lamplighter r6 window fit 300; 100 trips in the
    # layer after radius 5
    argv = ("ball", "--group", "lamplighter", "--radius", "6")
    code, body = run_json(capsys, *argv, "--ball-cap", "300")
    assert code == 0
    assert len(body["points"]) == 155
    code, body = run_json(capsys, *argv, "--ball-cap", "100")
    assert code == 3
    assert body["type"] == "BallTooLarge"
    assert (body["group"], body["cap"], body["radius_reached"]) == ("wreath:zn:1:cyclic:2", 100, 5)


@pytest.mark.parametrize("token, base", [
    ("wreath:zn:2:cyclic:2", "zn:2"),
    ("wreath:cyclic:3:cyclic:2", "cyclic:3"),
    ("wreath:heisenberg:cyclic:2", "heisenberg"),
])
def test_wreath_over_a_non_tree_base_is_refused(capsys, token, base):
    code, body = run_json(capsys, "ball", "--group", token, "--radius", "2")
    assert code == 2
    assert body["type"] == "PreconditionFailed"
    assert body["error"] == "wreath products need a base whose Cayley graph is a tree"
    assert body["base"] == base


def test_extension_cover_lists_no_r_ball_under_the_cap(capsys):
    # membership reads the declared metric, so only the window's own BFS
    # counts against the cap: 593 points fit 1000 (R = 10 lists no ball)
    # and trip 500
    argv = ("cover", "--method", "extension", "--group", "heisenberg", "--radius", "6", "--lambda", "1")
    assert len(groups.ball_space(group_from_token("heisenberg"), 6)) == 593
    code, body = run_json(capsys, *argv, "--ball-cap", "1000")
    assert code == 0
    assert body == run_json(capsys, *argv)[1]
    code, body = run_json(capsys, *argv, "--ball-cap", "500")
    assert code == 3
    assert body["type"] == "BallTooLarge"
    assert body["error"] == "ball enumeration exceeded cap"
    assert (body["group"], body["cap"], body["radius_reached"]) == ("heisenberg", 500, 5)


# the 593-point ball validates on sampled triples, and gromov r9 builds a
# 2,845-point window, a quotient and a kernel
@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "--group", "heisenberg", "--radius", "6"],
        ["gromov", "--group", "heisenberg", "--cap", "6", "--lambda", "1..2", "--radius", "9"],
    ],
)
def test_cli_commands_leave_numpy_random_unimported(argv):
    probe = (
        "import contextlib, io, sys\n"
        "from coarsekit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]


def test_interval_cover_leaves_numpy_ma_unimported(tmp_path):
    out_path = tmp_path / "cover.json"
    argv = ["cover", "--method", "interval", "--group", "zn:1", "--radius", "20", "--lambda", "2", "--out", str(out_path)]
    probe = (
        "import sys\n"
        "from coarsekit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True)
    *payload, flags = out.stdout.strip().split("\n")
    assert flags.split() == ["0", "False"]
    stats = {"boundary_margin": 0, "diameter": 7, "lebesgue_pointwise": 3, "multiplicity": 2}
    assert json.loads("\n".join(payload))["stats"] == stats
    # blocks of 4 lam = 8 at offsets 0 and 2 lam, members in window order
    window = sorted(range(-20, 21), key=lambda x: (abs(x), x))
    expected = [
        (f"I{k}.{key}", [f"({x})" for x in window if (x - offset) // 8 == key])
        for k, offset in enumerate((0, 4))
        for key in sorted({(x - offset) // 8 for x in window})
    ]
    body = json.loads(out_path.read_text())
    assert list(zip(body["labels"], body["sets"])) == expected


def test_cli_import_loads_no_scipy():
    probe = "import coarsekit.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
