import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pcgap
from pcgap import cli
from pcgap.cli import COMMANDS, EXIT_CONFIG, EXIT_DEGENERATE, EXIT_IO, EXIT_OK, main
from pcgap.core import LabeledPointCloud, SemanticClass
from pcgap.dataset import ClassEval, EvalReport
from pcgap.io import FORMAT_XYZL, read_cloud, read_report, write_cloud, write_report
from pcgap.metric import MetricParams, dogss_pcl

from conftest import build_street_scene, random_cloud, room_mesh_obj_text


@pytest.fixture(autouse=True)
def no_temp_file_left(tmp_path):
    """No command, failed or not, leaves an output's temp file behind."""
    yield
    assert sorted(tmp_path.rglob(".*.tmp")) == []


@pytest.fixture()
def scene_files(tmp_path):
    real = build_street_scene(70, scale=0.02)
    synth = build_street_scene(71, scale=0.02)
    real_path = tmp_path / "real.xyzl"
    synth_path = tmp_path / "synth.xyzl"
    write_cloud(real, real_path, FORMAT_XYZL)
    write_cloud(synth, synth_path, FORMAT_XYZL)
    return real_path, synth_path, real, synth


@pytest.fixture()
def small_inputs(tmp_path):
    """Inputs on which every command below runs, and the argv of each; the
    fresh-interpreter tests run them all with finite flags."""
    rng = np.random.default_rng(74)
    cloud = tmp_path / "c.xyzl"
    write_cloud(random_cloud(rng, 10, classes=(1, 2, 6)), cloud, FORMAT_XYZL)
    (tmp_path / "c.xyzl.origins").write_text("0 0 0\n" * 10)
    (tmp_path / "pred.txt").write_text("1\n" * 10)
    street = tmp_path / "street.xyzl"
    write_cloud(build_street_scene(73, scale=0.02), street, FORMAT_XYZL)
    (tmp_path / "room.obj").write_text(room_mesh_obj_text())
    (tmp_path / "traj.json").write_text(json.dumps([
        {"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
        {"t": 0.1, "x": 3.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
    ]))
    out = str(tmp_path / "out" / "o.xyzl")
    return {
        "compare": ["compare", "--real", str(street), "--synthetic", str(street),
                    "--out", str(tmp_path / "out" / "gap.json")],
        "simulate": ["simulate", "--mesh", str(tmp_path / "room.obj"), "--trajectory",
                     str(tmp_path / "traj.json"), "--seed", "1", "--out", out],
        "noise": ["noise", "--cloud", str(cloud), "--seed", "1", "--out", out],
        "mix": ["mix", "--real", str(cloud), "--synthetic", str(cloud), "--fraction", "0.5",
                "--count", "10", "--seed", "1", "--out", out],
        "eval-seg": ["eval-seg", "--truth", str(cloud), "--pred", str(tmp_path / "pred.txt"),
                     "--out", str(tmp_path / "out" / "eval.json")],
    }


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("simulate", "--sigma", "nan"),
        ("noise", "--sigma", "nan"),
        ("noise", "--sigma", "inf"),
        ("mix", "--fraction", "nan"),
        ("eval-seg", "--ratio", "nan"),
        ("compare", "--offset", "nan"),
        ("compare", "--offset", "0,inf"),
        ("compare", "--offset", ", ,"),
        ("compare", "--offset", "0,x"),
        ("compare", "--alpha", "-inf"),
        ("compare", "--voxel-size", "nan"),
        # finite but out of range
        ("simulate", "--sigma", "-1"),
        ("noise", "--sigma", "-0.5"),
        ("eval-seg", "--ratio", "-0.1"),
        ("eval-seg", "--ratio", "1.5"),
        ("mix", "--fraction", "1.5"),
        ("mix", "--fraction", "-0.1"),
        ("mix", "--count", "-3"),
        ("mix", "--count", "0"),
        ("compare", "--seed", "-1"),
        ("simulate", "--seed", "-1"),
        ("mix", "--seed", "-2"),
        # finite, but the draw leaves the float range or the address space
        ("simulate", "--sigma", "1e308"),
        ("mix", "--count", "1000000000000000"),
    ],
)
def test_non_finite_flag_exit_2(tmp_path, small_inputs, capsys, command, flag, value):
    (tmp_path / "out").mkdir()
    code = main(small_inputs[command] + [f"{flag}={value}"])
    assert code == EXIT_CONFIG
    assert flag in json.loads(capsys.readouterr().err)["error"]
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command,flag,value,message", [
    ("noise", "--sigma", "-0.5", "--sigma: must be >= 0, got -0.5"),
    ("mix", "--count", "0", "--count: must be >= 1, got 0"),
    ("eval-seg", "--ratio", "1.5", "--ratio: must be in [0, 1], got 1.5"),
    ("compare", "--alpha", "-inf", "--alpha: must be finite, got -inf"),
])
def test_flag_refusal_names_flag_and_rule(tmp_path, small_inputs, capsys, command, flag, value, message):
    assert main(small_inputs[command] + [f"{flag}={value}"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == message


def test_simulate_sigma_zero_changes_no_byte(tmp_path, small_inputs):
    (tmp_path / "out").mkdir()
    argv = small_inputs["simulate"]
    out = Path(argv[-1])
    assert main(argv) == EXIT_OK
    plain = out.read_bytes(), Path(f"{out}.origins").read_bytes()
    assert main(argv + ["--sigma", "0"]) == EXIT_OK
    assert (out.read_bytes(), Path(f"{out}.origins").read_bytes()) == plain


def json_input_argv(tmp_path, small_inputs, flag, path):
    """The argv of a command that reads the JSON file ``path``: through
    ``flag``, or as its input when ``flag`` is ``report``."""
    return {
        "--config": small_inputs["compare"] + ["--config", str(path)],
        "--trajectory": small_inputs["simulate"] + ["--trajectory", str(path)],
        "--scan-config": small_inputs["simulate"] + ["--scan-config", str(path)],
        "--spec": ["split", "--cloud", str(tmp_path / "c.xyzl"), "--spec", str(path),
                   "--out-dir", str(tmp_path / "out" / "parts")],
        "report": ["report", str(path), "--out", str(tmp_path / "out" / "summary.csv")],
    }[flag]


@pytest.mark.parametrize("flag,content", [
    pytest.param(flag, content, id=flag + suffix)
    for suffix, content in (("", b"{nope"), ("-not-utf8", b"\xff\xfe{}"))
    for flag in ("--config", "--trajectory", "--scan-config", "--spec")
])
def test_invalid_json_exit_2(tmp_path, small_inputs, capsys, flag, content):
    (tmp_path / "out").mkdir()
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(json_input_argv(tmp_path, small_inputs, flag, bad)) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{bad}: invalid JSON")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="this Python reads a 5,000-digit integer")
@pytest.mark.parametrize("flag", ["--config", "--scan-config", "--trajectory", "--spec", "report"])
def test_json_integer_past_the_digit_limit_names_the_file(tmp_path, small_inputs, capsys, flag):
    """An integer literal longer than Python converts is invalid JSON naming its file."""
    (tmp_path / "out").mkdir()
    big = tmp_path / "big.json"
    big.write_text('{"a": ' + "1" * 5000 + "}")
    code = main(json_input_argv(tmp_path, small_inputs, flag, big))
    assert code == (EXIT_IO if flag == "report" else EXIT_CONFIG)
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{big}: invalid JSON: ") and "digits" in error
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("flag", ["--config", "--scan-config", "--trajectory", "--spec", "report"])
def test_json_nested_too_deeply_exits_with_one_error_line(tmp_path, small_inputs, capsys, flag):
    """JSON nested deeper than the parser recurses is invalid JSON naming its file, not a traceback."""
    (tmp_path / "out").mkdir()
    deep, depth = tmp_path / "deep.json", 100_000
    deep.write_text('{"a": ' * depth + "1" + "}" * depth if flag == "--spec" else "[" * depth + "]" * depth)
    code = main(json_input_argv(tmp_path, small_inputs, flag, deep))
    err = capsys.readouterr().err
    assert code == (EXIT_IO if flag == "report" else EXIT_CONFIG)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"].startswith(f"{deep}: invalid JSON: maximum recursion depth exceeded")
    assert list((tmp_path / "out").iterdir()) == []


def test_simulate_trajectory_without_samples_exit_2_naming_the_file(tmp_path, small_inputs, capsys):
    (tmp_path / "out").mkdir()
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert main(small_inputs["simulate"] + ["--trajectory", str(path)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == f"{path}: trajectory needs a non-empty array of samples"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("case", ["compare", "compare-manifest", "simulate", "noise", "mix", "mix-provenance",
                                  "split", "eval-seg", "report"])
def test_output_naming_an_input_exit_2_before_any_input_is_read(monkeypatch, tmp_path, small_inputs, capsys,
                                                                 case):
    """An output (``--out``, its manifest or a sidecar) that names an input's file, by any
    path, is refused naming both, before any cloud or mesh is read; no file changes."""
    t = tmp_path
    (t / "sub").mkdir()
    (t / "spec.json").write_text(json.dumps({"regions": [{"name": "c", "rect": [-99, -99, 99, 99]}]}))
    (t / "gap.json").write_text("{}")
    (t / "cfg.manifest.json").write_text("{}")
    (t / "m.provenance.txt").write_bytes((t / "c.xyzl").read_bytes())
    onto = lambda command, path: small_inputs[command][:-1] + [str(path)]  # each argv ends with --out
    argv, flag, other = {
        "compare": (onto("compare", t / "sub" / ".." / "street.xyzl"), "--out", "--real"),
        "compare-manifest": (onto("compare", t / "cfg") + ["--config", str(t / "cfg.manifest.json")],
                             "--out's manifest", "--config"),
        "simulate": (onto("simulate", t / "traj.json"), "--out", "--trajectory"),
        "noise": (onto("noise", t / "c.xyzl.origins") + ["--sigma", "0.5"], "--out", "--origins"),
        "mix": (onto("mix", t / "c.xyzl"), "--out", "--real"),
        "mix-provenance": (onto("mix", t / "m") + ["--real", str(t / "m.provenance.txt")],
                           "--out's provenance", "--real"),
        "split": (["split", "--cloud", str(t / "c.xyzl"), "--spec", str(t / "spec.json"), "--out-dir", str(t)],
                  "region 'c'", "--cloud"),
        "eval-seg": (onto("eval-seg", t / "pred.txt"), "--out", "--pred"),
        "report": (["report", str(t / "gap.json"), "--out", str(t / "gap.json")], "--out",
                   f"report input {t / 'gap.json'}"),
    }[case]
    before = {p: p.read_bytes() for p in t.rglob("*") if p.is_file()}
    reads = _record_reads(monkeypatch)
    assert main(argv) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{flag} ") and error.endswith(f" names the same file as {other}")
    assert reads == [] and {p: p.read_bytes() for p in t.rglob("*") if p.is_file()} == before


def _samples(**second):
    """The two-sample trajectory of ``small_inputs``, with fields of the
    second sample replaced."""
    return [{"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
            {"t": 0.2, "x": 3.0, "y": 4.0, "z": 1.5, "yaw": 0.0, **second}]


@pytest.mark.parametrize("flag,doc,key", [
    ("--scan-config", {"channels": 2.5}, "channels"),
    ("--scan-config", {"channels": True}, "channels"),
    ("--scan-config", {"points_per_second": "20000"}, "points_per_second"),
    ("--scan-config", {"sensor_offset": [1, 2]}, "sensor_offset"),
    ("--scan-config", {"sensor_offset": [math.nan, 0, 0]}, "sensor_offset[0]"),
    ("--scan-config", {"max_range_m": math.nan}, "max_range_m"),
    ("--scan-config", {"vertical_fov_deg": [-25, math.inf]}, "vertical_fov_deg[1]"),
    ("--scan-config", [], "scan config root"),
    ("--trajectory", _samples(x=math.nan), "[1].x"),
    ("--trajectory", _samples(yaw=math.inf), "[1].yaw"),
    ("--trajectory", _samples(t="0.2"), "[1].t"),
    ("--trajectory", _samples(z=None), "[1].z"),
    ("--trajectory", [_samples()[0], 7], "[1]"),
    ("--scan-config", {"max_range_m": 10**400}, "max_range_m"),
    ("--trajectory", _samples(z=-10**400), "[1].z"),
    # more rays than any address space holds: the allocation fails at once
    ("--scan-config", {"points_per_second": 10**15, "channels": 4}, "points_per_second"),
    ("--trajectory", _samples(yaw_deg=90), "[1].yaw_deg"),
])
def test_simulate_bad_scan_config_or_trajectory_exit_2(tmp_path, small_inputs, capsys,
                                                         flag, doc, key):
    (tmp_path / "out").mkdir()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
    assert main(small_inputs["simulate"] + [flag, str(path)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: {key}: ")
    assert list((tmp_path / "out").iterdir()) == []


def _record_reads(monkeypatch) -> list:
    """The paths that the CLI's cloud and mesh readers are called on, from now."""
    reads = []
    for name in ("read_cloud", "read_mesh"):
        read = getattr(pcgap.io, name)
        monkeypatch.setattr(pcgap.io, name, lambda path, *args, read=read: reads.append(path) or read(path, *args))
    return reads


@pytest.mark.parametrize("command,flag,doc,key", [
    ("compare", "--config",
     {"lambda_validation": "relaxed", "eq3_weight_mode": "renormalized", "lambda1": 0, "lambda2": 0},
     "lambda1+lambda2"),
    # 64 channels at 10 Hz need 640 points a second for one firing step per turn
    ("simulate", "--scan-config", {"points_per_second": 639}, "points_per_second"),
    # each length the M3C2 gathers derive must be finite; the key is followed by its rule
    pytest.param("compare", "--config", {"m3c2": {"max_depth_m": 1.7e308}},
                 "m3c2.max_depth_m: 2 * max_depth_m", id="m3c2-axis-span"),
    pytest.param("compare", "--config", {"m3c2": {"projection_radius_m": 1e-320}},
                 "m3c2.projection_radius_m: max_depth_m / projection_radius_m", id="m3c2-slab-ratio"),
    pytest.param("compare", "--config", {"m3c2": {"projection_radius_m": 1.7e308}},
                 "m3c2.projection_radius_m: 4 * hypot(projection_radius_m, max_depth_m)",
                 id="m3c2-cylinder-ball"),
    pytest.param("compare", "--config", {"m3c2": {"normal_scale_m": 1.7e308}},
                 "m3c2.normal_scale_m: 4 * normal_scale_m", id="m3c2-normal-ball"),
])
def test_config_only_error_exit_2_before_any_input_is_read(monkeypatch, tmp_path, small_inputs, capsys,
                                                            command, flag, doc, key):
    (tmp_path / "out").mkdir()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    reads = _record_reads(monkeypatch)
    assert main(small_inputs[command] + [flag, str(path)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{path}: {key}: ")
    assert reads == [] and list((tmp_path / "out").iterdir()) == []


def test_simulate_noise_without_seed_exit_2_before_any_input_is_read(monkeypatch, tmp_path, small_inputs,
                                                                     capsys):
    argv = small_inputs["simulate"]
    del argv[argv.index("--seed"):argv.index("--seed") + 2]
    reads = _record_reads(monkeypatch)
    assert main(argv + ["--sigma", "0.05"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"].startswith("--seed is required")
    assert reads == [] and not (tmp_path / "out").exists()


def test_m3c2_depth_of_1e300_m_still_runs(tmp_path, small_inputs):
    (tmp_path / "out").mkdir()
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"m3c2": {"max_depth_m": 1e300}}))
    assert main(small_inputs["compare"] + ["--config", str(path)]) == EXIT_OK


def _run_fresh(argvs) -> list[str]:
    """Run CLI calls in a fresh interpreter that imports pcgap from this
    source tree; return the scipy modules loaded when they are done."""
    src = str(Path(pcgap.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import json, sys\n"
        "import pcgap.cli\n"
        "pcgap.cli.build_parser()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if pcgap.cli.main(argv) != 0:\n"
        "        raise SystemExit(f'{argv} failed')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_without_a_kd_tree_never_import_scipy(tmp_path, small_inputs):
    (tmp_path / "out").mkdir()
    eval_json = small_inputs["eval-seg"][-1]
    assert _run_fresh([
        small_inputs["simulate"],
        small_inputs["noise"] + ["--sigma", "0.01"],
        small_inputs["mix"],
        small_inputs["eval-seg"] + ["--ratio", "0.5"],
        ["report", eval_json, "--out", str(tmp_path / "out" / "eval.csv")],
    ]) == []


def test_compare_in_a_fresh_interpreter_matches_in_process(tmp_path, small_inputs):
    (tmp_path / "out").mkdir()
    fresh, here = tmp_path / "out" / "fresh.json", tmp_path / "out" / "here.json"
    argv = small_inputs["compare"][:-1]  # ends with --out
    assert "scipy.spatial" in _run_fresh([argv + [str(fresh), "--offset", "0,0.1"]])
    assert main(argv + [str(here), "--offset", "0,0.1"]) == EXIT_OK
    for suffix in ("", ".manifest.json"):
        assert Path(f"{fresh}{suffix}").read_bytes() == Path(f"{here}{suffix}").read_bytes()


def _refused_ply(tmp_path) -> Path:
    path = tmp_path / "real.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex -1\nproperty double x\nproperty double y\n"
                    "property double z\nproperty uchar class_id\nend_header\n")
    return path


def test_compare_on_a_refused_ply_header_exit_3_naming_its_line(tmp_path, small_inputs, capsys):
    (tmp_path / "out").mkdir()
    path = _refused_ply(tmp_path)
    argv = small_inputs["compare"]
    argv[argv.index("--real") + 1] = str(path)
    assert main(argv) == EXIT_IO
    assert json.loads(capsys.readouterr().err) == {"error": f"{path}:3: negative element count",
                                                   "exit_code": EXIT_IO}
    assert list((tmp_path / "out").iterdir()) == []


def test_module_entry_point_passes_the_exit_code_on(tmp_path):
    """``python -m pcgap.cli`` exits with what ``main`` returns."""
    src = str(Path(pcgap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "pcgap.cli", *argv], capture_output=True, text=True,
                              timeout=120, env=env)

    done = run("--version")
    assert done.returncode == 0 and done.stdout == f"pcgap {pcgap.__version__}\n"
    path = _refused_ply(tmp_path)
    done = run("compare", "--real", str(path), "--synthetic", str(path), "--out", str(tmp_path / "gap.json"))
    assert done.returncode == EXIT_IO and len(done.stderr.splitlines()) == 1
    assert json.loads(done.stderr) == {"error": f"{path}:3: negative element count", "exit_code": EXIT_IO}


#: argv whose parse, output and exit code must not depend on which subparsers a call builds
_PARSER_CASES = {
    "valid": ["report", "gap.json", "--out", "s.csv"],
    "missing-required": ["report", "gap.json"],
    "bad-type": ["noise", "--cloud", "c.xyzl", "--sigma", "x", "--seed", "1", "--out", "n.xyzl"],
    "bad-choice": ["compare", "--real", "c.xyzl", "--synthetic", "c.xyzl", "--out", "g.json",
                   "--c2c-mode", "bogus"],
    "unrecognized-extra": ["report", "gap.json", "--out", "s.csv", "--bogus"],
    **{f"help-{name}": [name, "-h"] for name in COMMANDS},
    "help": ["-h"],
    "bare": [],
    "version": ["--version"],
    "version-before-command": ["--version", "compare"],
    "unknown-command": ["bogus"],
    "abbreviated-flag": ["mix", "--re", "no.xyzl", "--synth", "no.xyzl", "--fraction", "0.5", "--count", "4",
                         "--seed", "1", "--out", "m.xyzl"],
    "help-before-command": ["-h", "report"],
    "dash-before-command": ["-", "report"],
    "unknown-option-before-command": ["-x", "report", "gap.json", "--out", "s.csv"],
    "top-level-flag-after-command": ["report", "--version"],
}


def _gap_json(tmp_path) -> Path:
    """A gap report as ``report`` reads it."""
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"report_type": "gap", "m_dogss_pcl": 0.5, "d": 0.25, "d_mm3c2": 0.125,
                                "d_c2c": 0.125, "miou": 0.5, "f_miou": 1.0}))
    return path


@pytest.mark.parametrize("columns", ["40", "200"])  # wrapped and unwrapped usage lines
@pytest.mark.parametrize("case", list(_PARSER_CASES))
def test_a_call_parses_and_prints_as_the_full_parser_does(monkeypatch, tmp_path, capsys, case, columns):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", columns)
    _gap_json(tmp_path)
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: parsed.append(parse_args(self, *a, **k)) or parsed[-1])
    results = []
    # main as it is, then with every subcommand built
    for build in (cli.build_parser, lambda command=None, full=cli.build_parser: full()):
        monkeypatch.setattr(cli, "build_parser", build)
        try:
            code = main(list(_PARSER_CASES[case]))
        except SystemExit as exc:
            code = exc.code
        results.append((parsed[:], *capsys.readouterr(), code))  # the Namespace, when parsing did not exit
        parsed.clear()
    assert results[0] == results[1]


#: The top-level parser's error for a case of _PARSER_CASES
_TOP_LEVEL_ERRORS = {
    "bare": "the following arguments are required: command",
    "unknown-command": "argument command: invalid choice: 'bogus'",
    "unrecognized-extra": "unrecognized arguments: --bogus",
}


@pytest.mark.parametrize("case", list(_TOP_LEVEL_ERRORS))
def test_a_top_level_error_names_the_command_and_lists_every_subcommand(monkeypatch, tmp_path, capsys, case):
    monkeypatch.chdir(tmp_path)
    _gap_json(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(_PARSER_CASES[case]))
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_CONFIG and f"pcgap: error: {_TOP_LEVEL_ERRORS[case]}" in err
    assert "{" + ",".join(COMMANDS) + "}" in err


def test_a_call_builds_only_its_own_subcommand(monkeypatch, tmp_path):
    calls = {"add_parser": 0, "add_argument": 0}

    def counted(owner, name):
        method = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    counted(argparse._SubParsersAction, "add_parser")
    counted(argparse.ArgumentParser, "add_argument")
    assert main(["report", str(_gap_json(tmp_path)), "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    assert calls["add_parser"] == 1 and calls["add_argument"] <= 6  # -h and --version, -h and report's 3
    calls["add_parser"] = 0
    assert list(_subparsers(cli.build_parser()).choices) == list(COMMANDS) and calls["add_parser"] == len(COMMANDS)


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("command", COMMANDS)
def test_the_full_parser_holds_every_flag_of_each_subcommand(command):
    def flags(parser):
        return [(a.option_strings, a.dest, a.required, a.type, a.choices, a.default, a.nargs, a.help)
                for a in _subparsers(parser).choices[command]._actions]

    full = flags(cli.build_parser())
    assert len(full) > 1 and full == flags(cli.build_parser(command))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("command,alias", [
    ("compare", "street.xyzl"),
    ("simulate", "traj.json"),
    ("noise", "c.xyzl"),
    ("mix", "c.xyzl"),
    ("eval-seg", "pred.txt"),
    ("split", "c.xyzl"),
])
def test_manifest_records_inputs_as_read(tmp_path, small_inputs, command, alias):
    """An ``--out`` that overwrites an input leaves that input's digest, as
    read, in the manifest. The output names the input's file by a second
    name, a hard link, which is written in place: the input's own path is refused."""
    (tmp_path / "spec.json").write_text(json.dumps({"regions": [
        {"name": "c", "rect": [-99, -99, 0, 99]}, {"name": "d", "rect": [0, -99, 99, 99]}]}))
    argvs = dict(small_inputs, noise=["noise", "--sigma", "0.5"] + small_inputs["noise"][1:],
                 split=["split", "--cloud", str(tmp_path / "c.xyzl"), "--spec",
                        str(tmp_path / "spec.json"), "--out-dir", str(tmp_path)])
    argv = argvs[command]
    read, written = tmp_path / alias, tmp_path / f"{alias}.link"
    os.link(read, written)
    if command == "split":  # region c writes c.xyzl; --cloud reads it by its link
        read, written = written, read
        argv[argv.index("--cloud") + 1] = str(read)
    else:
        argv = argv[:-1] + [str(written)]  # each argv ends with --out
    before = _sha256(read)
    assert main(argv) == EXIT_OK
    assert _sha256(read) != before
    manifest = tmp_path / ("split.manifest.json" if command == "split" else f"{written.name}.manifest.json")
    assert json.loads(manifest.read_text())["inputs"][str(read)] == before


_opened = None  # the paths opened while a test records them, resolved


def _record_open(event, args):
    if event == "open" and _opened is not None and isinstance(args[0], (str, bytes, os.PathLike)):
        _opened.append(os.path.realpath(os.fsdecode(args[0])))


sys.addaudithook(_record_open)  # audit hooks see every open, however it is made


def test_eval_seg_opens_each_input_once(tmp_path, small_inputs):
    """The digests in the manifest are of the bytes the readers parsed, so
    no input is opened a second time to hash it."""
    global _opened
    argv = small_inputs["eval-seg"]
    inputs = [argv[argv.index(flag) + 1] for flag in ("--truth", "--pred")]
    (tmp_path / "out").mkdir()
    _opened = []
    try:
        assert main(argv) == EXIT_OK
        opened = _opened
    finally:
        _opened = None
    assert [opened.count(os.path.realpath(path)) for path in inputs] == [1, 1]
    manifest = json.loads(Path(argv[-1] + ".manifest.json").read_text())
    assert manifest["inputs"] == {path: _sha256(path) for path in inputs}


@pytest.mark.parametrize("command,what", [
    ("compare", "report"), ("simulate", "cloud"), ("noise", "cloud"), ("mix", "cloud"),
    ("eval-seg", "report"), ("report", "summary"),
])
def test_out_in_a_missing_directory_exit_3(tmp_path, small_inputs, capsys, command, what):
    out = tmp_path / "missing" / "o.out"
    eval_json = tmp_path / "eval.json"
    assert main(small_inputs["eval-seg"][:-1] + [str(eval_json)]) == EXIT_OK
    argvs = dict(small_inputs, noise=["noise", "--sigma", "0.1"] + small_inputs["noise"][1:],
                 report=["report", str(eval_json), "--out", "x"])
    assert main(argvs[command][:-1] + [str(out)]) == EXIT_IO
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"cannot write {what} to {out}: No such file or directory"


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_output_refused_exit_3(tmp_path, small_inputs, capsys):
    out = tmp_path / "eval.json"
    out.write_text("old\n")
    out.chmod(0o444)
    assert main(small_inputs["eval-seg"][:-1] + [str(out)]) == EXIT_IO
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"cannot write report to {out}: Permission denied"
    assert out.read_text() == "old\n"


def _bench_commands(work: Path) -> list[list[str]]:
    """Small inputs in ``work`` for the nine commands the benchmark times,
    and their argvs, with paths relative to ``work``."""
    write_cloud(build_street_scene(70, scale=0.02), work / "real.ply")
    write_cloud(build_street_scene(71, scale=0.02), work / "synth.ply")
    write_cloud(build_street_scene(70, scale=0.02), work / "real.xyzl")
    write_cloud(build_street_scene(71, scale=0.02), work / "synth.xyzl")
    n = len(read_cloud(work / "real.xyzl"))
    (work / "pred.txt").write_text("".join(f"{k % 12 + 1}\n" for k in range(n)))
    (work / "split.json").write_text(json.dumps({"regions": [
        {"name": "west", "rect": [-1, -1, 10, 21]}, {"name": "east", "rect": [10, -1, 21, 21]}]}))
    (work / "room.obj").write_text(room_mesh_obj_text())
    (work / "ground.obj").write_text(
        "g GroundSurface\nv -9 -9 0\nv 9 -9 0\nv 9 9 0\nv -9 9 0\nf 1 2 3 4\n"
        "g RoadSurface\nv -9 -1 0.01\nv 9 -1 0.01\nv 9 1 0.01\nv -9 1 0.01\nf 5 6 7 8\n")
    scan = {"channels": 8, "vertical_fov_deg": [-30, 10], "points_per_second": 8000}
    (work / "scan.json").write_text(json.dumps(scan))
    for name, (x0, x1) in {"ground": (-3.0, 3.0), "room": (2.0, 8.0)}.items():
        (work / f"{name}_traj.json").write_text(json.dumps([
            {"t": 0.0, "x": x0, "y": 4.0 if name == "room" else 0.0, "z": 1.5, "yaw": 0.1},
            {"t": 0.3, "x": x1, "y": 3.5 if name == "room" else 0.0, "z": 1.4, "yaw": -0.1},
        ]))
    simulate = ["simulate", "--scan-config", "scan.json", "--mesh"]
    return [
        ["compare", "--real", "real.ply", "--synthetic", "synth.ply", "--out", "gap.json"],
        ["compare", "--real", "real.ply", "--synthetic", "synth.ply", "--offset", "0,0.1,0.3",
         "--out", "series.json"],
        ["report", "gap.json", "series.json", "--out", "summary.csv", "--plot-data", "plot.json"],
        simulate + ["ground.obj", "--trajectory", "ground_traj.json", "--out", "ground.xyzl"],
        simulate + ["room.obj", "--trajectory", "room_traj.json", "--out", "room.xyzl"],
        ["noise", "--cloud", "room.xyzl", "--sigma", "0.02", "--seed", "3", "--out", "noisy.xyzl"],
        ["mix", "--real", "real.xyzl", "--synthetic", "synth.xyzl", "--fraction", "0.5",
         "--count", "900", "--seed", "3", "--out", "mix.xyzl"],
        ["split", "--cloud", "real.xyzl", "--spec", "split.json", "--out-dir", "parts"],
        ["eval-seg", "--truth", "real.xyzl", "--pred", "pred.txt", "--out", "eval.json"],
    ]


def test_benchmark_trace_targets_resolve():
    """Every pcgap name the benchmark's per-layer spans patch still exists,
    so that no per-layer metric reads zero because its name went away."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install({name: importlib.import_module(name) for name, *_ in tracer.TARGETS})
    finally:
        t.uninstall()
    # a stale entry for a method pcgap no longer has
    assert t.absent == ["pcgap.spatial.NnIndex.count_within_radius_many"]


def _tree(work: Path) -> dict:
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}


def test_rerun_over_existing_outputs_equals_a_fresh_run(tmp_path, monkeypatch):
    """Every file the benchmark's nine commands leave is the same, byte for
    byte, after one run into an empty directory and after two runs."""
    trees = []
    for name, runs in (("fresh", 1), ("rerun", 2)):
        work = tmp_path / name
        work.mkdir()
        argvs = _bench_commands(work)
        monkeypatch.chdir(work)
        for _ in range(runs):
            for argv in argvs:
                assert main(argv) == EXIT_OK, argv
        trees.append(_tree(work))
    assert len(trees[0]) == 33  # 11 inputs; 22 outputs and manifests
    assert trees[0] == trees[1]


# A config that sets every key to a non-default, integer-valued number or
# mode, and the manifest ``config`` text it gives, byte for byte: numbers
# are echoed as floats, the seed as an integer.
_FULL_CONFIG = {
    "voxel_size_m": 1, "lambda1": 1, "lambda2": 2, "lambda3": 0, "alpha": -1, "epsilon": 1,
    "class_weights": {"WallSurface": 1},
    "m3c2": {"normal_scale_m": 1, "projection_radius_m": 1, "max_depth_m": 2},
    "c2c_mode": "symmetric-max", "eq3_weight_mode": "renormalized",
    "lambda_validation": "relaxed", "seed": 7,
}
_FULL_CONFIG_TEXT = """{
    "alpha": -1.0,
    "c2c_mode": "symmetric-max",
    "class_weights": {
      "WallSurface": 1.0
    },
    "epsilon": 1.0,
    "eq3_weight_mode": "renormalized",
    "lambda1": 1.0,
    "lambda2": 2.0,
    "lambda3": 0.0,
    "lambda_validation": "relaxed",
    "m3c2": {
      "max_depth_m": 2.0,
      "normal_scale_m": 1.0,
      "projection_radius_m": 1.0
    },
    "seed": 7,
    "voxel_size_m": 1.0
  }"""
_DEFAULT_CONFIG_TEXT = """{
    "alpha": -0.2,
    "c2c_mode": "directed-max",
    "class_weights": {
      "BuildingInstallation": 0.15,
      "CityFurniture": 0.1,
      "Door": 0.15,
      "GroundSurface": 0.1,
      "RoofSurface": 0.15,
      "WallSurface": 0.2,
      "Window": 0.15
    },
    "epsilon": 1e-06,
    "eq3_weight_mode": "as-given",
    "lambda1": 0.6,
    "lambda2": 0.3,
    "lambda3": 0.1,
    "lambda_validation": "strict",
    "m3c2": {
      "max_depth_m": 1.0,
      "normal_scale_m": 0.5,
      "projection_radius_m": 0.25
    },
    "seed": 0,
    "voxel_size_m": 0.5
  }"""


class TestCompare:
    def test_report_matches_library(self, tmp_path, scene_files, capsys):
        real_path, synth_path, real, synth = scene_files
        out = tmp_path / "report.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = read_report(out)
        expect = dogss_pcl(real, synth, MetricParams()).to_json_dict()
        assert doc == expect

    def test_offset_series(self, tmp_path, scene_files):
        real_path, synth_path, *_ = scene_files
        out = tmp_path / "series.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--offset", "0,0.1,0.3", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = read_report(out)
        assert doc["report_type"] == "gap_series"
        assert len(doc["reports"]) == 3
        offsets = [np.linalg.norm(r["offset"]) for r in doc["reports"]]
        assert offsets == pytest.approx([0.0, 0.1, 0.3])

    def test_series_manifest_records_the_offsets(self, tmp_path, scene_files):
        # the magnitudes as given, repeats and order kept; the rest is the
        # single compare's manifest, whose bytes stay as they were
        real_path, synth_path, *_ = scene_files
        argv = ["compare", "--real", str(real_path), "--synthetic", str(synth_path), "--out"]
        assert main(argv + [str(tmp_path / "one.json")]) == EXIT_OK
        assert main(argv + [str(tmp_path / "series.json"), "--offset", "0, 0.3,1e-1,0.3"]) == EXIT_OK
        one, series = (json.loads((tmp_path / f"{name}.json.manifest.json").read_text())
                       for name in ("one", "series"))
        assert series["config"].pop("offsets_m") == [0.0, 0.3, 0.1, 0.3]
        assert series == one

    def test_missing_file_exit_3(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main([
            "compare", "--real", "/nonexistent.xyzl", "--synthetic", "/nonexistent.xyzl",
            "--out", str(out),
        ])
        assert code == EXIT_IO
        err = capsys.readouterr().err.strip()
        record = json.loads(err)  # one machine-parsable line
        assert record["exit_code"] == EXIT_IO

    @pytest.mark.parametrize("side", ["--real", "--synthetic"])
    def test_empty_cloud_is_named_exit_2(self, tmp_path, scene_files, capsys, side):
        """A cloud of comments only has no points to compare: the error names
        its flag and file, and nothing is written."""
        real_path, synth_path, *_ = scene_files
        empty = tmp_path / "empty.xyzl"
        empty.write_text("# no points\n")
        paths = {"--real": real_path, "--synthetic": synth_path, side: empty}
        out = tmp_path / "gap.json"
        code = main(["compare", "--real", str(paths["--real"]), "--synthetic",
                     str(paths["--synthetic"]), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == (
            f"{side} {empty}: the cloud has no points to compare")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.xyzl", "real.xyzl", "synth.xyzl"]

    def test_bad_config_exit_2(self, tmp_path, scene_files, capsys):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda1": 0.5, "lambda2": 0.3, "lambda3": 0.1}')
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "config,key",
        [
            ('{"alpha": NaN}', "alpha"),
            ('{"m3c2": {"max_depth_m": NaN}}', "max_depth"),
            ('{"m3c2": {"projection_radius_m": Infinity}}', "projection_radius"),
            ('{"voxel_size_m": Infinity}', "voxel_size_m"),
            ('{"class_weights": {"WallSurface": NaN}}', "class_weights.WallSurface: must be finite, got nan"),
            ('{"class_weights": {"WallSurface": Infinity}}', "class_weights.WallSurface: must be finite, got inf"),
            # integers a float cannot hold
            ('{"alpha": -1%s}' % ("0" * 400), "alpha: number too large for a float"),
            ('{"m3c2": {"max_depth_m": 1%s}}' % ("0" * 400), "m3c2.max_depth_m: number too large"),
            ('{"class_weights": {"WallSurface": 1%s}}' % ("0" * 400), "class_weights.WallSurface: number"),
        ],
        ids=["alpha-nan", "max-depth-nan", "projection-radius-inf", "voxel-size-inf",
             "class-weight-nan", "class-weight-inf", "alpha-huge-int", "max-depth-huge-int",
             "class-weight-huge-int"],
    )
    def test_non_finite_config_exit_2(self, tmp_path, scene_files, capsys, config, key):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "r.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert key in json.loads(capsys.readouterr().err.strip())["error"]
        assert not out.exists()
        assert not (tmp_path / "r.json.manifest.json").exists()

    @pytest.mark.parametrize(
        "config,flags,message",
        [
            ({"alpha": 0.5}, [], "{cfg}: alpha: must be < 0, got 0.5"),
            ({"m3c2": {"max_depth_m": -1}}, ["--alpha", "-0.5"], "{cfg}: m3c2.max_depth_m: must be > 0"),
            ({"lambda1": 0.5}, [], "{cfg}: lambda1+lambda2+lambda3: must sum to 1"),
            ({"class_weights": {"WallSurface": True}}, [], "{cfg}: class_weights.WallSurface: expected"),
            # a flag's bad value keeps its text, whatever the file holds
            ({"alpha": -0.5}, ["--alpha", "0.5"], "alpha: must be < 0, got 0.5"),
            ({"alpha": 0.5}, ["--alpha", "0.5"], "alpha: must be < 0, got 0.5"),
            ({"lambda1": 0.7, "lambda2": 0.2}, ["--lambda1", "0.5"], "lambda1+lambda2+lambda3: must"),
        ],
        ids=["file", "file-beside-flag", "file-lambdas", "file-class-weight",
             "flag", "flag-over-file", "flag-lambdas"],
    )
    def test_config_errors_name_the_file(self, tmp_path, scene_files, capsys, config, flags,
                                         message):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(tmp_path / "r.json"), *flags,
        ])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"].startswith(message.format(cfg=cfg))

    def test_flag_mends_the_file(self, tmp_path, scene_files):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": 0.5}')
        assert main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(tmp_path / "r.json"), "--alpha", "-0.5",
        ]) == EXIT_OK

    @pytest.mark.parametrize(
        "config,text,seed",
        [({}, _DEFAULT_CONFIG_TEXT, 0), (_FULL_CONFIG, _FULL_CONFIG_TEXT, 7)],
        ids=["defaults", "full-relaxed-integers"],
    )
    def test_manifest_config_bytes(self, tmp_path, scene_files, config, text, seed):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_OK
        manifest = (tmp_path / "r.json.manifest.json").read_text()
        assert f'''"config": {text},\n  "inputs"''' in manifest
        assert manifest.endswith(f'''"seed": {seed},\n  "version": "{pcgap.__version__}"\n}}\n''')

    def test_degenerate_exit_4(self, tmp_path, capsys):
        # Vehicle-only clouds carry no weighted semantic content
        cloud = LabeledPointCloud(np.random.default_rng(0).normal(size=(50, 3)), np.full(50, 4))
        path = tmp_path / "v.xyzl"
        write_cloud(cloud, path, FORMAT_XYZL)
        code = main([
            "compare", "--real", str(path), "--synthetic", str(path),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_DEGENERATE

    @pytest.mark.parametrize("far", [(1e19, 0.0, 0.0), (1e12, 1e12, 1e12)])
    def test_voxel_keys_beyond_int64_exit_4(self, tmp_path, scene_files, capsys, far):
        # 1e19 m is past int64 voxel coordinates; 1e12 m on every axis fits
        # each coordinate, but not the key span the two clouds share
        real_path, _, _, synth = scene_files
        far_path = tmp_path / "far.xyzl"
        write_cloud(LabeledPointCloud(np.vstack([synth.xyz, far]), np.append(synth.labels, 2)),
                    far_path, FORMAT_XYZL)
        out = tmp_path / "r.json"
        code = main(["compare", "--real", str(real_path), "--synthetic", str(far_path),
                     "--out", str(out)])
        assert code == EXIT_DEGENERATE
        assert json.loads(capsys.readouterr().err)["error"].startswith("voxel_size_m: 0.5 m voxels")
        assert not out.exists()

    @pytest.mark.parametrize("far,offset,named", [
        ((1e161, 0.0, 0.0), "0", "the real and synthetic clouds span [1e+161, "),
        (None, "1e200", "offset [5.773502691896258e+199, "),
    ], ids=["inputs", "offset"])
    def test_overflowing_span_exit_4(self, tmp_path, scene_files, capsys, monkeypatch,
                                     far, offset, named):
        # the squared span overflows a float; refused before any kd-tree
        real_path, synth_path, _, synth = scene_files
        if far is not None:
            synth_path = tmp_path / "far.xyzl"
            write_cloud(LabeledPointCloud(np.vstack([synth.xyz, far]), np.append(synth.labels, 2)),
                        synth_path, FORMAT_XYZL)
        monkeypatch.setattr(pcgap.NnIndex, "__init__", lambda *a, **k: pytest.fail("kd-tree built"))
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare", "--real", str(real_path), "--synthetic", str(synth_path),
                         "--offset", offset, "--out", str(out)])
        assert code == EXIT_DEGENERATE
        assert json.loads(capsys.readouterr().err)["error"].startswith(named)
        assert not out.exists()

    @pytest.mark.parametrize("offset", ["1e20", "1e100", "1e150"])
    def test_offset_beyond_int64_cells_exit_4(self, tmp_path, capsys, offset):
        # the cylinder balls land far outside the real cloud's count grid,
        # whose cells are clipped before they are cast to int64
        rng = np.random.default_rng(5)
        path = tmp_path / "plane.xyzl"
        write_cloud(LabeledPointCloud(np.column_stack([rng.uniform(0, 4, (40, 2)), np.zeros(40)]),
                                      np.full(40, 2)), path, FORMAT_XYZL)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare", "--real", str(path), "--synthetic", str(path),
                         "--offset", offset, "--out", str(out)])
        assert code == EXIT_DEGENERATE
        assert "no comparable semantic content" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path, scene_files):
        real_path, synth_path, real, synth = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"voxel_size_m": 0.5}')
        out = tmp_path / "r.json"
        code = main([
            "compare", "--real", str(real_path), "--synthetic", str(synth_path),
            "--config", str(cfg), "--voxel-size", "1.0", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert read_report(out)["params"]["voxel_size_m"] == 1.0

    def test_manifest_written(self, tmp_path, scene_files):
        real_path, synth_path, *_ = scene_files
        out = tmp_path / "r.json"
        main(["compare", "--real", str(real_path), "--synthetic", str(synth_path),
              "--out", str(out)])
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["command"] == "compare"
        assert str(real_path) in manifest["inputs"]
        assert manifest["config"]["alpha"] == -0.2  # defaults echoed
        assert manifest["version"]

    def test_manifest_records_the_config_digest(self, tmp_path, scene_files):
        real_path, synth_path, *_ = scene_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": -0.5}')
        assert main(["compare", "--real", str(real_path), "--synthetic", str(synth_path),
                     "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == EXIT_OK
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["inputs"] == {str(p): _sha256(p) for p in (real_path, synth_path, cfg)}


# The manifest ``config`` of a simulate run with every scan key set, byte for
# byte: numbers are echoed as the scan config file gave them.
_SIMULATE_CONFIG_TEXT = """  "config": {
    "format": "xyzl",
    "scan": {
      "channels": 4,
      "max_range_m": 30.5,
      "points_per_second": 4000,
      "rotation_rate_hz": 5,
      "sensor_offset": [
        0,
        0.25,
        1
      ],
      "vertical_fov_deg": [
        -10,
        12.5
      ]
    },
    "sigma": 0.01
  },
  "inputs": {"""


class TestSimulateNoise:
    @pytest.fixture()
    def sim_inputs(self, tmp_path):
        mesh_path = tmp_path / "room.obj"
        mesh_path.write_text(room_mesh_obj_text())
        traj_path = tmp_path / "traj.json"
        traj_path.write_text(json.dumps([
            {"t": 0.0, "x": 2.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
            {"t": 0.5, "x": 8.0, "y": 4.0, "z": 1.5, "yaw": 0.0},
        ]))
        scan_path = tmp_path / "scan.json"
        scan_path.write_text(json.dumps({
            "channels": 8, "vertical_fov_deg": [-25.0, 25.0],
            "rotation_rate_hz": 10.0, "points_per_second": 8000,
            "max_range_m": 50.0,
        }))
        return mesh_path, traj_path, scan_path

    def test_simulate_writes_cloud_and_origins(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        out = tmp_path / "scan.xyzl"
        code = main([
            "simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
            "--scan-config", str(scan_path), "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        cloud = read_cloud(out)
        assert len(cloud) > 500
        origins = (tmp_path / "scan.xyzl.origins").read_text().splitlines()
        assert len(origins) == len(cloud)

    def test_manifest_config_bytes(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        scan_path.write_text(json.dumps({
            "channels": 4, "vertical_fov_deg": [-10, 12.5], "rotation_rate_hz": 5,
            "points_per_second": 4000, "max_range_m": 30.5, "sensor_offset": [0, 0.25, 1],
        }))
        out = tmp_path / "scan.xyzl"
        assert main([
            "simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
            "--scan-config", str(scan_path), "--sigma", "0.01", "--seed", "3",
            "--format", "xyzl", "--out", str(out),
        ]) == EXIT_OK
        manifest = (tmp_path / "scan.xyzl.manifest.json").read_text()
        assert _SIMULATE_CONFIG_TEXT in manifest

    def test_unknown_scan_config_key_exit_2(self, tmp_path, sim_inputs, capsys):
        mesh_path, traj_path, scan_path = sim_inputs
        scan_path.write_text(json.dumps({"chanels": 4}))
        out = tmp_path / "scan.xyzl"
        code = main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == f"{scan_path}: chanels: unknown config key"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["room.obj", "scan.json", "traj.json"]

    def test_noise_sigma_zero_identical_point_data(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        scan_out = tmp_path / "scan.xyzl"
        main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
              "--scan-config", str(scan_path), "--seed", "1", "--out", str(scan_out)])
        noise_out = tmp_path / "noisy.xyzl"
        code = main([
            "noise", "--cloud", str(scan_out), "--sigma", "0", "--seed", "5",
            "--out", str(noise_out),
        ])
        assert code == EXIT_OK
        assert scan_out.read_bytes() == noise_out.read_bytes()

    def test_noise_sigma_beyond_float_range_exit_2(self, tmp_path, sim_inputs, capsys):
        # 10 points may all stay finite under --sigma 1e308; a scan's do not
        mesh_path, traj_path, scan_path = sim_inputs
        scan_out = tmp_path / "scan.xyzl"
        assert main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_path), "--seed", "1", "--out", str(scan_out)]) == EXIT_OK
        noise_out = tmp_path / "noisy.xyzl"
        code = main(["noise", "--cloud", str(scan_out), "--sigma", "1e308", "--seed", "5",
                     "--out", str(noise_out)])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"].startswith("--sigma: 1e+308 m")
        assert not noise_out.exists() and not Path(f"{noise_out}.manifest.json").exists()

    def test_rerun_byte_identical(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"scan-{tag}.xyzl"
            main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                  "--scan-config", str(scan_path), "--seed", "9", "--sigma", "0.02",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_noise_missing_origins_exit_3(self, tmp_path):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(1), 10), cloud_path, FORMAT_XYZL)
        code = main(["noise", "--cloud", str(cloud_path), "--sigma", "0.02",
                     "--seed", "1", "--out", str(tmp_path / "n.xyzl")])
        assert code == EXIT_IO

    def test_noise_non_finite_origin_exit_3(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(2), 3), cloud_path, FORMAT_XYZL)
        origins = tmp_path / "c.xyzl.origins"
        origins.write_text("0 0 0\nnan 0 0\n0 0 0\n")
        code = main(["noise", "--cloud", str(cloud_path), "--sigma", "0.02",
                     "--seed", "1", "--out", str(tmp_path / "n.xyzl")])
        assert code == EXIT_IO
        err = json.loads(capsys.readouterr().err)["error"]
        assert f"{origins}:2: non-finite coordinate" in err
        assert not (tmp_path / "n.xyzl").exists()

    @pytest.mark.parametrize("rows,error", [
        ("0 0 0\n", "1 origins for 2 points"),
        ("0 0 0\n1 2 3\n", "zero-length ray at point 0 (counting from 0); origins do not match points"),
    ], ids=["count", "point-on-its-origin"])
    def test_noise_origins_that_do_not_match_the_points_exit_2(self, tmp_path, capsys, rows, error):
        cloud_path = tmp_path / "c.xyzl"
        cloud_path.write_text("0 0 0 1\n1 1 1 2\n")
        origins = tmp_path / "c.xyzl.origins"
        origins.write_text(rows)
        code = main(["noise", "--cloud", str(cloud_path), "--sigma", "0.02",
                     "--seed", "1", "--out", str(tmp_path / "n.xyzl")])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == f"{origins}: {error}"
        assert not (tmp_path / "n.xyzl").exists()

    @pytest.mark.parametrize("channels,fov,code", [(8, [15, -25], EXIT_CONFIG), (8, [0, 0], EXIT_CONFIG),
                                                   (1, [0, 0], EXIT_OK)],
                             ids=["reversed", "equal", "one-channel-equal"])
    def test_simulate_field_of_view_order(self, tmp_path, sim_inputs, capsys, channels, fov, code):
        mesh_path, traj_path, scan_path = sim_inputs
        scan_path.write_text(json.dumps({**json.loads(scan_path.read_text()), "channels": channels,
                                         "vertical_fov_deg": fov}))
        out = tmp_path / "scan.xyzl"
        assert main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_path), "--out", str(out)]) == code
        if code == EXIT_CONFIG:
            assert json.loads(capsys.readouterr().err)["error"] == (
                f"{scan_path}: vertical_fov_deg: min must be below max")
        else:
            assert len(read_cloud(out)) > 0

    @pytest.mark.parametrize("origins", ["scan.xyzl", "sub/../scan.xyzl", "scan.xyzl.manifest.json"])
    def test_simulate_origins_onto_out_exit_2(self, tmp_path, sim_inputs, capsys, origins):
        mesh_path, traj_path, scan_path = sim_inputs
        (tmp_path / "sub").mkdir()
        out = tmp_path / "scan.xyzl"
        code = main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_path), "--origins", str(tmp_path / origins),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--origins" in json.loads(capsys.readouterr().err)["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["room.obj", "scan.json", "sub",
                                                              "traj.json"]

    def test_all_miss_scan_round_trip(self, tmp_path, sim_inputs):
        # every hit lies beyond a 1 mm range: an empty cloud and an empty sidecar
        mesh_path, traj_path, scan_path = sim_inputs
        scan_path.write_text(json.dumps({**json.loads(scan_path.read_text()), "max_range_m": 1e-3}))
        out, noisy = tmp_path / "scan.xyzl", tmp_path / "noisy.xyzl"
        assert main(["simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
                     "--scan-config", str(scan_path), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == b"" and (tmp_path / "scan.xyzl.origins").read_bytes() == b""
        assert main(["noise", "--cloud", str(out), "--sigma", "0.02", "--seed", "1",
                     "--out", str(noisy)]) == EXIT_OK
        assert noisy.read_bytes() == b""

    def test_simulate_with_sigma_requires_seed(self, tmp_path, sim_inputs):
        mesh_path, traj_path, scan_path = sim_inputs
        code = main([
            "simulate", "--mesh", str(mesh_path), "--trajectory", str(traj_path),
            "--scan-config", str(scan_path), "--sigma", "0.02",
            "--out", str(tmp_path / "s.xyzl"),
        ])
        assert code == EXIT_CONFIG


class TestMixSplit:
    def test_mix_counts_and_provenance(self, tmp_path):
        rng = np.random.default_rng(72)
        real_path, synth_path = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(random_cloud(rng, 2000), real_path, FORMAT_XYZL)
        write_cloud(random_cloud(rng, 2000), synth_path, FORMAT_XYZL)
        out = tmp_path / "mixed.xyzl"
        code = main([
            "mix", "--real", str(real_path), "--synthetic", str(synth_path),
            "--fraction", "0.5", "--count", "1000", "--seed", "11", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert len(read_cloud(out)) == 1000
        prov = (tmp_path / "mixed.xyzl.provenance.txt").read_text().splitlines()
        assert prov.count("real") == 500
        assert prov.count("synthetic") == 500
        manifest = json.loads((tmp_path / "mixed.xyzl.manifest.json").read_text())
        assert manifest["config"]["real_points"] == 500
        assert manifest["seed"] == 11

    def test_mix_rerun_byte_identical(self, tmp_path):
        rng = np.random.default_rng(73)
        real_path, synth_path = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(random_cloud(rng, 500), real_path, FORMAT_XYZL)
        write_cloud(random_cloud(rng, 500), synth_path, FORMAT_XYZL)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"m-{tag}.xyzl"
            main(["mix", "--real", str(real_path), "--synthetic", str(synth_path),
                  "--fraction", "0.25", "--count", "200", "--seed", "77", "--out", str(out)])
            blobs.append(out.read_bytes() + (tmp_path / f"m-{tag}.xyzl.manifest.json").read_bytes())
        # manifests differ only in output path keys; compare clouds directly
        a = read_cloud(tmp_path / "m-a.xyzl")
        b = read_cloud(tmp_path / "m-b.xyzl")
        assert a == b

    def test_split_outputs(self, tmp_path):
        rng = np.random.default_rng(74)
        cloud_path = tmp_path / "c.xyzl"
        cloud = random_cloud(rng, 2000, span=10.0)
        write_cloud(cloud, cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "regions": [
                {"name": "train", "rect": [-10, -10, 0, 10]},
                {"name": "test", "rect": [0, -10, 10, 10]},
            ]
        }))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        train = read_cloud(out_dir / "train.xyzl")
        test = read_cloud(out_dir / "test.xyzl")
        assert len(train) + len(test) == len(cloud)

    def test_split_ply_property_without_type_exit_3(self, tmp_path, capsys):
        cloud_path = tmp_path / "bad.ply"
        cloud_path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty\n"
                              "end_header\n0 0 0\n")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [{"name": "all", "rect": [-1, -1, 1, 1]}]}))
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "splits")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"{cloud_path}:4: malformed property line" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name",["../escape", "a/b", "a\\b", "..", ".", "", "nul\0"])
    def test_split_region_name_escape_exit_2(self, tmp_path, name, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(76), 200, span=10.0), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [
            {"name": "ok", "rect": [-10, -10, 0, 10]},
            {"name": name, "rect": [0, -10, 10, 10]},
        ]}))
        out_dir = tmp_path / "work" / "splits"
        before = sorted(tmp_path.rglob("*"))
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert "regions[1].name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before  # nothing written, in or out of --out-dir

    @pytest.mark.parametrize("region,message", [
        # a rect or polygon coordinate is refused where it is read, by the one number rule
        pytest.param({"polygon": [[0, 0], [4, 0], [4, math.nan], [0, 4]]},
                     "regions[1].polygon[2][1]: must be finite, got nan", id="region0"),
        pytest.param({"polygon": [[0, 0], [4, 0], [4, math.inf], [0, 4]]},
                     "regions[1].polygon[2][1]: must be finite, got inf", id="region1"),
        pytest.param({"rect": [0, 0, math.inf, 4]}, "regions[1].rect[2]: must be finite, got inf",
                     id="region2"),
        pytest.param({"rect": [-math.inf, 0, 4, 4]}, "regions[1].rect[0]: must be finite, got -inf",
                     id="region3"),
        pytest.param({"rect": [0, 0, 4, 4], "polygon": [[0, 0], [4, 0], [0, 4]]}, None,
                     id="region4"),  # two shapes
        # every point lies inside, but the edge products leave the float range
        *(pytest.param({"polygon": [[-c, -c], [c, -c], [0, c]]},
                       "regions[1]: region 'a': polygon area and edge products must be finite",
                       id=f"region-{c:g}") for c in (1e300, 1e160)),
    ])
    def test_split_non_finite_region_exit_2(self, tmp_path, region, message, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(LabeledPointCloud(np.array([[1.0, 1, 0], [2.0, 1, 0], [9.0, 9, 0]]),
                                      np.array([1, 2, 6])), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [
            {"name": "ok", "rect": [8, 8, 10, 10]}, {"name": "a", **region},
        ]}))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"{spec_path}: {message}" if message else f"{spec_path}: regions[1]: " in error
        assert not out_dir.exists()

    def test_split_refuses_a_polygon_coordinate_that_is_not_a_number_exit_2(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(77), 20), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [{"name": "a", "polygon": [[0, 0], [True, 0], [1, 1]]}]}))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"{spec_path}: regions[0].polygon[1][0]: expected a number, got True"
        assert not out_dir.exists()

    def test_split_regions_not_an_array_exit_2(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(76), 20), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": 5}))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"{spec_path}: regions: ")
        assert not out_dir.exists()

    def test_split_unknown_key_exit_2(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(76), 20), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [
            {"name": "a", "rect": [0, 0, 1, 1], "polgon": [[0, 0], [1, 0], [0, 1]]},
        ]}))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert (json.loads(capsys.readouterr().err)["error"]
                == f"{spec_path}: regions[0].polgon: unknown config key")
        assert not out_dir.exists()

    @pytest.mark.parametrize("region,message", [
        ({"name": "..", "rect": [0, 0, 1, 1]}, "regions[0].name: '..' is not a plain file name"),
        ({"rect": [0, 0, 1, 1]}, "regions[0].name: missing from the region"),
        ({"name": "a", "rect": [0, 0, 1]}, "regions[0].rect: expected 4 numbers, got [0, 0, 1]"),
        ({"name": "a", "rect": [0, 0, True, 1]}, "regions[0].rect[2]: expected a number, got True"),
    ], ids=["dot-dot-name", "no-name", "three-number-rect", "bool-coordinate"])
    def test_split_region_error_names_its_key_exit_2(self, tmp_path, capsys, region, message):
        cloud_path = tmp_path / "c.xyzl"
        write_cloud(random_cloud(np.random.default_rng(76), 20), cloud_path, FORMAT_XYZL)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"regions": [region]}))
        out_dir = tmp_path / "splits"
        code = main(["split", "--cloud", str(cloud_path), "--spec", str(spec_path),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == f"{spec_path}: {message}"
        assert not out_dir.exists()

    def test_mix_bad_fraction_exit_2(self, tmp_path):
        rng = np.random.default_rng(75)
        p = tmp_path / "c.xyzl"
        write_cloud(random_cloud(rng, 10), p, FORMAT_XYZL)
        code = main(["mix", "--real", str(p), "--synthetic", str(p),
                     "--fraction", "1.5", "--count", "10", "--seed", "1",
                     "--out", str(tmp_path / "m.xyzl")])
        assert code == EXIT_CONFIG


class TestEvalAndReport:
    def _write_eval_fixture(self, tmp_path, tag, ious_by_seed):
        rng = np.random.default_rng(ious_by_seed)
        cloud = random_cloud(rng, 500, classes=(1, 2, 6))
        truth = tmp_path / f"gt-{tag}.xyzl"
        write_cloud(cloud, truth, FORMAT_XYZL)
        pred = tmp_path / f"pred-{tag}.txt"
        labels = cloud.labels.copy()
        flip = rng.random(len(labels)) < 0.2
        labels[flip] = rng.integers(1, 13, size=int(flip.sum()))
        pred.write_text("\n".join(str(int(v)) for v in labels) + "\n")
        return truth, pred

    def test_eval_seg_report(self, tmp_path):
        truth, pred = self._write_eval_fixture(tmp_path, "x", 80)
        out = tmp_path / "eval.json"
        code = main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--ratio", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        doc = read_report(out)
        assert doc["report_type"] == "eval"
        assert doc["synthetic_ratio"] == 0.5
        assert "confusion" in doc

    def test_eval_seg_length_mismatch_exit_2(self, tmp_path):
        truth, pred = self._write_eval_fixture(tmp_path, "y", 81)
        pred.write_text("1\n2\n")
        code = main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--out", str(tmp_path / "e.json")])
        assert code == EXIT_CONFIG

    def test_eval_seg_non_ascii_label_exit_3(self, tmp_path, capsys):
        truth, pred = self._write_eval_fixture(tmp_path, "na", 82)
        labels = pred.read_text().splitlines()
        labels[6] = "٣"  # Arabic-Indic three: not a digit of any input
        pred.write_text("\n".join(labels) + "\n", encoding="utf-8")
        code = main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--out", str(tmp_path / "e.json")])
        assert code == EXIT_IO
        assert json.loads(capsys.readouterr().err)["error"].startswith(f"{pred}:7: bad label")
        assert not (tmp_path / "e.json").exists()

    def test_gap_report_csv(self, tmp_path, capsys):
        real = build_street_scene(76, scale=0.02)
        synth = build_street_scene(77, scale=0.02)
        rp, sp = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        write_cloud(synth, sp, FORMAT_XYZL)
        series = tmp_path / "series.json"
        main(["compare", "--real", str(rp), "--synthetic", str(sp),
              "--offset", "0,0.1,0.3", "--out", str(series)])
        out_csv = tmp_path / "summary.csv"
        code = main(["report", str(series), "--out", str(out_csv)])
        assert code == EXIT_OK
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == ["report", "offset_m", "m_dogss_pcl", "d", "d_mm3c2",
                           "d_c2c", "miou", "f_miou"]
        assert len(rows) == 4

    def test_report_plot_data_onto_out_exit_2(self, tmp_path, capsys):
        truth, pred = self._write_eval_fixture(tmp_path, "p", 84)
        ev = tmp_path / "e.json"
        assert main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--out", str(ev)]) == EXIT_OK
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "s.csv"
        code = main(["report", str(ev), "--out", str(out), "--plot-data", str(out)])
        assert code == EXIT_CONFIG
        assert "--plot-data" in json.loads(capsys.readouterr().err)["error"]
        assert sorted(tmp_path.iterdir()) == before

    def test_eval_report_csv_with_correlation(self, tmp_path):
        paths = []
        for i, ratio in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            truth, pred = self._write_eval_fixture(tmp_path, f"r{i}", 90 + i)
            out = tmp_path / f"eval-{i}.json"
            main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                  "--ratio", str(ratio), "--out", str(out)])
            paths.append(str(out))
        out_csv = tmp_path / "evals.csv"
        plot = tmp_path / "plot.json"
        code = main(["report", *paths, "--out", str(out_csv), "--plot-data", str(plot)])
        assert code == EXIT_OK
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0][0] == "class"
        assert rows[0][-1] == "corr"
        assert rows[-1][0] == "mIoU"
        series = json.loads(plot.read_text())["series"]
        assert len(series["mIoU"]) == 5

    def test_eval_columns_keep_argument_order_among_tied_ratios(self, tmp_path):
        # more than 16 reports: numpy's default argsort is not stable there
        per_class = {c: ClassEval(0, 0, 0, 0.0, True) for c in SemanticClass}
        paths = []
        for i, ratio in enumerate([0.5] * 17 + [0.1]):
            paths.append(tmp_path / f"eval-{i}.json")
            write_report(EvalReport(per_class, i / 100, np.zeros((12, 12), np.int64), ratio),
                         paths[-1])
        out_csv = tmp_path / "evals.csv"
        assert main(["report", *map(str, paths), "--out", str(out_csv)]) == EXIT_OK
        miou_row = list(csv.reader(out_csv.read_text().splitlines()))[-1]
        assert [float(v) for v in miou_row[1:19]] == [0.17] + [i / 100 for i in range(17)]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1E+999"])
    def test_report_refuses_non_finite_input_exit_3(self, tmp_path, capsys, constant):
        real = build_street_scene(76, scale=0.02)
        rp = tmp_path / "r.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        gap = tmp_path / "gap.json"
        assert main(["compare", "--real", str(rp), "--synthetic", str(rp), "--out", str(gap)]) == 0
        doc = gap.read_text()
        edited = doc.replace('"miou": ', f'"miou": {constant}, "was": ', 1)
        assert edited != doc
        gap.write_text(edited)
        out_csv, plot = tmp_path / "summary.csv", tmp_path / "plot.json"
        code = main(["report", str(gap), "--out", str(out_csv), "--plot-data", str(plot)])
        assert code == EXIT_IO
        assert f"{gap}: non-finite number {constant}" in json.loads(capsys.readouterr().err)["error"]
        assert not out_csv.exists() and not plot.exists()

    #: documents whose report_type or series reports are missing or unusable, and the key named
    _REPORT_TYPE_CASES = {
        "no-report-type": ({}, "report_type"),
        "unknown-report-type": ({"report_type": "bogus"}, "report_type"),
        "series-without-reports": ({"report_type": "gap_series"}, "reports"),
        "series-with-empty-reports": ({"report_type": "gap_series", "reports": []}, "reports"),
    }

    @pytest.mark.parametrize(
        "case",
        ["gap-without-fields", "gap-column-not-a-number", "gap-column-huge-int", "list-root",
         "series-entry-not-object", "class-without-tp", "class-missing", "ratio-above-1",
         "ratio-bool", "not-utf8", *_REPORT_TYPE_CASES],
    )
    def test_report_refuses_malformed_input_exit_3(self, tmp_path, capsys, case):
        truth, pred = self._write_eval_fixture(tmp_path, "m", 82)
        path = tmp_path / "eval.json"
        assert main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                     "--out", str(path)]) == EXIT_OK
        doc = json.loads(path.read_text())
        if case == "gap-without-fields":
            doc = {"report_type": "gap"}
        elif case in ("gap-column-not-a-number", "gap-column-huge-int"):
            doc = {"report_type": "gap", "m_dogss_pcl": 0.5, "d": "x", "d_mm3c2": 0.5,
                   "d_c2c": 0.5, "miou": 0.5, "f_miou": 0.5}
            if case == "gap-column-huge-int":
                doc["d"] = 10**400  # no float holds it
        elif case == "list-root":
            doc = [doc]
        elif case == "series-entry-not-object":
            doc = {"report_type": "gap_series", "reports": [1]}
        elif case == "class-without-tp":
            del doc["per_class"]["Door"]["tp"]
        elif case == "class-missing":
            del doc["per_class"]["Door"]
        elif case in self._REPORT_TYPE_CASES:
            doc = self._REPORT_TYPE_CASES[case][0]
        elif case != "not-utf8":
            doc["synthetic_ratio"] = 1.5 if case == "ratio-above-1" else True
        path.write_bytes(b"\xff\xfe{}" if case == "not-utf8" else json.dumps(doc).encode())
        out_csv = tmp_path / "summary.csv"
        code = main(["report", str(path), "--out", str(out_csv)])
        assert code == EXIT_IO
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"{path}: ")
        if case in self._REPORT_TYPE_CASES:
            assert error.startswith(f"{path}: {self._REPORT_TYPE_CASES[case][1]}: expected ")
        assert not out_csv.exists()

    #: (report kind, key path, value, the refusal's end): each JSON number passes the one number rule
    _NOT_A_NUMBER_CASES = {
        "gap-column-a-string": ("gap", ("m_dogss_pcl",), "0.5", "m_dogss_pcl: expected a number, got '0.5'"),
        "gap-column-a-bool": ("gap", ("d",), True, "d: expected a number, got True"),
        "gap-offset-a-bool": ("gap", ("offset", 1), True, "offset[1]: expected a number, got True"),
        "gap-offset-two-numbers": ("gap", ("offset",), [0.0, 0.0],
                                   "offset: expected 3 numbers, got [0.0, 0.0]"),
        "series-column-a-string": ("series", ("reports", 1, "miou"), "0.1",
                                   "reports[1].miou: expected a number, got '0.1'"),
        "eval-iou-a-string": ("eval", ("per_class", "Door", "iou"), "0.75",
                              "per_class.Door.iou: expected a number, got '0.75'"),
        "eval-tp-a-bool": ("eval", ("per_class", "Door", "tp"), True,
                           "per_class.Door.tp: expected an integer, got True"),
        "eval-absent-a-string": ("eval", ("per_class", "Door", "absent"), "no",
                                 "per_class.Door.absent: expected a bool, got 'no'"),
        "eval-miou-a-string": ("eval", ("miou",), "0.1", "miou: expected a number, got '0.1'"),
        "eval-confusion-a-string": ("eval", ("confusion", 0, 0), "3",
                                    "confusion[0][0]: expected an integer, got '3'"),
        "eval-confusion-a-bool": ("eval", ("confusion", 0, 1), True,
                                  "confusion[0][1]: expected an integer, got True"),
        "eval-confusion-a-float": ("eval", ("confusion", 1, 0), 1.7,
                                   "confusion[1][0]: expected an integer, got 1.7"),
        "eval-confusion-2x2": ("eval", ("confusion",), [["3", True], [1.7, 2]],
                               "confusion: expected a 12x12 matrix, got shape (2, 2)"),
        "eval-confusion-11-rows": ("eval", ("confusion",), [[0] * 12] * 11,
                                   "confusion: expected a 12x12 matrix, got shape (11, 12)"),
    }

    #: (report kind, key path, value, the refusal's end): counts an int64 holds, and objects where objects belong
    _OUT_OF_RULE_CASES = {
        "eval-tp-beyond-int64": ("eval", ("per_class", "Door", "tp"), 2**70,
                                 f"per_class.Door.tp: must be in [0, 2**63 - 1], got {2**70}"),
        "eval-tp-negative": ("eval", ("per_class", "Door", "tp"), -5,
                             "per_class.Door.tp: must be in [0, 2**63 - 1], got -5"),
        "eval-confusion-beyond-int64": ("eval", ("confusion", 0, 0), 2**70,
                                        f"confusion[0][0]: must be in [0, 2**63 - 1], got {2**70}"),
        "eval-confusion-negative": ("eval", ("confusion", 1, 1), -3,
                                    "confusion[1][1]: must be in [0, 2**63 - 1], got -3"),
        "eval-per-class-a-list": ("eval", ("per_class",), [1, 2], "per_class: expected an object"),
        "eval-class-a-list": ("eval", ("per_class", "Door"), [1, 2], "per_class.Door: expected an object"),
        "series-entry-a-list": ("series", ("reports", 0), [1, 2], "reports[0]: expected an object"),
    }

    @pytest.mark.parametrize("case", list(_NOT_A_NUMBER_CASES))
    def test_report_refuses_a_value_that_is_not_a_number_exit_3(self, tmp_path, capsys, case):
        self._assert_edit_refused(tmp_path, capsys, *self._NOT_A_NUMBER_CASES[case])

    @pytest.mark.parametrize("case", list(_OUT_OF_RULE_CASES))
    def test_report_refuses_a_count_out_of_range_or_a_part_not_an_object_exit_3(self, tmp_path, capsys, case):
        self._assert_edit_refused(tmp_path, capsys, *self._OUT_OF_RULE_CASES[case])

    def _assert_edit_refused(self, tmp_path, capsys, kind, keys, value, message):
        """A report of ``kind`` whose value at ``keys`` is set to ``value``
        makes ``report`` exit 3 with a refusal that names the file and ends in ``message``."""
        path = tmp_path / f"{kind}.json"
        if kind == "eval":
            truth, pred = self._write_eval_fixture(tmp_path, "n", 84)
            argv = ["eval-seg", "--truth", str(truth), "--pred", str(pred), "--out", str(path)]
        else:
            rp = tmp_path / "r.xyzl"
            write_cloud(build_street_scene(76, scale=0.02), rp, FORMAT_XYZL)
            argv = ["compare", "--real", str(rp), "--synthetic", str(rp), "--out", str(path)]
            argv += ["--offset", "0,0.1"] if kind == "series" else []
        assert main(argv) == EXIT_OK
        doc = target = json.loads(path.read_text())
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        out_csv = tmp_path / "summary.csv"
        assert main(["report", str(path), "--out", str(out_csv)]) == EXIT_IO
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"{path}: ") and error.endswith(f": {message}")
        assert not out_csv.exists()

    @pytest.mark.parametrize("component,code", [(1e200, EXIT_OK), (1.5e308, EXIT_IO)])
    def test_report_huge_offset_magnitude(self, tmp_path, capsys, component, code):
        # numpy's norm overflows on both offsets; only the first has a finite length
        rp = tmp_path / "r.xyzl"
        write_cloud(build_street_scene(76, scale=0.02), rp, FORMAT_XYZL)
        gap = tmp_path / "gap.json"
        assert main(["compare", "--real", str(rp), "--synthetic", str(rp), "--out", str(gap)]) == 0
        gap.write_text(json.dumps({**read_report(gap), "offset": [component, component, 0.0]}))
        out_csv, plot = tmp_path / "summary.csv", tmp_path / "plot.json"
        assert main(["report", str(gap), "--out", str(out_csv), "--plot-data", str(plot)]) == code
        if code == EXIT_OK:
            rows = list(csv.reader(out_csv.read_text().splitlines()))
            assert float(rows[1][1]) == math.hypot(component, component)
            assert json.loads(plot.read_text())["series"]["miou"][0][0] == float(rows[1][1])
        else:
            assert json.loads(capsys.readouterr().err)["error"].startswith(f"{gap}: ")
            assert not out_csv.exists() and not plot.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_refuses_huge_ratio_tags_exit_3(self, tmp_path, capsys):
        # tags this far apart overflow the Pearson sums; [0, 1] bounds them
        paths = []
        for i, ratio in enumerate((1e308, -1e308, 1e308)):
            truth, pred = self._write_eval_fixture(tmp_path, f"h{i}", 83 + i)
            out = tmp_path / f"eval-{i}.json"
            assert main(["eval-seg", "--truth", str(truth), "--pred", str(pred),
                         "--out", str(out)]) == EXIT_OK
            out.write_text(json.dumps({**json.loads(out.read_text()), "synthetic_ratio": ratio}))
            paths.append(str(out))
        out_csv = tmp_path / "evals.csv"
        code = main(["report", *paths, "--out", str(out_csv)])
        assert code == EXIT_IO
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"{paths[0]}: ") and "synthetic_ratio" in error
        assert not out_csv.exists()

    def test_mixed_schema_rejected(self, tmp_path):
        real = build_street_scene(78, scale=0.02)
        rp = tmp_path / "r.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        gap_out = tmp_path / "gap.json"
        main(["compare", "--real", str(rp), "--synthetic", str(rp), "--out", str(gap_out)])
        truth, pred = self._write_eval_fixture(tmp_path, "z", 99)
        eval_out = tmp_path / "eval.json"
        main(["eval-seg", "--truth", str(truth), "--pred", str(pred), "--out", str(eval_out)])
        code = main(["report", str(gap_out), str(eval_out), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_compare_rerun_byte_identical(self, tmp_path):
        real = build_street_scene(79, scale=0.02)
        synth = build_street_scene(80, scale=0.02)
        rp, sp = tmp_path / "r.xyzl", tmp_path / "s.xyzl"
        write_cloud(real, rp, FORMAT_XYZL)
        write_cloud(synth, sp, FORMAT_XYZL)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep-{tag}.json"
            main(["compare", "--real", str(rp), "--synthetic", str(sp), "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
