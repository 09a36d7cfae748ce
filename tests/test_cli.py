import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diamramsey
from diamramsey import affine_dimension, cli, diameter, jung_bound, regular_simplex
from diamramsey.formats import colored_to_dict, load_configuration, save_configuration
from diamramsey.coloring import ColoredConfiguration


def run_cli(capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if code == 0 and captured.out else None
    return code, report, captured


@pytest.fixture()
def tri150(tmp_path, capsys):
    path = tmp_path / "tri150.json"
    code, _, _ = run_cli(capsys, "construct", "obtuse", "--alpha", "150",
                         "--side", "1", "--out", str(path))
    assert code == 0
    return str(path)


class TestSubcommands:
    def test_diameter(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "diameter", "--input", tri150)
        assert code == 0
        assert report["outputs"]["diameter"] == pytest.approx(1.0)

    def test_meb(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "meb", "--input", tri150)
        assert code == 0
        assert report["outputs"]["radius"] == pytest.approx(0.5, abs=1e-9)

    def test_circumsphere(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "circumsphere", "--input", tri150)
        assert code == 0
        assert report["outputs"]["radius"] == pytest.approx(1.0, abs=1e-9)

    def test_jung(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "jung", "--input", tri150)
        assert code == 0
        assert report["outputs"]["jung_bound"] == pytest.approx(
            1 / math.sqrt(3), abs=1e-9)

    def test_jung_computes_each_input_once(self, capsys, tri150, monkeypatch):
        # One diameter and one hull SVD, and the library's values bit for bit.
        calls = {"diameter": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "diameter", counted("diameter", cli.diameter))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        code, report, _ = run_cli(capsys, "jung", "--input", tri150)
        assert code == 0 and calls == {"diameter": 1, "svd": 1}
        monkeypatch.undo()
        config = load_configuration(tri150)
        assert report["outputs"] == {"jung_bound": jung_bound(config),
                                     "affine_dimension": affine_dimension(config),
                                     "diameter": diameter(config)}

    def test_obstruct(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "obstruct", "--input", tri150)
        assert code == 0
        out = report["outputs"]
        assert out["status"] == "NotDiameterRamsey"
        assert out["margin"] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-9)

    def test_triangle(self, capsys):
        code, report, _ = run_cli(capsys, "triangle", "--alpha", "135")
        assert code == 0
        assert report["outputs"]["status"] == "Unknown"

    def test_conjecture(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "conjecture", "--input", tri150)
        assert code == 0
        assert report["outputs"]["label"] == "ConjecturedNotDiameterRamsey"
        assert report["outputs"]["conjectural"] is True

    def test_estimate_c(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "estimate-c", "--input", tri150,
                                  "--radius", "0.95", "--restarts", "4")
        assert code == 0
        assert report["outputs"]["feasible"] is True
        assert report["outputs"]["c_estimate"] > 1e-3
        passes = report["outputs"]["diagnostics"]["passes"]
        assert passes and all(solve["stage"] == "active_set" for solve in passes)
        width = report["outputs"]["c_estimate"] - report["outputs"]["c_lower"]
        assert 0.0 <= width / 0.95 <= min(solve["bracket"] for solve in passes) <= 1e-9
        # the paraboloid binds below the circumradius: the copy lies in the hull's plane
        assert all(0.0 <= solve["height"] <= 1e-6 for solve in passes)

    def test_oracle(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "oracle", "--input", tri150,
                                  "--radius", "0.95", "--samples", "5000")
        assert code == 0
        assert report["outputs"]["oracle_value"] > 0

    def test_color(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "color", "--input", tri150,
                                  "--shell", "0.1")
        assert code == 0
        assert len(report["outputs"]["colors"]) == 3

    def test_falsify(self, capsys, tri150):
        code, report, _ = run_cli(capsys, "falsify", "--input", tri150,
                                  "--radius", "0.95", "--shell", "0.005",
                                  "--samples", "2000")
        assert code == 0
        assert report["outputs"]["monochromatic_count"] == 0

    def test_find_copy(self, capsys, tmp_path):
        square = regular_simplex(2)
        colored = ColoredConfiguration(configuration=square, colors=(0, 0, 0))
        host_path = tmp_path / "host.json"
        host_path.write_text(json.dumps(colored_to_dict(colored)))
        target_path = tmp_path / "target.json"
        save_configuration(square, str(target_path), "json")
        code, report, _ = run_cli(capsys, "find-copy", "--input", str(host_path),
                                  "--target", str(target_path))
        assert code == 0
        assert report["outputs"]["found"] is True
        assert sorted(report["outputs"]["indices"]) == [0, 1, 2]

    def test_construct_regular(self, capsys):
        code, report, _ = run_cli(capsys, "construct", "regular", "--dim", "3")
        assert code == 0
        pts = np.array(report["outputs"]["configuration"]["points"])
        assert pts.shape == (4, 3)


class TestRoundTrip:
    @pytest.mark.parametrize("build", [
        ("construct", "regular", "--dim", "3"),
        ("construct", "cor3", "--dim", "2", "--delta", "0.01"),
        ("construct", "obtuse", "--alpha", "150"),
    ])
    def test_every_construct_feeds_every_analysis(self, capsys, tmp_path, build):
        out = tmp_path / "config.json"
        code, _, _ = run_cli(capsys, *build, "--out", str(out))
        assert code == 0
        for analysis in ("diameter", "meb", "circumsphere", "jung",
                         "obstruct", "conjecture"):
            code, report, _ = run_cli(capsys, analysis, "--input", str(out))
            assert code == 0, (build, analysis)
            assert report["outputs"]

    def test_csv_round_trip(self, capsys, tmp_path):
        out = tmp_path / "tri.csv"
        code, _, _ = run_cli(capsys, "construct", "obtuse", "--alpha", "120",
                             "--format", "csv", "--out", str(out))
        assert code == 0
        code, report, _ = run_cli(capsys, "diameter", "--input", str(out),
                                  "--format", "csv")
        assert code == 0
        assert report["outputs"]["diameter"] == pytest.approx(1.0)


class TestErrors:
    def test_domain_error_exits_one_with_json_stderr(self, capsys, tmp_path):
        # triangle plus centroid: not spherical
        path = tmp_path / "bad.json"
        tri = regular_simplex(2)
        pts = np.vstack([tri.points, tri.points.mean(axis=0)]).tolist()
        path.write_text(json.dumps({"dim": 2, "points": pts}))
        code = cli.run(["obstruct", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "NotSpherical"
        assert captured.out.startswith("error:")

    def test_missing_file_exits_one(self, capsys):
        code = cli.run(["diameter", "--input", "/nonexistent/x.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"] == "IOError"

    def test_memory_error_exits_one(self, capsys):
        # a simplex of 10^8 + 1 vertices needs ~71 PiB, so numpy refuses at once
        code = cli.run(["construct", "regular", "--dim", "100000000"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"] == "MemoryError"
        assert captured.out.startswith("error: MemoryError:")
        assert "Traceback" not in captured.err + captured.out

    def test_usage_error_exits_two(self, capsys):
        assert cli.run(["obstruct"]) == 2
        assert cli.run(["no-such-command"]) == 2

    @pytest.mark.parametrize("command", ["estimate-c", "oracle"])
    def test_ambient_dim_is_usage_error(self, capsys, tri150, command):
        # c(A, r) depends on no ambient dimension, so there is none to pick
        assert cli.run([command, "--input", tri150, "--radius", "0.9",
                        "--ambient-dim", "3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args, reason", [
        (("falsify", "--radius", "1e300", "--shell", "1e-300", "--samples", "10"),
         "overflows"),
        (("color", "--shell", "1e-310"), "overflows"),
    ])
    def test_colour_count_overflow_exits_one(self, capsys, tri150, args, reason):
        code = cli.run([args[0], "--input", tri150, *args[1:]])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "DomainError"
        assert reason in err["message"]

    @pytest.mark.parametrize("command", ["estimate-c", "circumsphere", "obstruct"])
    def test_negative_tol_is_usage_error(self, capsys, tri150, command):
        extra = ["--radius", "0.9"] if command == "estimate-c" else []
        assert cli.run([command, "--input", tri150, *extra, "--tol=-1"]) == 2
        assert cli.run([command, "--input", tri150, *extra, "--tol=0"]) in (0, 1)
        capsys.readouterr()

    def test_infeasible_exits_one(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"dim": 2, "points": [[0, 0], [1, 0]]}))
        code = cli.run(["falsify", "--input", str(path), "--radius", "0.4",
                        "--shell", "0.01", "--samples", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"] == "Infeasible"


class TestMalformedFiles:
    """A malformed input file exits 1 with a JSON DomainError, never a traceback."""

    PAIR = [[0, 0], [1, 0]]

    @pytest.mark.parametrize("data", [
        {"dim": "abc", "points": PAIR},
        {"dim": None, "points": PAIR},
        {"dim": 2.7, "points": PAIR},
        {"dim": True, "points": [[0], [1]]},
        {"dim": 2, "points": [["a", 0], [1, 0]]},
        {"dim": 2, "points": [[True, 0], [1, 0]]},
    ], ids=["dim-string", "dim-null", "dim-float", "dim-bool", "string-coordinate",
            "bool-coordinate"])
    def test_configuration(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        self.assert_domain_error(capsys, ["diameter", "--input", str(path)])

    @pytest.mark.parametrize("colors", [[0.5, 0], 5, "ab", [None, 0], [True, 0]],
                             ids=["half", "number", "string", "null", "bool"])
    def test_colours(self, capsys, tmp_path, colors):
        # Colour 0.5 used to be floored to 0, so the two points counted as
        # monochromatic and find-copy reported a copy of the pair.
        host = tmp_path / "host.json"
        host.write_text(json.dumps({"dim": 2, "points": self.PAIR, "colors": colors}))
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"dim": 2, "points": self.PAIR}))
        self.assert_domain_error(
            capsys, ["find-copy", "--input", str(host), "--target", str(target)])

    @pytest.mark.parametrize("command", ["diameter", "find-copy"])
    def test_undecodable_text(self, capsys, tmp_path, command):
        # find-copy reads its --input through the coloured reader
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe\x00")
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"dim": 2, "points": self.PAIR}))
        extra = ["--target", str(target)] if command == "find-copy" else []
        self.assert_domain_error(capsys, [command, "--input", str(bad), *extra])

    @staticmethod
    def assert_domain_error(capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"] == "DomainError"
        assert "Traceback" not in captured.err + captured.out


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


# Every subcommand with valid values for its flags ({tri} is a triangle file,
# {host} a coloured one), and the float flags it takes.
COMMANDS = {
    "diameter": ("diameter --input {tri}", ()),
    "meb": ("meb --input {tri}", ()),
    "circumsphere": ("circumsphere --input {tri}", ()),
    "jung": ("jung --input {tri}", ()),
    "obstruct": ("obstruct --input {tri}", ()),
    "conjecture": ("conjecture --input {tri}", ()),
    "triangle": ("triangle --alpha 150 --side 1", ("--alpha", "--side")),
    "estimate-c": ("estimate-c --input {tri} --radius 0.95 --restarts 4",
                   ("--radius",)),
    "oracle": ("oracle --input {tri} --radius 0.95 --samples 2000", ("--radius",)),
    "color": ("color --input {tri} --shell 0.1", ("--shell",)),
    "falsify": ("falsify --input {tri} --radius 0.95 --shell 0.005 --samples 2000",
                ("--radius", "--shell")),
    "find-copy": ("find-copy --input {host} --target {tri}", ()),
    **{f"construct-{shape}": (f"construct {shape}", ("--delta", "--alpha", "--side"))
       for shape in ("regular", "cor3", "obtuse")},
}


# integer flags beyond --seed, which every command takes
INTEGER_FLAGS = {
    "estimate-c": ("--restarts", "--oracle-samples"),
    "oracle": ("--samples",),
    "falsify": ("--samples",),
    **{f"construct-{shape}": ("--dim",) for shape in ("regular", "cor3", "obtuse")},
}

# the commands whose handlers read --tol; no other command takes it
TOL_COMMANDS = ("circumsphere", "conjecture", "estimate-c", "find-copy", "obstruct")


class TestBadNumbers:
    @staticmethod
    def _base(tmp_path, tri150, command):
        """COMMANDS[command] as an argv, with a coloured host for find-copy."""
        colored = ColoredConfiguration(configuration=regular_simplex(2),
                                       colors=(0, 0, 0))
        host = tmp_path / "host.json"
        host.write_text(json.dumps(colored_to_dict(colored)))
        template, _ = COMMANDS[command]
        return [part.format(tri=tri150, host=host) for part in template.split()]

    @classmethod
    def _sweep(cls, capsys, tmp_path, tri150, command, flags, values):
        # each run exits 0 with a finite report, 1 with a JSON error, or 2
        base = cls._base(tmp_path, tri150, command)
        failures = []
        for flag in flags:
            for value in values:
                arg = f"{flag}={value}"
                try:
                    code = cli.run(base + [arg])
                    captured = capsys.readouterr()
                    if code == 1:
                        assert "error" in json.loads(captured.err)
                    elif code == 0:
                        json.loads(captured.out, parse_constant=_reject_constant)
                    else:
                        assert code == 2, f"exit {code}"
                except Exception as exc:  # collect every bad run, not just the first
                    capsys.readouterr()
                    failures.append(f"{arg}: {type(exc).__name__}: {exc}")
        assert not failures, failures

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_float_flag(self, capsys, tmp_path, tri150, command):
        tol = ("--tol",) if command in TOL_COMMANDS else ()
        self._sweep(capsys, tmp_path, tri150, command, tol + COMMANDS[command][1],
                    ("nan", "inf", "-inf", "0", "-1"))

    @pytest.mark.parametrize("command", TOL_COMMANDS)
    def test_tol_is_taken_where_read(self, capsys, tmp_path, tri150, command):
        base = self._base(tmp_path, tri150, command)
        assert cli.run(base + ["--tol=1e-6"]) in (0, 1)
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag", [
        *((command, "--tol") for command in ("diameter", "meb", "jung", "triangle", "oracle",
                                             "color", "falsify", "construct-obtuse")),
        ("triangle", "--format"),
    ])
    def test_flag_no_handler_reads_is_usage_error(self, capsys, tmp_path, tri150, command,
                                                  flag):
        value = "json" if flag == "--format" else "1e-6"
        assert cli.run(self._base(tmp_path, tri150, command) + [flag, value]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_integer_flag(self, capsys, tmp_path, tri150, command):
        self._sweep(capsys, tmp_path, tri150, command,
                    ("--seed",) + INTEGER_FLAGS.get(command, ()), ("-1", "0"))

    @pytest.mark.parametrize("args", [
        ("meb", "--input", "{tri}", "--seed", "-1"),
        ("oracle", "--input", "{tri}", "--radius", "0.95", "--seed", "-1"),
        ("falsify", "--input", "{tri}", "--radius", "0.95", "--shell", "0.005",
         "--samples", "-5"),
        ("estimate-c", "--input", "{tri}", "--radius", "0.95", "--oracle-samples", "-5"),
        ("estimate-c", "--input", "{tri}", "--radius", "0.95", "--restarts", "0"),
        ("estimate-c", "--input", "{tri}", "--radius", "0.95", "--restarts", "-3"),
    ])
    def test_negative_counts_are_usage_errors(self, capsys, tri150, args):
        code, _, _ = run_cli(capsys, *(arg.format(tri=tri150) for arg in args))
        assert code == 2


class TestDeterminism:
    def _outputs(self, capsys, *args):
        code, report, _ = run_cli(capsys, *args)
        assert code == 0
        return report["outputs"]

    @pytest.mark.parametrize("args", [
        ("meb",),
        ("estimate-c", "--radius", "0.9", "--restarts", "3"),
        ("oracle", "--radius", "0.9", "--samples", "3000"),
        ("falsify", "--radius", "0.9", "--shell", "0.01", "--samples", "2000"),
    ])
    def test_identical_seed_identical_outputs(self, capsys, tri150, args):
        full = list(args[:1]) + ["--input", tri150] + list(args[1:]) + \
            ["--seed", "17"]
        first = self._outputs(capsys, *full)
        second = self._outputs(capsys, *full)
        assert first == second


def test_module_entry_point():
    # The child gets the package's directory on PYTHONPATH, so the test
    # runs under plain `python -m pytest` as well as with pyproject's
    # pythonpath.
    src = str(Path(diamramsey.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "diamramsey.cli", "triangle", "--alpha", "150"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["outputs"]["status"] == "NotDiameterRamsey"
