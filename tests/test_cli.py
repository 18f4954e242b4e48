"""Tests for the command-line interface (in-process via ``main``)."""

import dataclasses
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import frozenplanet as fp
from frozenplanet import cli
from frozenplanet.cli import main

WALL_TIME = re.compile(r'"wall_time": [^,}\n]+')
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("FROZEN_PLANET_CONFIG", raising=False)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json_payload(capsys):
    code, out, err = _run(capsys, ["solve", "--mu", "2", "--samples", "32"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"manifest", "solution", "trajectory"}
    sol = payload["solution"]
    for key in ("mu", "gamma", "qbar1", "qbar2", "kappa", "q1max", "q1antimax", "eta"):
        assert isinstance(sol[key], float)
    assert set(sol["residuals"]) == {"fixpoint", "mean", "energy"}
    assert len(payload["trajectory"]["t"]) == 33
    assert len(payload["trajectory"]["q1"]) == 33
    manifest = payload["manifest"]
    assert manifest["command"] == "solve"
    assert "kernel" not in manifest
    assert "quadrature" not in manifest
    # JSON floats are reprs and therefore round-trip bitwise.
    assert sol["qbar1"] == fp.solve_orbit(2.0).qbar1


def test_solve_json_arrays_one_line_each(capsys):
    # The indented payload carries t and q1 each on one line, encoded by the
    # C encoder, and they parse bitwise to the rebuild's arrays.
    code, out, _ = _run(capsys, ["solve", "--mu", "2", "--samples", "32"])
    assert code == 0
    traj = fp.reconstruct(fp.solve_orbit(2.0), 32)
    lines = [line.rstrip(",") for line in out.splitlines()]
    for key in ("t", "q1"):
        values = getattr(traj, key).tolist()
        assert f'    "{key}": {json.dumps(values)}' in lines
        assert json.loads(out)["trajectory"][key] == values
    assert lines[-1] == "}" and out.endswith("}\n")


def test_solve_csv_blocks_join_to_the_rows(capsys, monkeypatch):
    # Rows written in blocks of 5 equal the rows formatted one by one.
    monkeypatch.setattr(cli, "_CSV_BLOCK", 5)
    code, out, _ = _run(capsys, ["solve", "--mu", "2", "--samples", "16", "--format", "csv"])
    assert code == 0
    sol = fp.solve_orbit(2.0)
    traj = fp.reconstruct(sol, 16)
    rows = [f"{t!r},{q!r},{sol.qbar2!r}" for t, q in zip(traj.t.tolist(), traj.q1.tolist())]
    assert out == "\n".join(["t,q1,q2", *rows]) + "\n"


def test_solve_deterministic_modulo_wall_time(capsys):
    argv = ["solve", "--mu", "3.5", "--samples", "32"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 != "" and WALL_TIME.search(out1)
    assert WALL_TIME.sub("", out1) == WALL_TIME.sub("", out2)


def test_solve_rejects_unbound_charge(capsys):
    code, out, err = _run(capsys, ["solve", "--mu", "1"])
    assert code == 2
    assert out == ""
    assert "ioniz" in err
    for mu in ("nan", "inf"):
        code, out, err = _run(capsys, ["solve", "--mu", mu])
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_solve_rejects_odd_samples(capsys, tmp_path):
    code, _, err = _run(capsys, ["solve", "--mu", "2", "--samples", "33"])
    assert code == 2
    assert "error:" in err
    # An output file that cannot be written is a bad input too: a missing
    # directory, or a directory where the CSV manifest sidecar should go.
    (tmp_path / "traj.csv.manifest.json").mkdir()
    for extra in (
        ["--out", str(tmp_path / "missing" / "x.json")],
        ["--format", "csv", "--out", str(tmp_path / "traj.csv")],
    ):
        code, out, err = _run(capsys, ["solve", "--mu", "2", "--samples", "16", *extra])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "cannot write" in err


def test_solve_rejects_huge_samples(capsys):
    # Rejected before any array is allocated, so this costs no memory.
    for samples in (str(2**20 + 2), "1000000000000"):
        code, out, err = _run(capsys, ["solve", "--mu", "2", "--samples", samples])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n_samples" in err


def test_solve_csv_file_with_sidecar_manifest(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, err = _run(
        capsys,
        ["solve", "--mu", "2", "--samples", "16", "--format", "csv", "--out", str(out_path)],
    )
    assert code == 0
    assert out == "" and err == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,q1,q2"
    assert len(lines) == 18  # header + n + 1 samples
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["parameters"]["format"] == "csv"


def test_solve_csv_to_device_manifest_on_stderr(capsys):
    # An output path that is not a regular file, such as the null device,
    # gets no sidecar beside it: the manifest goes to stderr instead.
    stray = os.devnull + ".manifest.json"
    before = os.path.exists(stray)
    for argv in (
        ["solve", "--mu", "2", "--samples", "16", "--format", "csv"],
        ["scan", "--mu-min", "2", "--mu-max", "3", "--steps", "2"],
    ):
        code, out, err = _run(capsys, argv + ["--out", os.devnull])
        assert code == 0
        assert out == ""
        assert json.loads(err)["command"] == argv[0]
        assert os.path.exists(stray) == before


def test_solve_csv_stdout_manifest_on_stderr(capsys):
    code, out, err = _run(capsys, ["solve", "--mu", "2", "--samples", "16", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "t,q1,q2"
    assert json.loads(err)["command"] == "solve"


def test_solve_at_critical_charge(capsys):
    code, out, _ = _run(capsys, ["solve", "--mu", repr(fp.critical_mu()), "--samples", "16"])
    assert code == 0
    assert abs(json.loads(out)["solution"]["kappa"]) <= 1e-8


def test_scan_schema_and_single_flip(capsys):
    code, out, err = _run(
        capsys, ["scan", "--mu-min", "1.5", "--mu-max", "20", "--steps", "10"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,gamma,qbar1,qbar2,kappa,q1max,q1antimax,eta,class"
    assert len(lines) == 11
    classes = [row.split(",")[-1] for row in lines[1:]]
    assert set(classes) <= {"Disjoint", "Touches", "Intersects"}
    flips = sum(a != b for a, b in zip(classes, classes[1:]))
    assert flips == 1
    assert classes[0] == "Disjoint" and classes[-1] == "Intersects"
    for row in lines[1:]:
        fields = row.split(",")
        kappa = float(fields[4])
        expected = "Intersects" if kappa > 0 else "Disjoint"
        assert fields[-1] == expected
    # CSV cannot embed the manifest; it lands on stderr for stdout output.
    assert json.loads(err)["command"] == "scan"


def test_scan_to_file(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, err = _run(
        capsys,
        ["scan", "--mu-min", "2", "--mu-max", "4", "--steps", "3", "--out", str(out_path)],
    )
    assert code == 0 and out == "" and err == ""
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4
    mus = [float(row.split(",")[0]) for row in lines[1:]]
    assert mus == [2.0, 3.0, 4.0]
    assert (tmp_path / "scan.csv.manifest.json").exists()


def test_scan_rejects_bad_ranges(capsys, tmp_path):
    unwritable = str(tmp_path / "missing" / "scan.csv")
    for argv in (
        ["scan", "--mu-min", "0.5", "--mu-max", "2"],
        ["scan", "--mu-min", "1.0", "--mu-max", "2"],
        ["scan", "--mu-min", "3", "--mu-max", "2"],
        ["scan", "--mu-min", "2", "--mu-max", "2"],
        ["scan", "--mu-min", "2", "--mu-max", "4", "--steps", "1"],
        ["scan", "--mu-min", "2", "--mu-max", "4", "--steps", "2", "--out", unwritable],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 2
        assert "error:" in err


def test_scan_rejects_non_finite_bounds(capsys, recwarn):
    # A non-finite bound is named by its flag before the grid is built, so
    # np.linspace never runs on it and no charge the user did not pass
    # (such as the NaN that linspace makes from an infinite end) is reported.
    for flag, other, value in (
        ("--mu-max", ("--mu-min", "2"), "inf"),
        ("--mu-max", ("--mu-min", "2"), "nan"),
        ("--mu-min", ("--mu-max", "4"), "nan"),
        ("--mu-min", ("--mu-max", "4"), "-inf"),
    ):
        code, out, err = _run(capsys, ["scan", f"{flag}={value}", *other, "--steps", "3"])
        assert code == 2
        assert out == ""
        assert err == f"error: scan requires a finite {flag}, got {float(value)!r}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_scan_rejects_steps_above_cap(capsys, monkeypatch):
    # A scan holds its rows until the last solve, so --steps is capped; a
    # count above the cap is named by its flag before any charge is solved.
    solved = []
    monkeypatch.setattr(cli, "solve_orbit", lambda mu, tol: solved.append(mu))
    too_many = cli._MAX_STEPS + 1
    code, out, err = _run(
        capsys, ["scan", "--mu-min", "2", "--mu-max", "4", "--steps", str(too_many)]
    )
    assert (code, out, solved) == (2, "", [])
    assert err == f"error: scan requires 2 <= --steps <= {cli._MAX_STEPS}, got {too_many}\n"


def test_threshold_payload(capsys):
    code, out, _ = _run(capsys, ["threshold"])
    assert code == 0
    payload = json.loads(out)
    assert payload["varpi"] == fp.lemniscate_constant()
    assert payload["gamma_star"] == fp.critical_gamma()
    assert payload["mu_star"] == fp.critical_mu()
    assert "formulas" in payload


def test_threshold_route_disagreement_exit_code(capsys, broken_varpi):
    code, out, err = _run(capsys, ["threshold"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "routes disagree" in err


def test_verify_fast(capsys):
    code, out, _ = _run(capsys, ["verify", "fast"])
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert re.search(r"passed (\d+)/\1 \(fast suite\)", out)


def test_verify_failure_exit_code(capsys, monkeypatch):
    # A failed certificate prints its [FAIL] line and the count of those
    # passed, and exits 1, the code kept for a failed verification.
    run_suite = cli.run_suite

    def first_fails(level):
        results = run_suite(level)
        results[0] = dataclasses.replace(results[0], passed=False)
        return results

    monkeypatch.setattr(cli, "run_suite", first_fails)
    code, out, err = _run(capsys, ["verify", "fast"])
    lines = out.splitlines()
    n = len(lines) - 1
    assert (code, err) == (1, "")
    assert lines[0].startswith("[FAIL] ")
    assert all(line.startswith("[PASS] ") for line in lines[1:-1])
    assert lines[-1] == f"passed {n - 1}/{n} (fast suite)"


def test_verify_reports_every_check_when_a_route_breaks(capsys, broken_varpi):
    # With the lemniscate's arc-length route broken, the routes' own check
    # fails with its numbers, every other check that needs the constant
    # raises ConvergenceError and is reported as a FAIL line naming the
    # error, the one check without it still passes, and verify exits 1, the
    # code of a failed verification, not 3.
    code, out, err = _run(capsys, ["verify", "fast"])
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert len(lines) == 8 and lines[-1] == "passed 1/7 (fast suite)"
    assert lines[0].startswith("[PASS] anchor_f_value ")
    routes = [line for line in lines if line.startswith("[FAIL] lemniscate_routes ")]
    assert len(routes) == 1 and "route agreement=" in routes[0], lines
    assert "Error" not in routes[0], routes[0]
    for line in lines[1:-1]:
        if line in routes:
            continue
        assert line.startswith("[FAIL] ") and "  ConvergenceError: " in line, line
        assert "routes disagree" in line, line


def test_closed_stdout_exit_code():
    # A reader that closes the pipe early, as `| head -c 50` does, leaves
    # an unwritable standard output: exit 2 with one error line, and no
    # traceback from the interpreter's last flush either.  The JSON payload
    # of 65,536 samples, about 2.6 MB, outgrows the pipe's buffer, so the
    # solve is still writing when the pipe closes.
    launcher = "from frozenplanet.cli import entry; entry()"
    proc = subprocess.Popen(
        [sys.executable, "-c", launcher, "solve", "--mu", "2", "--samples", "65536"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert head.startswith(b"{")
    assert err.startswith("error: cannot write to standard output: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_config_file_and_flag_precedence(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "fp.cfg"
    cfg.write_text("tol = 1e-12  # comment\nsamples = 64\n")
    monkeypatch.setenv("FROZEN_PLANET_CONFIG", str(cfg))

    code, out, _ = _run(capsys, ["solve", "--mu", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["parameters"]["tol"] == 1e-12  # tol from file
    assert len(payload["trajectory"]["t"]) == 65  # samples from file

    # An explicit flag beats the file.
    code, out, _ = _run(capsys, ["solve", "--mu", "2", "--tol", "1e-11", "--samples", "32"])
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["parameters"]["tol"] == 1e-11
    assert len(payload["trajectory"]["t"]) == 33


def test_config_file_errors(capsys, tmp_path, monkeypatch):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("nodes = 32\n")
    monkeypatch.setenv("FROZEN_PLANET_CONFIG", str(bad_key))
    code, _, err = _run(capsys, ["threshold"])
    assert code == 2 and "unknown config key" in err

    # quad_nodes names no setting, so it is an unknown key like any other.
    quad_key = tmp_path / "quad_key.cfg"
    quad_key.write_text("quad_nodes = 64\n")
    monkeypatch.setenv("FROZEN_PLANET_CONFIG", str(quad_key))
    code, _, err = _run(capsys, ["threshold"])
    assert code == 2 and "unknown config key" in err

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("tol\n")
    monkeypatch.setenv("FROZEN_PLANET_CONFIG", str(malformed))
    code, _, err = _run(capsys, ["threshold"])
    assert code == 2 and "malformed" in err

    monkeypatch.setenv("FROZEN_PLANET_CONFIG", str(tmp_path / "missing.cfg"))
    code, _, err = _run(capsys, ["threshold"])
    assert code == 2 and "cannot read" in err


def test_config_file_not_utf8(capsys, tmp_path, monkeypatch):
    # A file that is not UTF-8 is a bad input, not a crash.
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    monkeypatch.setenv("FROZEN_PLANET_CONFIG", str(cfg))
    code, out, err = _run(capsys, ["solve", "--mu", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cannot read config file" in err


def test_nonconvergence_exit_code(capsys, unsettled_rebuild):
    # The orbit mean at mu = 1e308 exceeds 2**1023, so its bracket overflows.
    code, out, err = _run(capsys, ["solve", "--mu", "1e308", "--samples", "16"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "overflowed" in err

    # One Newton step from each cell's midpoint leaves samples unsettled.
    code, out, err = _run(capsys, ["solve", "--mu", "2", "--samples", "64"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "did not settle" in err


def test_period_overflow_exit_code(capsys, tmp_path):
    # From mu of about 4.95e307 the period is not a finite double; the solve
    # fails with exit 3 instead of writing "eta": Infinity, which is not JSON.
    target = tmp_path / "orbit.json"
    for out in ("-", str(target)):
        code, stdout, err = _run(capsys, ["solve", "--mu", "5e307", "--out", out])
        assert code == 3
        assert stdout == ""
        assert err.startswith("error:") and "period of the orbit overflowed" in err
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == fp.__version__


def test_console_script_installed():
    # The target that ``[project.scripts]`` declares is checked in every
    # checkout; the generated script only where the package is installed.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["frozen-planet"]
    module, _, attr = target.partition(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == fp.__version__

    try:
        importlib.metadata.distribution("frozenplanet")
    except importlib.metadata.PackageNotFoundError:
        return
    exe = shutil.which("frozen-planet")
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == fp.__version__
