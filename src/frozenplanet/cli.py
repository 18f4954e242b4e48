"""Command-line front end: solve, scan, threshold, and verify.

Output is machine readable (JSON for single solves and the threshold, CSV
for scans and trajectory export) and deterministic: identical invocations
produce byte-identical payloads except for the manifest's wall_time.
Configuration precedence is CLI flags, then the key-value file named by
``FROZEN_PLANET_CONFIG``, then built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .certify import run_suite
from .errors import ConvergenceError, DomainError
from .intersect import classify_kappa, critical_gamma, critical_mu
from .orbit import energy_residual, mean_residual, reconstruct
from .solver import solve_orbit
from .specialfn import lemniscate_constant

_CONFIG_ENV = "FROZEN_PLANET_CONFIG"
# Each config key with its type and built-in default.
_CONFIG_KEYS = {"tol": (float, 1e-10), "samples": (int, 512)}

_SCAN_HEADER = "mu,gamma,qbar1,qbar2,kappa,q1max,q1antimax,eta,class"
# Largest scan --steps accepted.  A scan holds its CSV rows until the last
# solve, so that a failed solve writes nothing; that peaks at about 230
# bytes per row (tracemalloc, 8,000 rows), about 120 MB at 2**19 rows, as
# much as the largest trajectory rebuild.
_MAX_STEPS = 2**19
# Trajectory rows formatted per block of CSV text.
_CSV_BLOCK = 2**16


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key or not value.strip():
            raise DomainError(f"malformed config line {raw!r} in {path!r}")
        if key not in _CONFIG_KEYS:
            raise DomainError(
                f"unknown config key {key!r} in {path!r}; known keys: "
                + ", ".join(_CONFIG_KEYS)
            )
        values[key] = value.strip()
    return values


def _fill_config(args: argparse.Namespace) -> None:
    """Set ``args.tol`` and ``args.samples`` where no flag gave them.

    Each comes from the config file named by ``FROZEN_PLANET_CONFIG`` if it
    holds the key, else from the built-in default.  The file is parsed for
    every subcommand, also for those without these flags.
    """
    cfg_path = os.environ.get(_CONFIG_ENV)
    file_cfg = _parse_config_file(cfg_path) if cfg_path else {}
    for key, (cast, default) in _CONFIG_KEYS.items():
        if getattr(args, key, None) is not None:
            continue
        value = default
        if key in file_cfg:
            try:
                value = cast(file_cfg[key])
            except ValueError as exc:
                raise DomainError(f"invalid config value for {key}: {exc}") from exc
        setattr(args, key, value)


def _manifest(command: str, parameters: dict, wall_time: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "wall_time": wall_time,
    }


def _write_file(path: str, parts: Iterable[str]) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise DomainError(f"cannot write output file {path!r}: {exc}") from exc


def _emit(parts: Iterable[str], out_path: str | None) -> None:
    """Write the text pieces ``parts``, in order, to stdout or ``out_path``."""
    if out_path in (None, "-"):
        sys.stdout.writelines(parts)
    else:
        _write_file(out_path, parts)


def _splice_arrays(text: str, arrays: dict[str, np.ndarray]) -> list[str]:
    """Pieces of the JSON ``text`` with each placeholder string replaced.

    ``arrays`` maps placeholders, in the order they appear in ``text``, to
    the arrays that stand there.  An indented ``json.dumps`` runs Python's
    pure-Python encoder; each array is instead encoded on one line by the
    C encoder, which writes the same float reprs.
    """
    parts = []
    for slot, arr in arrays.items():
        head, _, text = text.partition(json.dumps(slot))
        parts += [head, json.dumps(arr.tolist())]
    parts.append(text)
    return parts


def _trajectory_csv(t: np.ndarray, q1: np.ndarray, q2: float) -> Iterator[str]:
    """The CSV rows t,q1,q2 under their header, in blocks of _CSV_BLOCK rows."""
    yield "t,q1,q2\n"
    q2_text = repr(q2)
    for start in range(0, t.size, _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        rows = zip(t[start:stop].tolist(), q1[start:stop].tolist())
        yield "".join([f"{t_j!r},{q_j!r},{q2_text}\n" for t_j, q_j in rows])


def _emit_sidecar_manifest(manifest: dict, out_path: str | None) -> None:
    """CSV cannot embed the manifest, so it accompanies the payload.

    It goes next to a regular output file and to stderr otherwise: for
    stdout, and for an output path such as /dev/null that names a device
    or pipe, beside which no file belongs.
    """
    text = json.dumps(manifest, indent=2) + "\n"
    if out_path in (None, "-") or not os.path.isfile(out_path):
        sys.stderr.write(text)
    else:
        _write_file(str(out_path) + ".manifest.json", [text])


def _cmd_solve(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    sol = solve_orbit(args.mu, tol=args.tol)
    traj = reconstruct(sol, args.samples)
    residual_mean = mean_residual(traj)
    residual_energy = energy_residual(traj)
    manifest = _manifest(
        "solve",
        {
            "mu": args.mu,
            "tol": args.tol,
            "samples": args.samples,
            "format": args.format,
        },
        time.perf_counter() - start,
    )
    if args.format == "json":
        payload = {
            "manifest": manifest,
            "solution": {
                "mu": sol.mu,
                "gamma": sol.gamma,
                "qbar1": sol.qbar1,
                "qbar2": sol.qbar2,
                "kappa": sol.kappa,
                "q1max": sol.q1max,
                "q1antimax": sol.q1antimax,
                "eta": sol.eta,
                "residuals": {
                    "fixpoint": sol.fixpoint_residual,
                    "mean": residual_mean,
                    "energy": residual_energy,
                },
            },
            "trajectory": {"q2": sol.qbar2, "t": "@t@", "q1": "@q1@"},
        }
        text = json.dumps(payload, indent=2) + "\n"
        _emit(_splice_arrays(text, {"@t@": traj.t, "@q1@": traj.q1}), args.out)
    else:
        _emit(_trajectory_csv(traj.t, traj.q1, sol.qbar2), args.out)
        _emit_sidecar_manifest(manifest, args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    for flag, value in (("--mu-min", args.mu_min), ("--mu-max", args.mu_max)):
        if not math.isfinite(value):
            raise DomainError(f"scan requires a finite {flag}, got {value!r}")
    if not 1.0 < args.mu_min < args.mu_max:
        raise DomainError(
            f"scan requires 1 < mu_min < mu_max, got [{args.mu_min!r}, {args.mu_max!r}]"
        )
    if not 2 <= args.steps <= _MAX_STEPS:
        raise DomainError(f"scan requires 2 <= --steps <= {_MAX_STEPS}, got {args.steps!r}")
    start = time.perf_counter()
    lines = [_SCAN_HEADER + "\n"]
    for mu in np.linspace(args.mu_min, args.mu_max, args.steps):
        sol = solve_orbit(float(mu), tol=args.tol)
        verdict = classify_kappa(sol.kappa)
        lines.append(
            f"{sol.mu!r},{sol.gamma!r},{sol.qbar1!r},{sol.qbar2!r},"
            f"{sol.kappa!r},{sol.q1max!r},{sol.q1antimax!r},{sol.eta!r},"
            f"{verdict.value}\n"
        )
    manifest = _manifest(
        "scan",
        {
            "mu_min": args.mu_min,
            "mu_max": args.mu_max,
            "steps": args.steps,
            "tol": args.tol,
        },
        time.perf_counter() - start,
    )
    _emit(lines, args.out)
    _emit_sidecar_manifest(manifest, args.out)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    varpi = lemniscate_constant()
    payload_body = {
        "varpi": varpi,
        "gamma_star": critical_gamma(),
        "mu_star": critical_mu(),
        "formulas": {
            "varpi": "2 * integral_0^1 dt / sqrt(1 - t^4) = Gamma(1/4)^2 / sqrt(8 pi)",
            "gamma_star": "(3 pi - varpi^2) / varpi^2",
            "mu_star": "(3 pi / (3 pi - varpi^2))^2 = ((gamma_star + 1) / gamma_star)^2",
        },
    }
    manifest = _manifest("threshold", {}, time.perf_counter() - start)
    payload = {"manifest": manifest, **payload_body}
    _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.level)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] {r.name:<{width}}  {r.detail}\n")
    n_pass = sum(r.passed for r in results)
    sys.stdout.write(f"passed {n_pass}/{len(results)} ({args.level} suite)\n")
    return 0 if n_pass == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frozen-planet",
        description=(
            "Periodic orbits of the mean-interaction collinear helium model: "
            "solve for a charge, scan a charge range, print the intersection "
            "threshold, or verify the numerical certificates."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the periodic orbit for one charge")
    p_solve.add_argument("--mu", type=float, required=True, help="nucleus charge (> 1)")
    p_solve.add_argument(
        "--tol", type=float, default=None, help="|F - 2| residual tolerance (default 1e-10)"
    )
    p_solve.add_argument(
        "--samples",
        type=int,
        default=None,
        help="trajectory samples per period, even, 16 to 2**20 (default 512)",
    )
    p_solve.add_argument("--out", default="-", help="output path or - for stdout")
    p_solve.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="json: solution + trajectory; csv: t,q1,q2 trajectory export",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_scan = sub.add_parser("scan", help="solve and classify a range of charges (CSV)")
    p_scan.add_argument("--mu-min", type=float, required=True)
    p_scan.add_argument("--mu-max", type=float, required=True)
    p_scan.add_argument("--steps", type=int, default=50, help="row count, 2 to 2**19 (default 50)")
    p_scan.add_argument(
        "--tol", type=float, default=None, help="per-solve residual tolerance"
    )
    p_scan.add_argument("--out", default="-", help="output path or - for stdout")
    p_scan.set_defaults(func=_cmd_scan)

    p_thresh = sub.add_parser(
        "threshold", help="print the lemniscatic intersection threshold (JSON)"
    )
    p_thresh.add_argument("--out", default="-", help="output path or - for stdout")
    p_thresh.set_defaults(func=_cmd_threshold)

    p_verify = sub.add_parser("verify", help="run the numerical certification suites")
    p_verify.add_argument(
        "level",
        nargs="?",
        choices=("fast", "full"),
        default="fast",
        help="fast: anchors and identities; full: adds grid certificates",
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_config(args)
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
