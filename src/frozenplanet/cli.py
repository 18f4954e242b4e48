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
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .certify import run_suite
from .errors import ConvergenceError, DomainError
from .intersect import classify_kappa, critical_gamma, critical_mu
from .orbit import energy_residual, mean_residual, reconstruct
from .solver import solve_orbit
from .specialfn import lemniscate_constant

_DEFAULT_TOL = 1e-10
_DEFAULT_SAMPLES = 512
_CONFIG_ENV = "FROZEN_PLANET_CONFIG"
_CONFIG_KEYS = ("tol", "samples")

_SCAN_HEADER = "mu,gamma,qbar1,qbar2,kappa,q1max,q1antimax,eta,class"


@dataclass(frozen=True)
class Settings:
    """Fully resolved run configuration."""

    tol: float
    samples: int


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


def _resolve_settings(args: argparse.Namespace) -> Settings:
    file_cfg: dict[str, str] = {}
    cfg_path = os.environ.get(_CONFIG_ENV)
    if cfg_path:
        file_cfg = _parse_config_file(cfg_path)

    def pick(flag_value, key, cast, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            try:
                return cast(file_cfg[key])
            except ValueError as exc:
                raise DomainError(f"invalid config value for {key}: {exc}") from exc
        return default

    return Settings(
        tol=pick(getattr(args, "tol", None), "tol", float, _DEFAULT_TOL),
        samples=pick(getattr(args, "samples", None), "samples", int, _DEFAULT_SAMPLES),
    )


def _manifest(command: str, parameters: dict, wall_time: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "wall_time": wall_time,
    }


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise DomainError(f"cannot write output file {path!r}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        _write_file(out_path, text)


def _emit_sidecar_manifest(manifest: dict, out_path: str | None) -> None:
    """CSV cannot embed the manifest, so it accompanies the payload."""
    text = json.dumps(manifest, indent=2) + "\n"
    if out_path in (None, "-"):
        sys.stderr.write(text)
    else:
        _write_file(str(out_path) + ".manifest.json", text)


def _cmd_solve(args: argparse.Namespace, settings: Settings) -> int:
    start = time.perf_counter()
    sol = solve_orbit(args.mu, tol=settings.tol)
    traj = reconstruct(sol, settings.samples)
    residual_mean = mean_residual(traj)
    residual_energy = energy_residual(traj)
    manifest = _manifest(
        "solve",
        {
            "mu": args.mu,
            "tol": settings.tol,
            "samples": settings.samples,
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
            "trajectory": {
                "q2": traj.q2_const,
                "t": traj.t.tolist(),
                "q1": traj.q1.tolist(),
            },
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = ["t,q1,q2"]
        for t_j, q_j in zip(traj.t, traj.q1):
            lines.append(f"{float(t_j)!r},{float(q_j)!r},{traj.q2_const!r}")
        _emit("\n".join(lines) + "\n", args.out)
        _emit_sidecar_manifest(manifest, args.out)
    return 0


def _cmd_scan(args: argparse.Namespace, settings: Settings) -> int:
    if not 1.0 < args.mu_min < args.mu_max:
        raise DomainError(
            f"scan requires 1 < mu_min < mu_max, got [{args.mu_min!r}, {args.mu_max!r}]"
        )
    if args.steps < 2:
        raise DomainError(f"scan requires steps >= 2, got {args.steps!r}")
    start = time.perf_counter()
    lines = [_SCAN_HEADER]
    for mu in np.linspace(args.mu_min, args.mu_max, args.steps):
        sol = solve_orbit(float(mu), tol=settings.tol)
        verdict = classify_kappa(sol.kappa)
        lines.append(
            f"{sol.mu!r},{sol.gamma!r},{sol.qbar1!r},{sol.qbar2!r},"
            f"{sol.kappa!r},{sol.q1max!r},{sol.q1antimax!r},{sol.eta!r},"
            f"{verdict.value}"
        )
    manifest = _manifest(
        "scan",
        {
            "mu_min": args.mu_min,
            "mu_max": args.mu_max,
            "steps": args.steps,
            "tol": settings.tol,
        },
        time.perf_counter() - start,
    )
    _emit("\n".join(lines) + "\n", args.out)
    _emit_sidecar_manifest(manifest, args.out)
    return 0


def _cmd_threshold(args: argparse.Namespace, settings: Settings) -> int:
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
    _emit(json.dumps(payload, indent=2) + "\n", getattr(args, "out", None))
    return 0


def _cmd_verify(args: argparse.Namespace, settings: Settings) -> int:
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
    p_scan.add_argument("--steps", type=int, default=50, help="row count (default 50)")
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
        settings = _resolve_settings(args)
        return args.func(args, settings)
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
