"""Run ``frozenplanet.cli`` in a fresh interpreter with every layer traced.

    python perfbench/child.py SPANS.npz [--probe] CLI-ARGS...

The CLI's ``main`` runs with the wrappers of ``tracing.install`` in place;
the spans are written to SPANS.npz when it returns.  With ``--probe`` the
child then makes the process's first ``lemniscate_constant()`` call, so its
cost in a fresh interpreter is on record.  ``src`` must be on PYTHONPATH.
"""

# The package is imported before anything else so that, under
# ``-X importtime``, its cumulative line includes NumPy and SciPy exactly
# as it does for a shell user.
import frozenplanet.cli
import frozenplanet.specialfn

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    probe = cli_args[:1] == ["--probe"]
    if probe:
        cli_args = cli_args[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    try:
        code = frozenplanet.cli.main(cli_args)
        if probe:
            frozenplanet.specialfn.lemniscate_constant()
    finally:
        tracer.active = False
        tracing.save(tracer.spans(), spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
