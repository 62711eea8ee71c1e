"""Run one `wqed` command with spans around the package calls it makes.

    python3 bench/shim.py SPANS.json [wqed arguments...]

The traced counterpart of `python3 -m wqed_mobile.cli [arguments...]`: it
imports the CLI inside an `import` span, wraps every scattering, bound-state
and dynamics function that `wqed_mobile.cli` calls plus its CSV and sidecar
writers, runs `main`, and writes the spans to SPANS.json.  The exit code is
the command's own.
"""

from __future__ import annotations

import inspect
import sys

from tracing import Tracer, call

LAYERS = ("scattering", "boundstates", "dynamics", "oracle")


def instrument(cli, tracer: Tracer) -> None:
    for attr, fn in list(vars(cli).items()):
        if not inspect.isfunction(fn):
            continue
        layer = fn.__module__.rpartition(".")[2]
        if layer in LAYERS or attr in ("write_csv", "write_sidecar"):
            setattr(cli, attr, _wrap(tracer, layer, fn))


def _wrap(tracer: Tracer, layer: str, fn):
    def wrapped(*args, **kwargs):
        return call(tracer, layer, fn, *args, **kwargs)
    return wrapped


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("import.wqed_mobile"):
            import wqed_mobile.cli as cli
        instrument(cli, tracer)
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
