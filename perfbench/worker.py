"""Runs inside the program's process; started by run.py, never by hand.

    worker.py cli [--trace|--pace] ARGS...   one ``confpoly.cli.main(ARGS)`` call, as
                                             ``python -m confpoly.cli ARGS`` would run it
    worker.py serve [--trace|--pace]         one JSON argv list per stdin line; replies
                                             {"rc", "out"} or {"error"} per line, and
                                             {"trace", "pace"} for the line "null"

With ``--trace`` the per-layer wrappers of layers.py are installed first,
and ``cli`` mode prints the snapshot after the CLI's own output on a line
starting with ``TRACE_MARK``.  With ``--pace`` the sampler of pace.py starts
first, and ``cli`` mode prints its samples on a line starting with
``PACE_MARK``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback

TRACE_MARK = "@@perfbench-trace "
PACE_MARK = "@@perfbench-pace "


def _run_cli(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        return exc.code if isinstance(exc.code, int) else 1


def serve(cli, tracer, sampler) -> None:
    out = sys.stdout
    for line in sys.stdin:
        argv = json.loads(line)
        if argv is None:
            if sampler:
                sampler.stop()
            reply = {
                "trace": tracer.snapshot() if tracer else None,
                "pace": sampler.samples if sampler else None,
            }
        else:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = _run_cli(cli.main, argv)
                reply = {"rc": rc, "out": buf.getvalue()}
            except Exception:  # one failed request must not end the stream
                reply = {"error": traceback.format_exc()}
        with sampler.held() if sampler else contextlib.nullcontext():
            out.write(json.dumps(reply) + "\n")
            out.flush()


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    tracer = sampler = None
    if rest[:1] == ["--trace"]:
        from layers import Tracer

        rest = rest[1:]
        tracer = Tracer()
        tracer.install()
    elif rest[:1] == ["--pace"]:
        from pace import Sampler

        rest = rest[1:]
        sampler = Sampler()
        sampler.start()
    from confpoly import cli

    if mode == "serve":
        serve(cli, tracer, sampler)
        return 0
    try:
        return _run_cli(cli.main, rest)
    finally:  # also when the CLI raises, so the client still gets its times
        if tracer:
            sys.stdout.write(TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
        if sampler:
            sampler.stop()
            sys.stdout.write(PACE_MARK + json.dumps(sampler.samples) + "\n")


if __name__ == "__main__":
    sys.exit(main())
