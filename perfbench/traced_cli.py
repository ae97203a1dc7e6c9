"""Run the trialbayes CLI with spans at its layer boundaries.

    python perfbench/traced_cli.py SPANS.jsonl bf --n 547 --p 0.012

Installs tracing.Tracer on every trialbayes module, runs cli.main on the
remaining arguments inside a root span, writes the spans to SPANS.jsonl and
exits with main's exit code.
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from trialbayes import cli

    tracer = tracing.Tracer()
    tracer.install()
    root = tracer.begin("bench.op")
    span = tracer.begin(f"cli.main.{argv[0]}", at="cli")
    try:
        code = cli.main(argv)
    except BaseException as exc:
        tracer.end(span, exc)
        raise
    else:
        tracer.end(span)
    finally:
        tracer.end(root)
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
