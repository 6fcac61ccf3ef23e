"""Run one ssbspec CLI invocation with spans around each layer's calls.

Usage: python traced_cli.py SPANS.npz -- <ssbspec arguments>

Behaves like ``python -m ssbspec <arguments>`` (same stdout, same exit
code) and writes the spans of the invocation to SPANS.npz when it ends.
"""
import io
import sys

from tracing import Tracer, install

tracer = Tracer()
root = tracer.open("cli")
span = tracer.open("cli.import")
import ssbspec.cli  # noqa: E402  (timed as the cli.import span)

tracer.close(span)
install(tracer)

path, sep, *argv = sys.argv[1:]
if sep != "--":
    sys.exit("usage: traced_cli.py SPANS.npz -- <ssbspec arguments>")
out = io.StringIO()
try:
    code = ssbspec.cli.main(argv, stdout=out)
finally:
    tracer.close(root)
    sys.stdout.write(out.getvalue())
    tracer.save(path)
sys.exit(code)
