"""One fresh-process CLI invocation, as the benchmark launches it.

    python bench/child.py [--trace] [--cpu N] -- <blockiso argv...>

With `--cpu N` the process first pins itself to CPU N.  It times the import
of `blockiso.cli` plus one parser build and writes both to stderr as
`bench-setup <import_s> <parser_s>` before running
`blockiso.cli.main(argv)`; stdout is the CLI's own.  With `--trace`, the
wrappers of `tracer.py` are installed after set-up and the span and cache
aggregates are written to stderr as `bench-trace <json>` at exit.
"""

import os
import sys
import time

_opts = sys.argv[1 : sys.argv.index("--")]
if "--cpu" in _opts:
    os.sched_setaffinity(0, {int(_opts[_opts.index("--cpu") + 1])})

_t0 = time.perf_counter()
import blockiso.cli  # noqa: E402

_t1 = time.perf_counter()
blockiso.cli.build_parser()
_t2 = time.perf_counter()


def main() -> int:
    sys.stderr.write(f"bench-setup {_t1 - _t0!r} {_t2 - _t1!r}\n")
    traced, argv = "--trace" in _opts, sys.argv[sys.argv.index("--") + 1 :]
    if not traced:
        return blockiso.cli.main(argv)
    import json

    import tracer

    tr = tracer.Tracer()
    tr.install(tracer.package_modules("blockiso"))
    try:
        return blockiso.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write("bench-trace " + json.dumps(tr.snapshot()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
