"""One benchmark child: a fresh interpreter that runs one CLI invocation.

    python3 bench/child.py SIDECAR TRACE [ARGV...]

Times `import assoc_hermite.cli` (the set-up a shell user pays on every
call), then, when TRACE is 1, installs the span tracer, then calls
`assoc_hermite.cli.main(ARGV)` and exits with its return code.  Standard
output and standard error belong to the CLI alone; the measurements go to
the JSON file SIDECAR.  With no ARGV the child only imports (a set-up
probe).  The parent sets PYTHONPATH so that `assoc_hermite` comes from the
checkout's `src/`.
"""

import json
import sys
import time


def main() -> int:
    sidecar, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import assoc_hermite.cli as cli

    report = {"setup_s": time.perf_counter() - start, "module": cli.__file__}
    tracer = None
    if trace:
        import assoc_hermite
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(assoc_hermite)
    code = 0
    try:
        if argv and tracer is None:
            code = cli.main(argv)
        elif argv:
            with tracer.span("cli." + argv[0]):
                code = cli.main(argv)
    finally:  # also on SystemExit from argparse and on a crash
        sys.stdout.flush()
        if tracer is not None:
            report["spans"] = tracer.rows()
            report["cache"] = tracer.hit_ratios()
        with open(sidecar, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
