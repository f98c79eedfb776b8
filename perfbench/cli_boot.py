"""Run the windowalg CLI from a source tree, as the installed
``windowalg`` script would, optionally under the tracer.

usage: python3 perfbench/cli_boot.py SRC [SPANS JOB] -- COMMAND ARGS...

SRC is the directory holding the ``windowalg`` package.  With SPANS the
tracer is installed before the CLI is imported, and its counters and
spans are written to SPANS when the command ends, also on a traceback.
"""

import sys


def main():
    sep = sys.argv.index("--")
    opts, args = sys.argv[1:sep], sys.argv[sep + 1 :]
    sys.path.insert(0, opts[0])
    tracer = None
    if len(opts) > 1:
        from tracer import Tracer

        tracer = Tracer().install()
        tracer.job = opts[2]
    from windowalg.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        if tracer is not None:
            tracer.dump(opts[1])


if __name__ == "__main__":
    sys.exit(main())
