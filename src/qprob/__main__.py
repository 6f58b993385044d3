"""The qprob process entry: `python -m qprob` and the `qprob` console script both call run.

A qprob process handles one document and exits. At exit the interpreter runs
a last garbage collection over every object it still holds: the package's
modules, functions and classes, and whatever site loaded. That walk finds
nothing to free, as the whole heap goes with the process, yet it took about
8 ms of a `qprob check` process of about 85 ms (x86-64 Linux, Python 3.11).
gc.freeze() moves every object tracked so far into a permanent generation
that no collection visits, so run freezes once the package is imported and
before the command runs. Every exit path then skips that walk: a normal
return, a handler's error exit and argparse's SystemExit alike.

The exit itself stays normal: atexit handlers run and the streams flush, so
coverage and profilers see the whole run, and exit codes are main's.
os._exit would have saved about 2 ms more, but it skips all of that.

cli.main holds no process policy, because tests and the benchmark's traced
child call it inside their own processes.
"""

import gc
import sys

from . import cli


def run(argv=None) -> int:
    """Freeze the imported heap out of the garbage collector, then run one command; its exit code."""
    gc.freeze()
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(run())
