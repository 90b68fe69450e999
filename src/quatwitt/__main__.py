"""Module entry point so `python -m quatwitt` matches the console script.

Both freeze the heap built by the imports before the command runs: the
collector then never scans those objects again, not in the collections
a command triggers nor in the one at shutdown, and a child forked by
`verify-theorem --jobs N` does not touch their pages to collect them.
`cli.main` itself does not freeze, since tests call it in-process.
"""

import gc

from .cli import main


def run() -> int:
    """The console script `quatwitt`."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
