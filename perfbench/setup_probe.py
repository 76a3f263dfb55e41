"""Set-up probe: import edgelab, run one warm-up round, report the time.

    python3 perfbench/setup_probe.py SPEC.json

SPEC.json holds {"src": <edgelab source dir>, "argv": [[...], ...]}.  The
last line of standard output is the CLOCK_MONOTONIC time at which the
warm-up round ended; the parent subtracts the time at which it started
this process.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import edgelab.cli
    for argv in spec["argv"]:
        with contextlib.redirect_stdout(io.StringIO()):
            edgelab.cli.main(argv)
    print(repr(time.monotonic()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
