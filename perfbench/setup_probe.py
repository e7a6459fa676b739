"""One ``fixing`` set-up in a fresh process, for the median of ``setup_s``.

Usage: python3 perfbench/setup_probe.py SEED

Prints the set-up time in seconds as JSON: from the first line of this
script, through importing numpy and drawfix and ingesting the fixtures,
to the end of the first call of each query kind.  The same span is what
``run.py`` measures in its own process.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
import inprocess  # noqa: E402


def main() -> int:
    common.bootstrap()
    workload = inprocess.Fixing(int(sys.argv[1]))
    workload.setup()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
