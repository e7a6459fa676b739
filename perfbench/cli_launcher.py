"""Traced stand-in for ``python -m drawfix``.

Usage: python3 perfbench/cli_launcher.py SPANS_JSON [drawfix arguments...]

Times the import of ``drawfix.cli``, installs the timing wrappers, runs
``drawfix.cli.main`` and writes the spans to SPANS_JSON before exiting
with the command's own exit code.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder(track_memory=True)
    idx = rec.begin(tracing.IMPORT, start=_T0)
    import drawfix.cli

    rec.end(idx)
    tracing.install(rec)
    idx = rec.begin(tracing.CLI_MAIN)
    try:
        code = drawfix.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code
    finally:
        rec.end(idx)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
