"""Run one ``mast`` CLI call in this fresh interpreter and record its cost.

    python3 bench/child.py RESULT_JSON TRACE -- ARGV...

Imports ``mast.cli``, notes the wall-clock time the import finished, runs
``mast.cli.main(ARGV)`` and writes RESULT_JSON with the exit code, the
import-finished time, the call's duration and the process's peak resident
set size.  With TRACE ``1`` the module boundaries are wrapped by
``spans.install()`` first and the recorded spans are written as well.
"""

import json
import resource
import sys
import time


def main() -> None:
    out_path, traced = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- ARGV...")
    argv = sys.argv[4:]

    import mast.cli

    imported_at = time.time()
    recorder = None
    if traced:
        import spans

        recorder = spans.install()
    start = time.perf_counter()
    code = mast.cli.main(argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    result = {
        "exit": code,
        "imported_at": imported_at,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mast_file": mast.cli.__file__,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
