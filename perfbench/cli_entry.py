"""Run the ``dualfield`` command line the way its console script does.

Untraced, this is the console script: import ``dualfield.cli`` and exit
with ``main()``.  When ``PERFBENCH_TRACE`` names a file, the import and
``main()`` are timed, and both times are written to that file as JSON when
the process ends, whatever the exit code.
"""

import json
import os
import sys
import time


def main():
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from dualfield.cli import main as cli_main

        return cli_main()
    start = time.perf_counter()
    import dualfield.cli as cli

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    try:
        return cli.main()
    finally:
        main_s = time.perf_counter() - start
        with open(trace_path, "w") as handle:
            json.dump({"import_s": import_s, "main_s": main_s}, handle)


if __name__ == "__main__":
    sys.exit(main())
