"""Run one cartankak CLI command with the benchmark's span wrappers installed.

    python3 perfbench/launch_cli.py SPANS_JSON <cartankak arguments...>

Imports ``cartankak.cli`` (timing the import), installs the wrappers from
``tracing.py``, calls ``cartankak.cli.main`` with the remaining arguments,
writes ``{"import_s", "missing", "spans"}`` to SPANS_JSON and exits with
the command's exit code. The source tree must be on PYTHONPATH.
"""

import json
import sys
import time


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import cartankak.cli
    import_s = time.perf_counter() - start

    import tracing

    tracer = tracing.Tracer()
    tracer.op = 0
    with tracing.installed(tracer) as missing:
        code = cartankak.cli.main(cli_args)
    with open(spans_path, "w") as handle:
        json.dump({"import_s": import_s, "missing": missing, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
