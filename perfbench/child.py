"""One edge-lab CLI command in a fresh process, as the benchmark launches it.

    python3 perfbench/child.py RECORD MODE RUN_ID -- edge-lab arguments...

MODE is ``run`` (the plain command), ``setup`` (stop once the command has
resolved its config and built its model, dataset and initial point) or
``trace`` (the command under the outside-in tracer; spans go to
RECORD.spans). RECORD receives a JSON object with ``import_s`` (time to
import the CLI) and ``setup_done`` (``time.monotonic()`` when the command
writes ``resolved_config.json``, which every command does right after its
build step). ``src`` must be on ``PYTHONPATH``.
"""

import json
import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    record_path, mode, run_id, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit(__doc__)
    record = {"mode": mode, "run_id": run_id}
    t0 = time.perf_counter()
    from edge_lab import cli
    record["import_s"] = time.perf_counter() - t0

    write_json = cli._write_json

    def marked_write_json(path, obj):
        if "setup_done" not in record:
            record["setup_done"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone
        write_json(path, obj)

    cli._write_json = marked_write_json
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    finally:
        if tracer is not None:
            tracer.dump(f"{record_path}.spans")
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
