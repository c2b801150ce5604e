"""Run one rigidkit CLI op in this fresh process and print the outcome as JSON.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory that contains the ``rigidkit``
package), ``argv`` (the CLI arguments), ``trace`` (wrap the layers, see
tracer.py) and ``spans`` (where to write the spans, or null).  A spec with
``probe`` instead of ``argv`` only imports the program and parses the listed
input files, which readies a run.  The op's time covers the call to
``rigidkit.cli.main`` and nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _probe(paths: list[str]) -> dict:
    import rigidkit.cli  # noqa: F401  (imports, and so compiles, every layer)
    from rigidkit.graph import parse_edge_list

    sizes = []
    for path in paths:
        with open(path, encoding="ascii") as fh:
            g = parse_edge_list(fh.read())
        sizes.append([g.n, g.m])
    return {"sizes": sizes}


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    if "probe" in spec:
        json.dump(_probe(spec["probe"]), sys.stdout)
        return

    from rigidkit import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(spec["argv"])
    except Exception:  # an op that raises is a failed op, reported not fatal
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    result = {
        "rc": rc,
        "wall_s": wall,
        "stdout": out.getvalue(),
        "error": error,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
