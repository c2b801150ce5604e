"""Command-line front end: JSON reports to stdout, summaries to stderr.

Exit codes: 0 success, 2 input parse error, 3 invalid arguments, 4 input
not globally rigid (sparsify), 5 extraction premise not satisfied. Reports
are reproducible: with the same input, seed and flags the JSON is
byte-identical apart from the wall-time trailer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from hashlib import sha256
from itertools import tee

from . import __version__
from .field import PRIME, Rng
from .graph import GraphError, ParseError, generate, mixed_cut_cost, parse_edge_list
from .rigidity import DEFAULT_SEED, _report, _rigid_at_rank, _trials
from .global_rigidity import (
    NotGloballyRigidError,
    _edge_deletions,
    _route,
    minimally_globally_rigid_edge_bound,
    sparsify_globally_rigid,
)
from .linked import CONJECTURES, CorpusSpec, explore_conjecture
from .extract import (
    DeleteVertex,
    ExtractionError,
    conditional_grn_bound,
    globally_rigid_subgraph_2d,
    mixed_k_connected_subgraph,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ARGS = 3
EXIT_NOT_GLOBALLY_RIGID = 4
EXIT_PREMISE = 5


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ARGS)


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None
    return parse_edge_list(text)


def _input_digest(g) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "sha256": sha256(g.serialize().encode("ascii")).hexdigest(),
    }


def _emit(report: dict, started: float) -> None:
    report["timing"] = {"wall_time_s": round(time.monotonic() - started, 6)}
    print(json.dumps(report, indent=2))


def cmd_analyze(args) -> int:
    started = time.monotonic()
    g = _load_graph(args.infile)
    d = args.dim
    rng = Rng(args.seed).child(1)
    # the matroid report and the global verdicts read the same trials, so
    # trial t is factored once however far each of them reads
    matroid_trials, proof_trials = tee(_trials(g, d, rng))
    report_m = _report(g, d, matroid_trials)
    how = _route(g, d, args.method)
    globally_rigid, minimal = _edge_deletions(g, d, how, True, proof_trials)
    bound = minimally_globally_rigid_edge_bound(g.n, d) if g.n >= d + 2 else None
    report = {
        "schema_version": SCHEMA_VERSION,
        "prime": PRIME,
        "command": "analyze",
        "input": _input_digest(g),
        "dim": d,
        "seed": args.seed,
        "method": args.method,
        "results": {
            "generic_rank": report_m.rank,
            "rigid": _rigid_at_rank(g.n, d, report_m.rank),
            "independent": report_m.independent,
            "circuit": report_m.circuit,
            "bridge_count": len(report_m.bridges),
            "matroid_components": len(report_m.components),
            "matroid_connected": len(report_m.components) == 1 and g.m >= 1,
            "globally_rigid": globally_rigid,
            "globally_rigid_method": how,
            "minimally_globally_rigid": minimal,
            "min_degree": g.min_degree() if g.n else None,
            "min_mixed_cut_cost": mixed_cut_cost(g) if g.n >= 2 else None,
        },
        "bounds": {
            "minimally_globally_rigid_edges": bound,
            "edges_exceed_bound": None if bound is None else g.m > bound,
            "minimally_connected_edges": None if bound is None else (d + 1) * g.n - (d + 1) ** 2,
            "conditional_grn_lower_bound": conditional_grn_bound(g) if g.n else None,
            "conditional_note": "assumes the sufficient-connectivity conjecture; reported, not asserted",
        },
    }
    print(f"analyze: n={g.n} m={g.m} dim={d} "
          f"globally_rigid={globally_rigid} ({how})", file=sys.stderr)
    _emit(report, started)
    return EXIT_OK


def cmd_sparsify(args) -> int:
    started = time.monotonic()
    g = _load_graph(args.infile)
    d = args.dim
    rng = Rng(args.seed)
    try:
        result = sparsify_globally_rigid(g, d, rng)
    except NotGloballyRigidError as exc:
        print(f"sparsify: {exc}", file=sys.stderr)
        return EXIT_NOT_GLOBALLY_RIGID
    except GraphError as exc:
        print(f"sparsify: {exc}", file=sys.stderr)
        return EXIT_ARGS
    report = {
        "schema_version": SCHEMA_VERSION,
        "prime": PRIME,
        "command": "sparsify",
        "input": _input_digest(g),
        "dim": d,
        "seed": args.seed,
        "result": {
            "edges": [list(e) for e in result.graph.edges],
            "edge_count": result.graph.m,
            "edge_bound": result.log["edge_bound"],
            "extra_edges": [list(e) for e in result.extra_edges],
            "log": result.log,
        },
    }
    print(f"sparsify: kept {result.graph.m} of {g.m} edges "
          f"(bound {result.log['edge_bound']})", file=sys.stderr)
    _emit(report, started)
    return EXIT_OK


def cmd_extract(args) -> int:
    started = time.monotonic()
    g = _load_graph(args.infile)
    rng = Rng(args.seed)
    try:
        if args.grs2d:
            got = globally_rigid_subgraph_2d(g, rng, verify=True)
            if got is None:
                print(f"extract: premise violated: |E| = {g.m} < {5 * g.n - 14} "
                      f"= 5|V| - 14 (or |V| = {g.n} < 7)", file=sys.stderr)
                return EXIT_PREMISE
            sub, trace = got
        else:
            sub, trace = mixed_k_connected_subgraph(g, args.k)
    except ExtractionError as exc:
        print(f"extract: {exc}", file=sys.stderr)
        return EXIT_PREMISE
    steps = []
    for step in trace.steps:
        if isinstance(step, DeleteVertex):
            steps.append({"delete_vertex": step.vertex, "reason": step.reason})
        else:
            steps.append({"cut_vertices": list(step.cut_vertices),
                          "cut_edges": [list(e) for e in step.cut_edges],
                          "side": list(step.side)})
    report = {
        "schema_version": SCHEMA_VERSION,
        "prime": PRIME,
        "command": "extract",
        "input": _input_digest(g),
        "mode": "grs2d" if args.grs2d else f"mixed-{trace.k}",
        "seed": args.seed,
        "result": {
            "vertices": list(trace.vertices),
            "n": sub.n,
            "edges": [list(e) for e in sub.edges],
            "requested_k": trace.requested_k,
            "k": trace.k,
            "promoted": trace.promoted,
            "steps": steps,
            # both routes return only verified subgraphs: no mixed cut
            # costs less than k, and for grs2d redundant global rigidity too
            "verified": True,
        },
    }
    print(f"extract: kept {sub.n} of {g.n} vertices, verified=True",
          file=sys.stderr)
    _emit(report, started)
    return EXIT_OK


def cmd_explore(args) -> int:
    started = time.monotonic()
    rng = Rng(args.seed)
    if args.random is not None:
        count, prob = args.random
        spec = CorpusSpec(mode="random", count=int(count), n=args.max_n,
                          edge_prob=float(prob),
                          isomorph_reject=args.isomorph_reject)
    else:
        spec = CorpusSpec(mode="exhaustive", max_n=args.max_n,
                          isomorph_reject=args.isomorph_reject)
    result = explore_conjecture(args.conjecture, args.dim, spec, rng)
    report = {
        "schema_version": SCHEMA_VERSION,
        "prime": PRIME,
        "command": "explore",
        "seed": args.seed,
    }
    report.update(result)
    counts = result["counts"]
    print(f"explore {args.conjecture} dim={args.dim}: "
          f"{counts['cases']} cases, {counts['confirmed']} confirmed, "
          f"{counts['unknown']} unknown, "
          f"{counts['counterexample_candidates']} candidates", file=sys.stderr)
    _emit(report, started)
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        g = generate(args.family, *args.params)
    except GraphError as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return EXIT_ARGS
    sys.stdout.write(g.serialize())
    return EXIT_OK


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="rigidkit",
                             description="exact randomized combinatorial rigidity toolkit")
    parser.add_argument("--version", action="version", version=f"rigidkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="rigidity / global rigidity / matroid report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--method", choices=["auto", "stress", "combinatorial"], default="auto")
    p.set_defaults(fn=cmd_analyze)

    p = subs.add_parser("sparsify", help="minimally globally rigid spanning subgraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_sparsify)

    p = subs.add_parser("extract", help="dense-graph subgraph extraction")
    p.add_argument("--in", dest="infile", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="target mixed connectivity")
    group.add_argument("--grs2d", action="store_true",
                       help="redundantly globally rigid subgraph in dimension 2")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_extract)

    p = subs.add_parser("explore", help="conjecture sweep over a graph corpus")
    p.add_argument("--conjecture", choices=list(CONJECTURES), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--random", nargs=2, metavar=("COUNT", "P"), default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--isomorph-reject", action="store_true",
                   help="sweep one representative per isomorphism class")
    p.set_defaults(fn=cmd_explore)

    p = subs.add_parser("generate", help="write a named family as edge-list text")
    p.add_argument("--family", required=True)
    p.add_argument("--params", nargs="*", type=int, default=[])
    p.set_defaults(fn=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_ARGS

    if getattr(args, "dim", None) is not None and not (1 <= args.dim <= 6):
        print(f"--dim must lie in [1, 6], got {args.dim}", file=sys.stderr)
        return EXIT_ARGS
    if args.command == "explore" and not (1 <= args.max_n <= 9):
        print(f"--max-n must lie in [1, 9], got {args.max_n}", file=sys.stderr)
        return EXIT_ARGS
    if args.command == "extract" and not args.grs2d and args.k is not None and args.k < 1:
        print(f"--k must be >= 1, got {args.k}", file=sys.stderr)
        return EXIT_ARGS

    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ARGS
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    raise SystemExit(main())
