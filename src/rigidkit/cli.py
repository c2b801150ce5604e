"""Command-line front end: JSON reports to stdout, summaries to stderr.

Exit codes: 0 success, 2 input parse error, 3 invalid arguments, 4 input
not globally rigid (sparsify), 5 extraction premise not satisfied. A failed
command prints one ``<command>: <message>`` line to stderr and nothing to
stdout. Reports are reproducible: with the same input, seed and flags the
JSON is byte-identical apart from the wall-time trailer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
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

# the exit code of each error a command may raise, most specific class first:
# ParseError and ExtractionError are GraphErrors, and GraphError and
# NotGloballyRigidError are ValueErrors
_EXIT_CODES = ((ParseError, EXIT_PARSE), (OSError, EXIT_PARSE),
               (NotGloballyRigidError, EXIT_NOT_GLOBALLY_RIGID), (ExtractionError, EXIT_PREMISE),
               (GraphError, EXIT_ARGS), (ValueError, EXIT_ARGS))


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ARGS)


def _load_graph(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def _header(command: str, g=None, **fields) -> dict:
    """The fields every report opens with, the input digest, then ``fields``."""
    report = {"schema_version": SCHEMA_VERSION, "prime": PRIME, "command": command}
    if g is not None:
        report["input"] = {"n": g.n, "m": g.m,
                           "sha256": sha256(g.serialize().encode("ascii")).hexdigest()}
    return report | fields


def cmd_analyze(args) -> dict:
    g = _load_graph(args.infile)
    d = args.dim
    rng = Rng(args.seed).child(1)
    # at d >= 3 the matroid report and the global verdicts read the same
    # trials, so trial t is factored once however far each of them reads;
    # at d <= 2 neither reads a trial
    matroid_trials, proof_trials = tee(_trials(g, d, rng))
    report_m = _report(g, d, matroid_trials)
    how = _route(g, d)
    globally_rigid, minimal = _edge_deletions(g, d, how, True, proof_trials)
    bound = minimally_globally_rigid_edge_bound(g.n, d) if g.n >= d + 2 else None
    print(f"analyze: n={g.n} m={g.m} dim={d} "
          f"globally_rigid={globally_rigid} ({how})", file=sys.stderr)
    return _header(
        "analyze", g, dim=d, seed=args.seed,
        results={
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
        bounds={
            "minimally_globally_rigid_edges": bound,
            "edges_exceed_bound": None if bound is None else g.m > bound,
            "minimally_connected_edges": None if bound is None else (d + 1) * g.n - (d + 1) ** 2,
            "conditional_grn_lower_bound": conditional_grn_bound(g) if g.n else None,
            "conditional_note": "assumes the sufficient-connectivity conjecture; reported, not asserted",
        },
    )


def cmd_sparsify(args) -> dict:
    g = _load_graph(args.infile)
    result = sparsify_globally_rigid(g, args.dim, Rng(args.seed))
    print(f"sparsify: kept {result.graph.m} of {g.m} edges "
          f"(bound {result.log['edge_bound']})", file=sys.stderr)
    return _header("sparsify", g, dim=args.dim, seed=args.seed, result={
        "edges": result.graph.edges,
        "edge_count": result.graph.m,
        "edge_bound": result.log["edge_bound"],
        "extra_edges": result.extra_edges,
        "log": result.log,
    })


def cmd_extract(args) -> dict:
    g = _load_graph(args.infile)
    if args.grs2d:
        got = globally_rigid_subgraph_2d(g, verify=True)
        if got is None:
            raise ExtractionError("premise violated: " + (
                f"|V| = {g.n} < 7" if g.n < 7 else f"|E| = {g.m} < {5 * g.n - 14} = 5|V| - 14"))
        sub, trace = got
    else:
        sub, trace = mixed_k_connected_subgraph(g, args.k)
    print(f"extract: kept {sub.n} of {g.n} vertices, verified=True", file=sys.stderr)
    mode = "grs2d" if args.grs2d else f"mixed-{trace.k}"
    return _header("extract", g, mode=mode, seed=args.seed, result={
        "vertices": trace.vertices,
        "n": sub.n,
        "edges": sub.edges,
        "requested_k": trace.requested_k,
        "k": trace.k,
        "promoted": trace.promoted,
        "steps": [{"delete_vertex": step.vertex, "reason": step.reason}
                  if isinstance(step, DeleteVertex) else asdict(step)
                  for step in trace.steps],
        # both routes return only verified subgraphs: no mixed cut
        # costs less than k, and for grs2d redundant global rigidity too
        "verified": True,
    })


def cmd_explore(args) -> dict:
    if args.random is not None:
        count, prob = args.random
        spec = CorpusSpec(mode="random", count=int(count), n=args.max_n,
                          edge_prob=float(prob),
                          isomorph_reject=args.isomorph_reject)
    else:
        spec = CorpusSpec(mode="exhaustive", max_n=args.max_n,
                          isomorph_reject=args.isomorph_reject)
    result = explore_conjecture(args.conjecture, args.dim, spec, Rng(args.seed))
    counts = result["counts"]
    print(f"explore {args.conjecture} dim={args.dim}: "
          f"{counts['cases']} cases, {counts['confirmed']} confirmed, "
          f"{counts['unknown']} unknown, "
          f"{counts['counterexample_candidates']} candidates", file=sys.stderr)
    return _header("explore", seed=args.seed) | result


def cmd_generate(args) -> None:
    sys.stdout.write(generate(args.family, *args.params).serialize())


_SHARED = {
    "--in": {"dest": "infile", "required": True},
    "--dim": {"type": int, "required": True},
    "--seed": {"type": int, "default": DEFAULT_SEED},
}


def _command(subs, name: str, fn, summary: str, *shared: str) -> _ArgumentParser:
    """Add subcommand ``name`` run by ``fn``, with the ``shared`` arguments."""
    p = subs.add_parser(name, help=summary)
    p.set_defaults(fn=fn)
    for flag in shared:
        p.add_argument(flag, **_SHARED[flag])
    return p


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="rigidkit",
                             description="exact randomized combinatorial rigidity toolkit")
    parser.add_argument("--version", action="version", version=f"rigidkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    _command(subs, "analyze", cmd_analyze, "rigidity / global rigidity / matroid report",
             "--in", "--dim", "--seed")

    _command(subs, "sparsify", cmd_sparsify, "minimally globally rigid spanning subgraph",
             "--in", "--dim", "--seed")

    p = _command(subs, "extract", cmd_extract, "dense-graph subgraph extraction",
                 "--in", "--seed")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="target mixed connectivity")
    group.add_argument("--grs2d", action="store_true",
                       help="redundantly globally rigid subgraph in dimension 2")

    p = _command(subs, "explore", cmd_explore, "conjecture sweep over a graph corpus",
                 "--dim", "--seed")
    p.add_argument("--conjecture", choices=list(CONJECTURES), required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--random", nargs=2, metavar=("COUNT", "P"), default=None)
    p.add_argument("--isomorph-reject", action="store_true",
                   help="sweep one representative per isomorphism class")

    p = _command(subs, "generate", cmd_generate, "write a named family as edge-list text")
    p.add_argument("--family", required=True)
    p.add_argument("--params", nargs="*", type=int, default=[])

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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

    started = time.monotonic()
    try:
        report = args.fn(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    if report is not None:
        report["timing"] = {"wall_time_s": round(time.monotonic() - started, 6)}
        print(json.dumps(report, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
