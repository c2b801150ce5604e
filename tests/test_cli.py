import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rigidkit import (Graph, complete, cycle, complete_bipartite, icosahedron_braced, k4e_chain,
                      parse_edge_list, wheel)
from rigidkit import cli, global_rigidity
from rigidkit import graph as graph_module
from rigidkit.cli import main

from degenerate import DegenerateRng


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(g.serialize(), encoding="ascii")
    return str(p)


class TestGenerate:
    def test_icosahedron_braced(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family", "icosahedron_braced")
        assert code == 0
        assert out.startswith("12 31\n")
        assert parse_edge_list(out) == icosahedron_braced()

    def test_k4e_chain(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family", "k4e_chain",
                               "--params", "3")
        assert code == 0 and out.startswith("8 15\n")

    def test_complete_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family",
                               "complete_bipartite", "--params", "3", "4")
        assert code == 0 and out.startswith("7 12\n")

    def test_unknown_family_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--family", "petersen")
        assert code == 3 and "unknown generator" in err


class TestAnalyze:
    def test_c4_not_rigid(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(4))
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "2")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["rigid"] is False
        assert report["results"]["globally_rigid"] is False

    def test_braced_icosahedron_d3(self, capsys, tmp_path):
        path = write_graph(tmp_path, icosahedron_braced())
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "3")
        assert code == 0
        r = json.loads(out)["results"]
        assert r["globally_rigid"] is True
        assert r["minimally_globally_rigid"] is True
        assert r["min_degree"] == 5

    def test_k34_bounds(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete_bipartite(3, 4))
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "2")
        assert code == 0
        report = json.loads(out)
        assert report["input"]["m"] == 12
        assert report["bounds"]["minimally_globally_rigid_edges"] == 15
        assert report["results"]["minimally_globally_rigid"] is True

    def test_reports_are_reproducible(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete(5))
        _, out1, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "2",
                             "--seed", "7")
        _, out2, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "2",
                             "--seed", "7")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timing"), b.pop("timing")
        assert a == b
        # the serialized reproducible sections are byte-identical
        assert json.dumps(a, indent=2) == json.dumps(b, indent=2)

    def test_empty_graph(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("0 0\n", encoding="ascii")
        code, out, _ = run_cli(capsys, "analyze", "--in", str(p), "--dim", "2")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["min_degree"] is None
        assert report["results"]["min_mixed_cut_cost"] is None
        assert report["bounds"]["conditional_grn_lower_bound"] is None

    def test_bounds_are_null_below_d_plus_2(self, capsys, tmp_path):
        # the edge bounds are stated for n >= d + 2 vertices only
        for g, d in ((Graph(0), 2), (complete(2), 2), (complete(3), 2), (complete(4), 3)):
            path = write_graph(tmp_path, g)
            code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", str(d))
            assert code == 0
            bounds = json.loads(out)["bounds"]
            assert bounds["minimally_globally_rigid_edges"] is None
            assert bounds["edges_exceed_bound"] is None
            assert bounds["minimally_connected_edges"] is None
        path = write_graph(tmp_path, complete(4))
        _, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "2")
        assert json.loads(out)["bounds"]["minimally_globally_rigid_edges"] == 6

    def test_rigid_follows_the_reported_rank(self, capsys, tmp_path, monkeypatch, factorizations):
        # trial 0 of the trials shared by the matroid report and the global
        # verdicts (rng.child(1).child(0)) is collapsed; every part of the
        # report must drop it and read trial 1
        monkeypatch.setattr(cli, "Rng", lambda seed: DegenerateRng(seed, [(1, 0)]))
        g = complete(5)
        path = write_graph(tmp_path, g)
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "3")
        assert code == 0
        r = json.loads(out)["results"]
        assert r["generic_rank"] == 9
        assert r["rigid"] is True
        assert r["globally_rigid"] is True and r["minimally_globally_rigid"] is True
        assert factorizations == [g, g]

    @pytest.mark.parametrize("g", [icosahedron_braced(), complete(8)])
    def test_global_verdicts_share_one_factorization(self, capsys, tmp_path, factorizations, g):
        # globally_rigid and minimally_globally_rigid come from the same trials
        path = write_graph(tmp_path, g)
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "3")
        assert code == 0 and json.loads(out)["results"]["globally_rigid"] is True
        assert factorizations == [g]

    def test_global_verdicts_test_the_input_once_in_2d(self, capsys, tmp_path, monkeypatch):
        g = wheel(5)
        tested = []
        real_connected = global_rigidity.is_k_connected
        monkeypatch.setattr(global_rigidity, "is_k_connected",
                            lambda h, k: bool(tested.append(h)) or real_connected(h, k))
        path = write_graph(tmp_path, g)
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "2")
        r = json.loads(out)["results"]
        assert code == 0 and r["globally_rigid"] is True
        assert r["globally_rigid_method"] == "combinatorial-2d"
        assert tested.count(g) == 1

    def test_2d_factors_nothing(self, capsys, tmp_path, factorizations):
        # the matroid report plays the pebble game and the global verdicts
        # take the planar route: neither reads a trial
        g = wheel(6)
        path = write_graph(tmp_path, g)
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "2")
        r = json.loads(out)["results"]
        assert code == 0 and r["globally_rigid"] is True and r["minimally_globally_rigid"] is True
        assert factorizations == []

    @pytest.mark.parametrize("d, route", [(1, "combinatorial-1d"), (2, "combinatorial-2d"),
                                          (3, "stress")])
    def test_the_report_names_the_route_once(self, capsys, tmp_path, d, route):
        # the route follows from n and d, so the report has no top-level
        # "method" beside the route it names in its results
        path = write_graph(tmp_path, complete(6))
        code, out, _ = run_cli(capsys, "analyze", "--in", path, "--dim", str(d))
        report = json.loads(out)
        assert code == 0 and "method" not in report
        assert report["results"]["globally_rigid_method"] == route

    def test_bad_dim_exits_3(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete(4))
        code, _, _ = run_cli(capsys, "analyze", "--in", path, "--dim", "9")
        assert code == 3

    def test_parse_error_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 1\n0 0\n", encoding="ascii")
        code, _, err = run_cli(capsys, "analyze", "--in", str(p), "--dim", "2")
        assert code == 2 and "line 2" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--in", "/nonexistent", "--dim", "2")
        assert code == 2


class TestSparsify:
    def test_k6_d3(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete(6))
        code, out, _ = run_cli(capsys, "sparsify", "--in", path, "--dim", "3")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["edge_count"] <= 14
        assert result["edge_bound"] == 14

    def test_k4_unchanged(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete(4))
        code, out, _ = run_cli(capsys, "sparsify", "--in", path, "--dim", "2")
        assert code == 0
        assert json.loads(out)["result"]["edge_count"] == 6

    def test_flexible_input_exits_4(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(4))
        code, _, err = run_cli(capsys, "sparsify", "--in", path, "--dim", "2")
        assert code == 4 and "not globally rigid" in err

    def test_collapsed_realizations_exit_4(self, capsys, tmp_path, monkeypatch):
        # trial t draws its realization from rng.child(t).child(0) and the
        # coefficients of its stress test from rng.child(t).child(1); with every
        # realization collapsed no trial certifies the input, and the
        # documented "no" must come out as exit 4, not a traceback
        bad = [(t, k) for t in range(3) for k in (0, 1)]
        monkeypatch.setattr(cli, "Rng", lambda seed: DegenerateRng(seed, bad))
        path = write_graph(tmp_path, complete(7))
        code, out, err = run_cli(capsys, "sparsify", "--in", path, "--dim", "3")
        assert code == 4 and "not globally rigid" in err and out == ""


class TestExtract:
    def test_k7_grs2d(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete(7))
        code, out, _ = run_cli(capsys, "extract", "--in", path, "--grs2d")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n"] == 7 and result["verified"] is True

    def test_grs2d_factors_nothing(self, capsys, tmp_path, factorizations):
        # the verification of the extracted subgraph takes the planar route
        path = write_graph(tmp_path, complete(8).delete_edge((0, 1)))
        code, out, _ = run_cli(capsys, "extract", "--in", path, "--grs2d")
        assert code == 0 and json.loads(out)["result"]["verified"] is True
        assert factorizations == []

    def test_chain_grs2d_exits_5(self, capsys, tmp_path):
        path = write_graph(tmp_path, k4e_chain(3))
        code, _, err = run_cli(capsys, "extract", "--in", path, "--grs2d")
        assert code == 5 and "premise" in err

    @pytest.mark.parametrize("g, message", [
        (complete(4), "|V| = 4 < 7"),
        (k4e_chain(3), "|E| = 15 < 26 = 5|V| - 14"),
    ], ids=["K4", "k4e_chain3"])
    def test_grs2d_premise_message_cites_the_failing_inequality(self, capsys, tmp_path,
                                                                g, message):
        path = write_graph(tmp_path, g)
        code, out, err = run_cli(capsys, "extract", "--in", path, "--grs2d")
        assert (code, out, err) == (5, "", f"extract: premise violated: {message}\n")

    def test_k5_mixed_4(self, capsys, tmp_path):
        path = write_graph(tmp_path, complete(5))
        code, out, _ = run_cli(capsys, "extract", "--in", path, "--k", "4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n"] == 5 and result["verified"] is True

    def test_k_mode_runs_one_cut_without_a_split(self, capsys, tmp_path, monkeypatch):
        # the extraction returns only after its own cost proof, capped at k,
        # reads no cut of the output below k; no split follows, so no cut is
        # decoded, and the report does not run the proof again
        proofs, decodes = [], []
        real_proof, real_decode = graph_module._mixed_cost, graph_module._decode_mixed_cut

        def proving(g, net, cap=None):
            proofs.append((g, cap))
            return real_proof(g, net, cap)

        def decoding(g, net, cost):
            decodes.append(g)
            return real_decode(g, net, cost)

        monkeypatch.setattr(graph_module, "_mixed_cost", proving)
        monkeypatch.setattr(graph_module, "_decode_mixed_cut", decoding)
        path = write_graph(tmp_path, complete(8))
        code, out, _ = run_cli(capsys, "extract", "--in", path, "--k", "6")
        assert code == 0
        result = json.loads(out)["result"]
        assert all("delete_vertex" in step for step in result["steps"])  # no split
        assert result["verified"] is True
        assert proofs == [(Graph(result["n"], tuple(map(tuple, result["edges"]))), 6)]
        assert decodes == []

    def test_premise_violation_exits_5(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle(8))
        code, _, err = run_cli(capsys, "extract", "--in", path, "--k", "4")
        assert code == 5 and "premise violated" in err


class TestExplore:
    def test_redundant_mc(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--conjecture", "redundant-mc",
                               "--dim", "2", "--max-n", "5", "--isomorph-reject")
        assert code == 0
        report = json.loads(out)
        assert report["candidates"] == []

    def test_linked_gl_d1(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--conjecture", "linked-gl",
                               "--dim", "1", "--max-n", "5", "--isomorph-reject")
        assert code == 0
        assert json.loads(out)["counts"]["counterexample_candidates"] == 0

    def test_random_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--conjecture", "bridge",
                               "--dim", "1", "--max-n", "6",
                               "--random", "8", "0.5", "--seed", "11")
        assert code == 0
        report = json.loads(out)
        assert report["corpus"]["mode"] == "random"
        assert report["counts"]["graphs"] == 8

    def test_max_n_cap(self, capsys):
        code, _, _ = run_cli(capsys, "explore", "--conjecture", "bridge",
                             "--dim", "1", "--max-n", "10")
        assert code == 3

    def test_unknown_conjecture_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "explore", "--conjecture", "p-equals-np",
                             "--dim", "1", "--max-n", "4")
        assert code == 3


# every exit-code row of the command line: the subcommand's arguments, the
# text of its --in file (None: no file), the code and a part of the one
# stderr line; a failed command prints nothing to stdout
EXIT_ROWS = {
    "parse-error": (["analyze", "--dim", "2"], "3 1\n0 0\n", 2, "line 2"),
    "missing-file": (["analyze", "--in", "/nonexistent", "--dim", "2"], None, 2,
                     "No such file"),
    "argparse": (["explore", "--conjecture", "p-equals-np", "--dim", "1", "--max-n", "4"],
                 None, 3, "invalid choice"),
    "no-method-flag": (["analyze", "--dim", "2", "--method", "stress"],
                       complete(4).serialize(), 3, "unrecognized arguments: --method stress"),
    "no-command": ([], None, 3, "required"),
    "dim-range": (["analyze", "--dim", "9"], complete(4).serialize(), 3, "--dim must lie"),
    "max-n-range": (["explore", "--conjecture", "bridge", "--dim", "1", "--max-n", "10"],
                    None, 3, "--max-n must lie"),
    "k-range": (["extract", "--k", "0"], complete(4).serialize(), 3, "--k must be >= 1"),
    "graph-error": (["sparsify", "--dim", "2"], complete(3).serialize(), 3,
                    "at least d + 2 vertices"),
    "unknown-family": (["generate", "--family", "petersen"], None, 3, "unknown generator"),
    "value-error": (["explore", "--conjecture", "bridge", "--dim", "1", "--max-n", "5",
                     "--random", "x", "0.5"], None, 3, "invalid literal"),
    "random-isomorph-reject": (["explore", "--conjecture", "bridge", "--dim", "1", "--max-n", "5",
                                "--random", "5", "0.5", "--isomorph-reject"], None, 3,
                               "exhaustive corpora only"),
    "not-globally-rigid": (["sparsify", "--dim", "2"], cycle(4).serialize(), 4,
                           "not globally rigid"),
    "grs2d-premise": (["extract", "--grs2d"], k4e_chain(3).serialize(), 5, "premise violated"),
    "k-premise": (["extract", "--k", "4"], cycle(8).serialize(), 5, "premise violated"),
}


@pytest.mark.parametrize("argv, text, code, message", EXIT_ROWS.values(), ids=EXIT_ROWS)
def test_exit_code(capsys, tmp_path, argv, text, code, message):
    if text is not None:
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="ascii")
        argv = argv[:1] + ["--in", str(path)] + argv[1:]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "") and message in err


class TestEntryPoint:
    @pytest.mark.parametrize("module", ["rigidkit", "rigidkit.cli"])
    def test_module_invocation(self, module):
        out = subprocess.run(
            [sys.executable, "-m", module, "generate",
             "--family", "cycle", "--params", "5"],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.startswith("5 5\n")

    def test_no_command_exits_3(self, capsys):
        assert main([]) == 3


def _readme_commands():
    """Every ``rigidkit ...`` line of the README's sh blocks, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```sh\n")[1:]
    return [line for block in blocks for line in block.split("```")[0].splitlines()
            if line.startswith("rigidkit ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # each line runs in order in one directory, so a later line reads what
    # an earlier "> file" wrote
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands
    for line in commands:
        argv = shlex.split(line)[1:]
        target = argv[-1] if len(argv) > 1 and argv[-2] == ">" else None
        code, out, err = run_cli(capsys, *(argv[:-2] if target else argv))
        assert code == 0, (line, err)
        if target:
            Path(target).write_text(out, encoding="ascii")
