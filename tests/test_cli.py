"""End-to-end tests for the command-line interface."""

import json
import random
import shutil

import pytest

from coxfold.cli import main
from coxfold.fixtures import data_path
from coxfold.graphs import (
    _fold_candidate,
    betti,
    compose_traces,
    fold_once,
    identity_trace,
    is_folded,
    load_graph,
    save_graph,
    wedge_graph,
)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("s t u\n3 2\n4\n")
    return str(path)


@pytest.fixture
def big_matrix_file(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("a b c\n384 384\n384\n")
    return str(path)


class TestWordCommand:
    def test_reduce(self, matrix_file, capsys):
        assert main(["word", "--matrix", matrix_file, "reduce", "s s t"]) == 0
        assert capsys.readouterr().out.strip() == "t"

    def test_is_identity_relator(self, matrix_file, capsys):
        code = main(
            ["word", "--matrix", matrix_file, "is-identity", "s t s t s t"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_equal(self, matrix_file, capsys):
        code = main(["word", "--matrix", matrix_file, "equal", "s t s", "t s t"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_kappa(self, matrix_file, capsys):
        assert main(["word", "--matrix", matrix_file, "kappa", "s t s"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_scan_relator_json(self, matrix_file, capsys):
        code = main(
            ["word", "--matrix", matrix_file, "--json", "scan-relator", "u s u s u"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["result"]["type"] == ["s", "u"]

    def test_missing_matrix_is_input_error(self, tmp_path, capsys):
        assert main(["word", "--matrix", str(tmp_path / "no.txt"), "reduce", "s"]) == 1

    def test_bad_letter_is_input_error(self, matrix_file):
        assert main(["word", "--matrix", matrix_file, "reduce", "s z"]) == 1

    def test_budget_exhaustion_is_exit_2(self, tmp_path):
        path = tmp_path / "m7.txt"
        path.write_text("s t\n7\n")
        code = main(
            [
                "word",
                "--matrix",
                str(path),
                "--budget",
                "4",
                "is-identity",
                "s t s t s t s t s t s t s t",
            ]
        )
        assert code == 2


class TestFoldCommand:
    def test_folds_and_writes(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        bg = wedge_graph([("s", "t", "s"), ("t", "u")])
        save_graph(str(gpath), bg.graph, bg.basepoint)
        out = tmp_path / "out.json"
        dot = tmp_path / "g.dot"
        code = main(
            [
                "fold",
                "--graph",
                str(gpath),
                "--out",
                str(out),
                "--emit-dot",
                str(dot),
                "--trace",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "graph G {" in dot.read_text()
        assert "step 1" in capsys.readouterr().out

    def test_malformed_graph_is_input_error(self, tmp_path):
        gpath = tmp_path / "bad.json"
        gpath.write_text("{not json")
        assert main(["fold", "--graph", str(gpath)]) == 1

    @pytest.mark.parametrize("mode", ["involutive", "free"])
    def test_matches_stepwise_fold(self, tmp_path, capsys, mode):
        rng = random.Random(7)
        letters = ("s", "t", "u") if mode == "involutive" else ("x", "y", "x^-1", "y^-1")
        words = [tuple(rng.choice(letters) for _ in range(5)) for _ in range(8)]
        bg = wedge_graph(words, mode)
        gpath, out, ref_out = tmp_path / "g.json", tmp_path / "out.json", tmp_path / "ref.json"
        save_graph(str(gpath), bg.graph, bg.basepoint)
        code = main(["fold", "--graph", str(gpath), "--out", str(out), "--json", "--trace"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # what the stepwise loop the command used to run writes and reports
        ref, n_steps = identity_trace(bg.graph), 0
        while (pair := _fold_candidate(ref.result)) is not None:
            ref = compose_traces(ref, fold_once(ref.result, *pair))
            n_steps += 1
        folded = ref.result
        save_graph(str(ref_out), folded, ref.vertex_map[bg.basepoint])
        assert out.read_bytes() == ref_out.read_bytes()
        assert n_steps > 0
        assert {k: report[k] for k in ("steps", "vertices", "geometric_edges", "betti", "folded")} == {
            "steps": n_steps,
            "vertices": len(folded.vertices),
            "geometric_edges": len(folded.geometric_edges()),
            "betti": betti(folded),
            "folded": is_folded(folded),
        }
        g = load_graph(str(gpath))[0]
        assert len(report["trace"]) == n_steps
        for step in report["trace"]:
            g = fold_once(g, *step["edges"]).result
            assert step["vertices_after"] == len(g.vertices)
        assert g.vertices == folded.vertices
        assert g.geometric_edges() == folded.geometric_edges()

    @pytest.mark.parametrize(
        "data",
        [
            {"mode": "free", "vertices": [0]},
            {"edges": [], "vertices": [0]},
            {"edges": [], "mode": "free"},
            [],
            {"edges": [1], "mode": "free", "vertices": [0]},
            {"edges": [], "mode": "free", "vertices": ["a", 0]},
            {
                "edges": [
                    {"id": 0, "inv": 1, "alpha": 0, "omega": 0, "label": 5},
                    {"id": 1, "inv": 0, "alpha": 0, "omega": 0, "label": 5},
                ],
                "mode": "free",
                "vertices": [0],
            },
            {"basepoint": 3, "edges": [], "mode": "free", "vertices": [0]},
        ],
    )
    def test_malformed_graph_file_is_one_line_input_error(self, tmp_path, capsys, data):
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps(data))
        assert main(["fold", "--graph", str(gpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed graph file: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestBoundsCommand:
    def test_theorem_applies(self, big_matrix_file, capsys):
        assert main(["bounds", "--matrix", big_matrix_file]) == 0
        out = capsys.readouterr().out
        assert "theorem applies: yes; rank = 3" in out
        assert "threshold 6*2^n = 48" in out

    def test_small_matrix_does_not_apply(self, matrix_file, capsys):
        assert main(["bounds", "--matrix", matrix_file]) == 0
        out = capsys.readouterr().out
        assert "theorem applies: no" in out
        assert "mod-2 rank bound: 2" in out

    def test_json_report(self, big_matrix_file, capsys):
        assert main(["bounds", "--matrix", big_matrix_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["theorem_applies"] is True
        assert data["petersen_thom_bound"] == 2


@pytest.mark.parametrize(
    "data",
    [
        {},
        [1],
        {"upper_triangular": []},
        {"generators": ["a", "b"]},
        {"generators": "ab", "upper_triangular": [[3]]},
        {"generators": ["a", 1], "upper_triangular": [[3]]},
        {"generators": ["a", "b"], "upper_triangular": 3},
        {"generators": ["a", "b"], "upper_triangular": [3]},
        {"generators": ["a", "b"], "upper_triangular": [[2.7]]},
        {"generators": ["a", "b"], "upper_triangular": [[3.0]]},
        {"generators": ["a", "b"], "upper_triangular": [[True]]},
        {"generators": ["a", "b"], "upper_triangular": [["3"]]},
    ],
)
@pytest.mark.parametrize("command", [["word", "reduce", "a"], ["bounds"]])
def test_malformed_matrix_file_is_one_line_input_error(tmp_path, capsys, data, command):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main([command[0], "--matrix", str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed matrix file: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestCheckDecomposition:
    def test_bundled_tame_fixture(self, capsys):
        code = main(
            ["check-decomposition", "--decomposition", data_path("tame_marked.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "c_star = 4" in out
        assert "Theta: pass" in out

    def test_json_report(self, capsys):
        code = main(
            [
                "check-decomposition",
                "--decomposition",
                data_path("three_component.json"),
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["complexity"] == [8, 7, 0, 3, 22, 26, 0]
        assert data["c_star"] == 8

    def test_malformed_file_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["check-decomposition", "--decomposition", str(path)]) == 1

    @pytest.mark.parametrize("entry", [2.7, "x"])
    def test_bad_matrix_entry_is_malformed_file(self, tmp_path, capsys, entry):
        with open(data_path("tame_marked.json")) as fh:
            data = json.load(fh)
        data["matrix"]["upper_triangular"][0][0] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["check-decomposition", "--decomposition", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed decomposition file: entry ")
        assert err.count("\n") == 1

    def test_structural_breach_is_exit_3(self, tmp_path):
        src = data_path("tame_two_anchor.json")
        with open(src, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        # point an F-vertex at a Gamma vertex that does not exist
        key = next(iter(data["p_vertices"]))
        data["p_vertices"][key] = 9999
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["check-decomposition", "--decomposition", str(path)]) == 3


class TestNonExample:
    def test_emits_family_files(self, tmp_path, capsys):
        code = main(["non-example", "--q", "7", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "m_12 = 8 = 2^(5-2)" in out
        assert (tmp_path / "nonexample_q7_matrix.txt").exists()
        assert (tmp_path / "nonexample_q7_generators.json").exists()
        assert (tmp_path / "nonexample_q7_witnesses.json").exists()

    def test_even_q_is_input_error(self, tmp_path):
        assert main(["non-example", "--q", "4", "--out", str(tmp_path)]) == 1

    def test_verify_certifies_small_q(self, tmp_path, capsys):
        code = main(
            ["non-example", "--q", "3", "--verify", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "rank(W(M)) <= 4 certified" in capsys.readouterr().out
        with open(tmp_path / "nonexample_q3_witnesses.json") as fh:
            payload = json.load(fh)
        assert payload["verified"] is True
        assert all(step["ok"] for step in payload["steps"])


@pytest.mark.parametrize(
    "argv",
    [
        ["word", "--matrix", "{matrix}", "--budget", "0", "is-identity", "s t s t s t"],
        ["word", "--matrix", "{matrix}", "--budget", "-5", "--json", "is-identity", "s s"],
        ["check-decomposition", "--decomposition", "{decomposition}", "--budget", "0"],
        ["check-decomposition", "--decomposition", "{decomposition}", "--budget", "-3"],
        ["non-example", "--q", "3", "--verify", "--budget", "0", "--out", "{out}"],
        ["non-example", "--q", "3", "--verify", "--budget", "-1", "--out", "{out}"],
    ],
)
def test_non_positive_budget_is_one_line_input_error(argv, matrix_file, tmp_path, capsys):
    paths = {
        "matrix": matrix_file,
        "decomposition": data_path("tame_marked.json"),
        "out": str(tmp_path),
    }
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --budget must be a positive integer")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_kappa_budget_exhaustion_is_exit_2(matrix_file, capsys):
    code = main(["word", "--matrix", matrix_file, "--budget", "3", "kappa", "s t u s"])
    assert code == 2
    assert capsys.readouterr().err.startswith("indeterminate: work budget of 3 updates")


def test_invariant_violation_is_one_line_exit_3(monkeypatch, capsys):
    from coxfold import decomposition

    real_sub_betti = decomposition.sub_betti
    monkeypatch.setattr(decomposition, "sub_betti", lambda g, sub: real_sub_betti(g, sub) + 1)
    code = main(["check-decomposition", "--decomposition", data_path("tame_marked.json")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("invariant breach: potential identity")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_non_example_q7_witnesses_match_bundled_file(tmp_path):
    assert main(["non-example", "--q", "7", "--verify", "--out", str(tmp_path)]) == 0
    with open(data_path("nonexample_q7_witnesses.json"), "rb") as fh:
        bundled = fh.read()
    assert (tmp_path / "nonexample_q7_witnesses.json").read_bytes() == bundled
