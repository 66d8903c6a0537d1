"""Tests of the benchmark itself: oracles, span arithmetic, metric names,
and that a wrong answer fails the run.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coxfold.cli import main as coxfold_main  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class OracleFacts(unittest.TestCase):
    def test_b3_has_48_elements_and_longest_length_9(self):
        table = oracles.type_b3(("s", "t", "u")).enumerate()
        self.assertEqual(len(table), 48)
        self.assertEqual(max(table.values()), 9)

    def test_a3_has_24_elements_and_a4_120(self):
        self.assertEqual(len(oracles.type_a(("a", "b", "c")).enumerate()), 24)
        self.assertEqual(len(oracles.type_a(("a", "b", "c", "d")).enumerate()), 120)

    def test_generator_products_have_the_matrix_orders(self):
        for name, (text, make) in workloads.MATRICES.items():
            gens, exponent = workloads.parse_matrix(text)
            oracle = make(gens)
            for s, t in itertools.combinations(gens, 2):
                m = exponent(s, t)
                orders = [k for k in range(1, 9) if oracle.is_identity((s, t) * k)]
                self.assertEqual(orders[0], m, (name, s, t))

    def test_affine_length_formula_matches_breadth_first_distance(self):
        oracle = oracles.type_affine_a(("a", "b", "c"))
        dist = {oracle.identity: 0}
        frontier = [oracle.identity]
        for radius in range(1, 7):
            frontier = [oracle.act(s, e) for e in frontier for s in oracle.generators]
            frontier = [e for e in dict.fromkeys(frontier) if e not in dist]
            dist.update((e, radius) for e in frontier)
        self.assertTrue(all(oracle.length(e) == d for e, d in dist.items()))

    def test_normal_form_is_the_shortlex_least_reduced_word(self):
        oracle = oracles.type_b3(("s", "t", "u"))
        least = {}
        for n in range(10):
            for w in itertools.product(oracle.generators, repeat=n):
                least.setdefault(oracle.element(w), w)
        for e, w in least.items():
            self.assertEqual(oracle.normal_form(w), w)

    def test_tits_matrices_see_relations_and_non_relations(self):
        form = oracles.tits_form(["s1", "s2", "s3", "s4", "s5"], checks.family_exponent(7))
        self.assertTrue(oracles.same_matrix(("s1", "s2") * 8, (), form))
        self.assertTrue(oracles.same_matrix(("s2", "s3") * 7, (), form))
        self.assertFalse(oracles.same_matrix(("s1", "s3") * 8, (), form))
        self.assertFalse(oracles.same_matrix(("s2",), ("s3",), form))

    def test_reference_fold_small_wedges(self):
        # a b a^-1 and a b a fold the two a-edges together, leaving a b-loop
        self.assertEqual(oracles.fold_counts([("a", "b", "a^-1")], "free"), (2, 2))
        self.assertEqual(oracles.fold_counts([("a", "b", "a")], "involutive"), (2, 2))
        self.assertEqual(oracles.fold_counts([("a", "b"), ("a", "c")], "free"), (2, 3))
        self.assertEqual(oracles.fold_counts([("a", "b"), ("b", "a")], "free"), (3, 4))

    def test_reference_fold_agrees_with_coxfold(self):
        from coxfold.graphs import fold, wedge_graph

        rng = random.Random(5)
        for mode, letters in (("free", "ab"), ("involutive", "abc")):
            for _ in range(20):
                words = [workloads.random_word(rng, letters, rng.randint(1, 6), mode)
                         for _ in range(rng.randint(1, 5))]
                g = fold(wedge_graph(words, mode).graph).result
                self.assertEqual(oracles.fold_counts(words, mode),
                                 (len(g.vertices), len(g.geometric_edges())), words)

    def test_alternating_runs_and_kappa(self):
        w = tuple("ababcbcc")
        self.assertEqual(oracles.maximal_alternating_runs(w), [(0, 4), (3, 7), (7, 8)])
        self.assertEqual(oracles.kappa(w), 3)


class SpanArithmetic(unittest.TestCase):
    SPANS = [
        ["cli.main", 0.0, 10.0, -1, "ok", None],
        ["coxeter.reduce_word", 1.0, 4.0, 0, "ok", None],
        ["coxeter.tits_closure", 2.0, 3.0, 1, "ok", None],
        ["graphs.fold", 5.0, 9.0, 0, "ok", None],
        ["graphs.fold_once", 6.0, 8.0, 3, "ok", None],
        ["coxeter.is_identity", 9.0, 9.5, 0, "Indeterminate", None],
        ["family.verify", 9.5, 9.75, 0, "ok", 7],
    ]

    def test_self_time_subtracts_children(self):
        m = spans.layer_metrics([self.SPANS])
        self.assertAlmostEqual(m["cli.self_s"], 10.0 - 3.0 - 4.0 - 0.5 - 0.25)
        self.assertAlmostEqual(m["coxeter.self_s"], 2.0 + 1.0 + 0.5)
        self.assertAlmostEqual(m["graphs.self_s"], 2.0 + 2.0)
        self.assertAlmostEqual(m["coxeter.reduce_word.s"], 3.0)
        self.assertEqual(m["graphs.fold_once.calls"], 1)
        self.assertEqual(m["family.steps"], 7)
        self.assertEqual(m["coxeter.indeterminate"], 1)
        self.assertAlmostEqual(m["coxeter.decided_ratio"], 0.5)

    def test_recursion_is_counted_once_in_inclusive_time(self):
        nested = [
            ["graphs.fold", 0.0, 4.0, -1, "ok", None],
            ["graphs.fold", 1.0, 2.0, 0, "ok", None],
        ]
        m = spans.layer_metrics([nested])
        self.assertAlmostEqual(m["graphs.fold.s"], 4.0)
        self.assertEqual(m["graphs.fold.calls"], 2)


class MetricNames(unittest.TestCase):
    def test_names_are_plain(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(NAME.fullmatch(name), name)

    def test_benchmark_json_lists_exactly_the_emitted_metrics(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class WrongAnswersFail(unittest.TestCase):
    """Each check accepts coxfold's real answer and rejects a wrong one."""

    @classmethod
    def setUpClass(cls):
        (BENCH / "work").mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=BENCH / "work")
        cls.dir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_cli(self, job):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = coxfold_main(job.argv)
        finally:
            os.chdir(cwd)
        return rc, out.getvalue(), err.getvalue()

    def assert_check(self, job, rc, stdout, stderr="", status=checks.OK):
        got = checks.check(job, rc, stdout, stderr, self.dir)
        self.assertEqual(got[0], status, (job.id, got))

    def test_certify(self):
        job = workloads.Job("certify-q7", "certify",
                            ["non-example", "--q", "7", "--verify", "--out", "cert_q7"],
                            7.0, {"q": 7})
        rc, stdout, _ = self.run_cli(job)
        self.assert_check(job, rc, stdout)
        self.assert_check(job, rc, stdout.replace("certified", "refuted"), status=checks.FAIL)
        path = self.dir / "cert_q7" / "nonexample_q7_witnesses.json"
        good = path.read_text(encoding="utf-8")
        cert = json.loads(good)
        for tamper in ("s2 s1", "s3 s2 s3"):
            cert["steps"][len(cert["steps"]) // 2]["output"] = tamper
            path.write_text(json.dumps(cert), encoding="utf-8")
            self.assert_check(job, rc, stdout, status=checks.FAIL)
        cert = json.loads(good)
        cert["steps"][-1]["output"] = "s1"
        path.write_text(json.dumps(cert), encoding="utf-8")
        self.assert_check(job, rc, stdout, status=checks.FAIL)
        path.write_text(good, encoding="utf-8")

    def test_word_queries(self):
        jobs = workloads.build("word", 3, self.dir, Path())
        wrong = {
            "word-reduce": lambda out: "(empty word)" if out.strip() != "(empty word)" else "a",
            "word-equal": lambda out: "false" if out.strip() == "true" else "true",
            "word-is-identity": lambda out: "false" if out.strip() == "true" else "true",
            "word-kappa": lambda out: str(int(out) + 1),
            "word-scan-relator": lambda out: "almost-relator at [0, 9) of type {a, b}"
            if out.startswith("no") else "no almost-relator subword",
        }
        seen = set()
        for job in jobs:
            if "--budget" in job.argv or job.kind in seen:
                continue
            seen.add(job.kind)
            rc, stdout, stderr = self.run_cli(job)
            self.assert_check(job, rc, stdout, stderr)
            self.assert_check(job, rc, wrong[job.kind](stdout) + "\n", stderr, checks.FAIL)
        self.assertEqual(seen, set(wrong))

    def test_budget_exhaustion_is_undecided_only_on_budget_jobs(self):
        jobs = workloads.build("word", 3, self.dir, Path())
        budget_jobs = [j for j in jobs if j.budget_limited]
        self.assertEqual(budget_jobs, [j for j in jobs if "--budget" in j.argv])
        self.assertEqual(len(budget_jobs), 3)
        job = budget_jobs[0]
        self.assert_check(job, 2, "", "indeterminate: budget", checks.UNDECIDED)
        self.assert_check(job, 2, "", "Traceback (most recent call last):", checks.FAIL)
        certify = workloads.build("certify", 3, self.dir, Path())[0]
        for other in (next(j for j in jobs if not j.budget_limited), certify):
            self.assert_check(other, 2, "", "indeterminate: budget", checks.FAIL)

    def test_gated_times_ignore_failed_runs_and_later_passes(self):
        jobs = [workloads.Job("a", "word-kappa", []), workloads.Job("b", "word-kappa", [])]

        def run_(wall, status=checks.OK):
            return {"wall": wall, "cmd": wall - 0.1, "rss_mb": 20.0, "status": status}

        passes = [
            [run_(1.0), run_(0.5, checks.FAIL)],
            [run_(2.0), run_(3.0)],
            [run_(0.2), run_(0.2)],
        ]
        values, samples = run.end_to_end(jobs, passes, gated=2)
        self.assertAlmostEqual(values["wall_s"], 1.0 + 3.0)
        self.assertAlmostEqual(values["cmd_s"], 0.9 + 2.9)
        self.assertAlmostEqual(values["decided_ratio"], 5 / 6)
        self.assertEqual(len(samples["wall_s"]), 3)

    def test_word_scaling_has_two_lengths_per_matrix(self):
        lengths = {}
        for name, action, length, _ in workloads.WORD_PLAN:
            if action == "scan-relator":
                lengths.setdefault(name, set()).add(length)
        self.assertEqual(set(lengths), set(workloads.MATRICES))
        self.assertTrue(all(len(v) >= 2 for v in lengths.values()), lengths)

    def test_fold(self):
        words = [workloads.random_word(random.Random(k), "abc", 6, "free")
                 for k in range(6)]
        workloads._write_wedge(self.dir / "w.json", words, "free")
        v, e = oracles.fold_counts(words, "free")
        job = workloads.Job("fold", "fold", ["fold", "--graph", "w.json", "--out", "w.f.json",
                                             "--json"], None,
                            {"words": [list(w) for w in words], "mode": "free",
                             "vertices": v, "geometric_edges": e})
        rc, stdout, _ = self.run_cli(job)
        self.assert_check(job, rc, stdout)
        report = json.loads(stdout)
        report["vertices"] += 1
        self.assert_check(job, rc, json.dumps(report), status=checks.FAIL)
        folded = json.loads((self.dir / "w.f.json").read_text(encoding="utf-8"))
        folded["edges"][0]["label"], folded["edges"][1]["label"] = "c", "c^-1"
        (self.dir / "w.f.json").write_text(json.dumps(folded), encoding="utf-8")
        self.assert_check(job, rc, stdout, status=checks.FAIL)

    def test_check_decomposition(self):
        jobs = [j for j in workloads.build("graph", 1, self.dir, run.DATA) if j.kind == "check"]
        for job in (jobs[-1], next(j for j in jobs if j.id == "check-three_component")):
            rc, stdout, _ = self.run_cli(job)
            self.assert_check(job, rc, stdout)
            bad = re.sub(r"c_star = (\d+)", lambda m: f"c_star = {int(m[1]) + 1}", stdout)
            self.assert_check(job, rc, bad, status=checks.FAIL)
            bad = stdout.replace("(1, 1, 0", "(1, 1, 1").replace("(8, 7, 0", "(8, 7, 1")
            self.assert_check(job, rc, bad, status=checks.FAIL)

    def test_a_wrong_answer_fails_the_run(self):
        def wrong_child(job, workdir, trace, timeout):
            return {"id": job.id, "rc": 0, "wall": 0.2, "cmd": 0.1, "start": 0.1,
                    "rss_mb": 20.0, "spans": [], "timed_out": False,
                    "stdout": "rank(W(M)) <= 4 certified\n", "stderr": ""}

        real = run.run_child
        run.run_child = wrong_child
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "certify", "--seed", "-1", "--seconds", "0"])
        finally:
            run.run_child = real
        summary = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(summary["correct"])
        self.assertEqual(summary["failed"], summary["attempted"])

    def test_traced_stdout_must_match_untraced(self):
        job = workloads.Job("x", "word-kappa", [], None, {"answer": 1})
        runner = run.Runner([job], self.dir)
        res = {"rc": 0, "cmd": 0.1, "timed_out": False, "stdout": "1\n", "stderr": ""}
        self.assertEqual(runner.judge(job, res, traced=False)[0], checks.OK)
        self.assertEqual(runner.judge(job, dict(res, stdout="1 \n"), traced=True)[0], checks.FAIL)


if __name__ == "__main__":
    unittest.main()
