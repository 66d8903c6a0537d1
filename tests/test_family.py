"""Tests for the rank-5 family and its generation certificate."""

import pytest

from coxfold.coxeter import INF, alternating_word, equal_in_group
from coxfold.family import ExampleFamily

from test_coxeter import closure_reduce


class TestConstruction:
    def test_matrix_shape(self):
        fam = ExampleFamily(7)
        m = fam.matrix
        assert m.entry("s1", "s2") == 8
        for j in (3, 4, 5):
            assert m.entry("s2", f"s{j}") == 7
        assert m.entry("s1", "s3") == INF
        assert m.entry("s3", "s4") == INF

    def test_x_word_shapes(self):
        fam = ExampleFamily(101)
        x = fam.x_words()
        assert x["x1"] == ("s2",)
        assert len(x["x2"]) == 7 + 100
        assert len(x["x3"]) == 3 + 100
        assert len(x["x4"]) == 1 + 100
        assert x["x2"][:7] == alternating_word("s1", "s2", 7)
        assert x["x4"][1:3] == ("s5", "s2")

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            ExampleFamily(4)

    def test_too_small_q_rejected(self):
        with pytest.raises(ValueError):
            ExampleFamily(1)

    def test_expressions_cover_all_generators(self):
        report = ExampleFamily(9).witness_expressions()
        assert set(report["witnesses"]) == {f"s{i}" for i in range(1, 6)}
        names = {d["name"] for d in report["defs"]}
        assert {"A3", "P7", "P3", "U4", "U5"} <= names


class TestCertification:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_small_q_certifies(self, q):
        cert = ExampleFamily(q).verify()
        assert cert.certified
        assert all(cert.witnesses_ok.values())
        assert all(step.verified for step in cert.steps)

    def test_step_outputs_are_group_equal_to_inputs(self):
        fam = ExampleFamily(5)
        cert = fam.verify()
        for step in cert.steps[:10]:
            assert equal_in_group(step.input_word, step.output_word, fam.matrix)

    def test_final_steps_land_on_generators(self):
        cert = ExampleFamily(7).verify()
        landed = {
            step.output_word
            for step in cert.steps
            if len(step.output_word) == 1
        }
        assert {("s1",), ("s3",), ("s4",), ("s5",)} <= landed

    def test_witnesses_beyond_blind_search_depth(self):
        # the shortest expression for s3 already needs 4a + 1 = 13 syllables
        # over X at q = 7, past any 12-syllable enumeration
        fam = ExampleFamily(7)
        assert 4 * fam.a + 1 > 12


@pytest.mark.parametrize("q", range(3, 42, 2))
def test_certificate_matches_closure_search(q):
    # each step's input is built from earlier outputs, so matching every
    # output replays the whole chain of the closure engine
    fam = ExampleFamily(q)
    cert = fam.verify()
    assert cert.certified
    for step in cert.steps:
        assert step.output_word == closure_reduce(step.input_word, fam.matrix), step.name
