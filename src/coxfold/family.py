"""The rank-5 family with a certified 4-element generating set.

For any odd q >= 3 take generators s1..s5 with exponents m_12 = 8,
m_2j = q for j in {3, 4, 5}, and infinity elsewhere, and put a = (q-1)/2.
The four words

    x1 = s2
    x2 = (s1 s2)^3 s1 (s3 s2)^a
    x3 = s1 s2 s1 (s4 s2)^a
    x4 = s1 (s5 s2)^a

generate the whole group.  The certification is a chain of short word
identities, each machine-checked by the word-problem engine:

* in the dihedral subgroup <s2, sj>, conjugating s2 by (sj s2)^a gives
  s2 sj s2 (walked one conjugation at a time);
* with P7 = (s1 s2)^3 s1 and P3 = s1 s2 s1 one has P1 s2 P1 = P3 and
  P3 s2 P3 = P7 letter by letter, while P7 s2 P7 = s2 uses (s1 s2)^8 = 1;
* these let the conjugates Aj = xj x1 xj^-1 telescope: with
  A3 = P7 s2 s3 s2 P7 one gets P7 = (A3 x1)^a x2, then s3 = P7 (x1 A3 x1) P7,
  and the analogous ladders recover s4, s1, and s5.

A blind bounded product search cannot find these witnesses: the shortest
expressions already need about 4a + 1 syllables over X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coxeter import (
    INF,
    CoxeterMatrix,
    Word,
    alternating_word,
    equal_in_group,
    reduce_word,
)

N_GENERATORS = 5


@dataclass
class ChainStep:
    name: str
    input_word: Word
    output_word: Word
    verified: bool
    note: str = ""


@dataclass
class Certificate:
    certified: bool
    steps: list[ChainStep]
    witnesses_ok: dict[str, bool]


class ExampleFamily:
    """The n = 5, odd-q family and its generation certificate."""

    def __init__(self, q: int):
        if q % 2 != 1 or q < 3:
            raise ValueError("q must be an odd integer >= 3")
        self.q = q
        self.a = (q - 1) // 2
        gens = tuple(f"s{i}" for i in range(1, N_GENERATORS + 1))
        entries: dict[tuple[str, str], int | float] = {}
        for i in range(1, N_GENERATORS + 1):
            for j in range(i + 1, N_GENERATORS + 1):
                if (i, j) == (1, 2):
                    entries[(f"s{i}", f"s{j}")] = 8
                elif i == 2:
                    entries[(f"s{i}", f"s{j}")] = q
                else:
                    entries[(f"s{i}", f"s{j}")] = INF
        self.matrix = CoxeterMatrix(gens, entries)

    def x_words(self) -> dict[str, Word]:
        a = self.a
        p7 = alternating_word("s1", "s2", 7)
        p3 = ("s1", "s2", "s1")
        return {
            "x1": ("s2",),
            "x2": p7 + alternating_word("s3", "s2", 2 * a),
            "x3": p3 + alternating_word("s4", "s2", 2 * a),
            "x4": ("s1",) + alternating_word("s5", "s2", 2 * a),
        }

    def witness_expressions(self) -> dict:
        """Symbolic product expressions over X (and inverses) for every
        generator, together with the named intermediate definitions."""
        a = self.a
        defs = [
            {"name": "A3", "expr": "x2 x1 x2^-1"},
            {"name": "P7", "expr": f"(A3 x1)^{a} x2"},
            {"name": "T3", "expr": "x1 A3 x1"},
            {"name": "A4", "expr": "x3 x1 x3^-1"},
            {"name": "U4", "expr": "P7 A4 P7"},
            {"name": "P3", "expr": f"(P7 U4)^{a} x3"},
            {"name": "A5", "expr": "x4 x1 x4^-1"},
            {"name": "U5", "expr": "P3 A5 P3"},
            {"name": "P1", "expr": f"(P3 U5)^{a} x4"},
        ]
        witnesses = {
            "s1": "(P3 U5)^%d x4" % a,
            "s2": "x1",
            "s3": "P7 T3 P7",
            "s4": "P3 U4 P3",
            "s5": "P1 U5 P1",
        }
        return {"defs": defs, "witnesses": witnesses}

    def verify(self, budget: Optional[int] = None) -> Certificate:
        """Run the certification chain; every step is engine-checked.

        Each step reduces a concatenation of previously certified short
        words and re-verifies the equality independently through
        equal_in_group, so the final literal identities (e.g. the s3 step
        reducing exactly to the word "s3") certify membership of every
        generator in <X>.
        """
        M = self.matrix
        a = self.a
        kwargs = {} if budget is None else {"budget": budget}
        steps: list[ChainStep] = []
        ok_all = True

        def certify(name: str, word: Word, expect: Optional[Word] = None) -> Word:
            nonlocal ok_all
            out = reduce_word(word, M, **kwargs)
            verified = equal_in_group(word, out, M, **kwargs)
            note = ""
            if expect is not None and out != expect:
                verified = False
                note = f"expected canonical form {expect}"
            ok_all = ok_all and verified
            steps.append(ChainStep(name, word, out, verified, note))
            return out

        x = self.x_words()
        p7 = alternating_word("s1", "s2", 7)
        p3 = ("s1", "s2", "s1")
        witnesses_ok: dict[str, bool] = {}

        # x1 is the generator s2 on the nose
        witnesses_ok["s2"] = x["x1"] == ("s2",)

        def dihedral_conjugate(j: int) -> Word:
            """Certified canonical form of (sj s2)^a s2 (s2 sj)^a."""
            sj = f"s{j}"
            cur: Word = ("s2",)
            for k in range(1, a + 1):
                cur = certify(f"conj{j}_{k}", (sj, "s2") + cur + ("s2", sj))
            if cur != ("s2", sj, "s2"):
                certify(f"conj{j}_final", cur, expect=("s2", sj, "s2"))
            return cur

        # branch s3: x2 x1 x2^-1 is literally P7 (s3 s2)^a s2 (s2 s3)^a P7
        c3 = dihedral_conjugate(3)
        a3 = certify("A3", p7 + c3 + p7)
        g3 = certify("A3*x1", a3 + x["x1"])
        v: Word = ()
        for k in range(1, a + 1):
            v = certify(f"(A3*x1)^{k}", v + g3)
        p7c = certify("P7=(A3 x1)^a x2", v + x["x2"], expect=p7)
        t3 = certify("T3=x1 A3 x1", x["x1"] + a3 + x["x1"])
        s3 = certify("s3=P7 T3 P7", p7c + t3 + p7c, expect=("s3",))
        witnesses_ok["s3"] = s3 == ("s3",)

        # branch s4: x3 x1 x3^-1 is literally P3 (s4 s2)^a s2 (s2 s4)^a P3
        c4 = dihedral_conjugate(4)
        a4 = certify("A4", p3 + c4 + p3)
        u4 = certify("U4=P7 A4 P7", p7c + a4 + p7c)
        g4 = certify("P7*U4", p7c + u4)
        v = ()
        for k in range(1, a + 1):
            v = certify(f"(P7*U4)^{k}", v + g4)
        p3c = certify("P3=(P7 U4)^a x3", v + x["x3"], expect=p3)
        s4 = certify("s4=P3 U4 P3", p3c + u4 + p3c, expect=("s4",))
        witnesses_ok["s4"] = s4 == ("s4",)

        # branch s1/s5: x4 x1 x4^-1 is literally s1 (s5 s2)^a s2 (s2 s5)^a s1
        c5 = dihedral_conjugate(5)
        a5 = certify("A5", ("s1",) + c5 + ("s1",))
        u5 = certify("U5=P3 A5 P3", p3c + a5 + p3c, expect=("s1", "s5", "s1"))
        g5 = certify("P3*U5", p3c + u5)
        v = ()
        for k in range(1, a + 1):
            v = certify(f"(P3*U5)^{k}", v + g5)
        s1 = certify("s1=(P3 U5)^a x4", v + x["x4"], expect=("s1",))
        witnesses_ok["s1"] = s1 == ("s1",)
        s5 = certify("s5=P1 U5 P1", s1 + u5 + s1, expect=("s5",))
        witnesses_ok["s5"] = s5 == ("s5",)

        return Certificate(
            certified=ok_all and all(witnesses_ok.values()),
            steps=steps,
            witnesses_ok=witnesses_ok,
        )
