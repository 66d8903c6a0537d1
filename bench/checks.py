"""Answer checks: each job's exit code, stdout and files against the
reference answers that ``workloads`` stored in the job.

``check`` returns ``(status, detail)`` with status ``ok``, ``undecided``
(exit 2 after an ``indeterminate:`` message, allowed only for a job marked
``budget_limited``) or ``fail``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable

import oracles
from workloads import Job

OK, UNDECIDED, FAIL = "ok", "undecided", "fail"

# Complexity tuples and potentials that coxfold's own tests freeze.
FROZEN = {
    "three_component": ((8, 7, 0, 3, 22, 26, 0), 8),
    "tame_two_anchor": ((3, 3, 0, 2, 65, 67, 0), None),
    "tame_marked": ((4, 4, 0, 2, 129, 130, 7), 4),
}
TAME = ("tame_marked", "tame_two_anchor")


class Wrong(Exception):
    """An answer that does not match the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def check(job: Job, rc: int, stdout: str, stderr: str, workdir: Path) -> tuple[str, str]:
    if "Traceback" in stderr:
        return FAIL, "traceback: " + stderr.strip().splitlines()[-1]
    if rc == 2 and job.budget_limited and stderr.startswith("indeterminate:"):
        return UNDECIDED, stderr.strip()
    if rc != 0:
        return FAIL, f"exit {rc}: {stderr.strip()[:200]}"
    try:
        CHECKS[job.kind](job, stdout, workdir)
    except Wrong as exc:
        return FAIL, str(exc)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return FAIL, f"unreadable answer: {type(exc).__name__}: {exc}"
    return OK, ""


# -- certify ------------------------------------------------------------


def family_exponent(q: int) -> Callable[[str, str], float]:
    def exponent(s: str, t: str) -> float:
        i, j = sorted((int(s[1:]), int(t[1:])))
        if i == j:
            return 1
        if (i, j) == (1, 2):
            return 8
        return q if i == 2 else oracles.INF
    return exponent


def family_matrix_text(q: int) -> str:
    exponent = family_exponent(q)
    gens = [f"s{i}" for i in range(1, 6)]
    rows = [
        " ".join("inf" if exponent(s, t) == oracles.INF else str(exponent(s, t))
                 for t in gens[i + 1:])
        for i, s in enumerate(gens[:-1])
    ]
    return "\n".join([" ".join(gens)] + rows) + "\n"


def replay_certificate(q: int, steps: list[dict]) -> list[tuple[str, tuple, tuple]]:
    """Rebuild each step's input word from the outputs before it.

    Follows the certification chain of the rank-5 family: three dihedral
    conjugation ladders, then the telescoping products that recover s3,
    s4, s1 and s5.  Returns (name, input, output) per step and fails on a
    step that is missing, extra or out of order.
    """
    a = (q - 1) // 2
    pending = list(reversed(steps))
    replayed: list[tuple[str, tuple, tuple]] = []

    def alt(s: str, t: str, k: int) -> tuple:
        return tuple(s if i % 2 == 0 else t for i in range(k))

    def take(name: str, word: tuple) -> tuple:
        expect(bool(pending), f"certificate ends before step {name}")
        step = pending.pop()
        expect(step["name"] == name, f"expected step {name}, found {step['name']}")
        out = tuple(step["output"].split())
        replayed.append((name, word, out))
        return out

    def ladder(j: int) -> tuple:
        sj = f"s{j}"
        cur: tuple = ("s2",)
        for k in range(1, a + 1):
            cur = take(f"conj{j}_{k}", (sj, "s2") + cur + ("s2", sj))
        if cur != ("s2", sj, "s2"):
            take(f"conj{j}_final", cur)
        return cur

    def power(label: str, g: tuple) -> tuple:
        v: tuple = ()
        for k in range(1, a + 1):
            v = take(f"({label})^{k}", v + g)
        return v

    p7, p3, x1 = alt("s1", "s2", 7), ("s1", "s2", "s1"), ("s2",)
    a3 = take("A3", p7 + ladder(3) + p7)
    v = power("A3*x1", take("A3*x1", a3 + x1))
    p7c = take("P7=(A3 x1)^a x2", v + p7 + alt("s3", "s2", 2 * a))
    t3 = take("T3=x1 A3 x1", x1 + a3 + x1)
    take("s3=P7 T3 P7", p7c + t3 + p7c)
    a4 = take("A4", p3 + ladder(4) + p3)
    u4 = take("U4=P7 A4 P7", p7c + a4 + p7c)
    v = power("P7*U4", take("P7*U4", p7c + u4))
    p3c = take("P3=(P7 U4)^a x3", v + p3 + alt("s4", "s2", 2 * a))
    take("s4=P3 U4 P3", p3c + u4 + p3c)
    a5 = take("A5", ("s1",) + ladder(5) + ("s1",))
    u5 = take("U5=P3 A5 P3", p3c + a5 + p3c)
    v = power("P3*U5", take("P3*U5", p3c + u5))
    s1 = take("s1=(P3 U5)^a x4", v + ("s1",) + alt("s5", "s2", 2 * a))
    take("s5=P1 U5 P1", s1 + u5 + s1)
    expect(not pending, f"{len(pending)} unexpected steps after s5")
    return replayed


def check_certify(job: Job, stdout: str, workdir: Path) -> None:
    q = job.expect["q"]
    out_dir = workdir / f"cert_q{q}"
    expect("rank(W(M)) <= 4 certified" in stdout.splitlines(), "no certification line")
    matrix = (out_dir / f"nonexample_q{q}_matrix.txt").read_text(encoding="utf-8")
    expect(matrix == family_matrix_text(q), "wrong matrix file")
    cert = json.loads((out_dir / f"nonexample_q{q}_witnesses.json").read_text(encoding="utf-8"))
    expect(cert["verified"] is True and cert["q"] == q, "certificate not verified")
    expect(all(step["ok"] is True for step in cert["steps"]), "a step is not ok")
    form = oracles.tits_form([f"s{i}" for i in range(1, 6)], family_exponent(q))
    for name, word, out in replay_certificate(q, cert["steps"]):
        if name[:3] in ("s1=", "s3=", "s4=", "s5="):
            expect(out == (name[:2],), f"step {name} gives {' '.join(out)}")
        expect(oracles.same_matrix(word, out, form), f"step {name}: output differs in the group")


# -- word ---------------------------------------------------------------


def check_reduce(job: Job, stdout: str, workdir: Path) -> None:
    line = stdout.strip()
    got = [] if line == "(empty word)" else line.split()
    want = job.expect["answer"]
    expect(got == want, f"reduce gave {' '.join(got)!r}, shortlex normal form is "
                        f"{' '.join(want)!r}")


def check_verdict(job: Job, stdout: str, workdir: Path) -> None:
    got = stdout.strip()
    want = "true" if job.expect["answer"] else "false"
    expect(got == want, f"answered {got!r}, reference says {want}")


def check_kappa(job: Job, stdout: str, workdir: Path) -> None:
    expect(int(stdout.strip()) == job.expect["answer"],
           f"kappa {stdout.strip()}, reference {job.expect['answer']}")


def check_scan(job: Job, stdout: str, workdir: Path) -> None:
    line = stdout.strip()
    if line == "no almost-relator subword":
        got = None
    else:
        m = re.fullmatch(r"almost-relator at \[(\d+), (\d+)\) of type \{(\S+), (\S+)\}", line)
        expect(m is not None, f"unparsable scan output {line!r}")
        got = [int(m[1]), int(m[2]), [m[3], m[4]]]
    expect(got == job.expect["answer"], f"scan gave {got}, reference {job.expect['answer']}")


# -- graph --------------------------------------------------------------


def check_fold(job: Job, stdout: str, workdir: Path) -> None:
    report = json.loads(stdout)
    e = job.expect
    v_ref, e_ref = e["vertices"], e["geometric_edges"]
    expect((report["vertices"], report["geometric_edges"]) == (v_ref, e_ref),
           f"folded to {report['vertices']} vertices, {report['geometric_edges']} edges; "
           f"reference {v_ref}, {e_ref}")
    expect(report["folded"] is True and report["betti"] == e_ref - v_ref + 1, "bad fold report")
    data = json.loads((workdir / report["output"]).read_text(encoding="utf-8"))
    expect(data["mode"] == e["mode"] and len(data["vertices"]) == v_ref, "bad folded file")
    step: dict[tuple, int] = {}
    for edge in data["edges"]:
        key = (edge["alpha"], edge["label"])
        expect(step.setdefault(key, edge["omega"]) == edge["omega"], "folded file is not folded")
    for word in e["words"]:
        cur = data["basepoint"]
        for letter in word:
            expect((cur, letter) in step, "folded graph rejects a wedge word")
            cur = step[cur, letter]
        expect(cur == data["basepoint"], "folded graph rejects a wedge word")


def check_decomposition(job: Job, stdout: str, workdir: Path) -> None:
    e = job.expect
    lines = stdout.splitlines()
    found = re.search(r"^complexity \(c1\.\.c7\) = \(([\d, ]+)\)$", stdout, re.M)
    star = re.search(r"^c_star = (-?\d+)$", stdout, re.M)
    expect(found is not None and star is not None, "no complexity in the report")
    c = tuple(int(x) for x in found[1].split(","))
    c_star = int(star[1])
    got = dict(zip(("c1", "c2", "c5", "c6"), (c[0], c[1], c[4], c[5])), c_star=c_star)
    expect(got == e["counts"], f"counts {got}, reference {e['counts']}")
    if e["name"] in FROZEN:
        frozen, frozen_star = FROZEN[e["name"]]
        expect(c == frozen and frozen_star in (None, c_star), f"complexity {c} != {frozen}")
    m = e["halving_m"]
    if m is not None:
        expect(c == (1, 1, 0, m // 2 + 1, m, m, 0) and c_star == 2,
               f"halving m={m}: complexity {c}, c_star {c_star}")
    special = lines[1:lines.index("tameness conditions:")]
    expect(special and all(ln.endswith(": pass") for ln in special), "a special condition fails")
    if e["name"] in TAME:
        tame = lines[lines.index("tameness conditions:") + 1:lines.index(found[0])]
        expect(all(ln.endswith(": pass") for ln in tame), "a tameness condition fails")
    dot = (workdir / f"{e['name']}.dot").read_text(encoding="utf-8")
    expect(dot.startswith("graph") and dot.rstrip().endswith("}"), "bad DOT file")


CHECKS = {
    "certify": check_certify,
    "word-reduce": check_reduce,
    "word-equal": check_verdict,
    "word-is-identity": check_verdict,
    "word-kappa": check_kappa,
    "word-scan-relator": check_scan,
    "fold": check_fold,
    "check": check_decomposition,
}
