"""Seeded jobs for the three workloads.

A job is one ``coxfold`` command line plus what its answer must be.  The
inputs are written into a work directory; the expected answers come from
``oracles`` and never from coxfold.  coxfold itself is imported only to
build and save the halving fixtures of the ``graph`` workload.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import oracles

WORKLOADS = ("certify", "word", "graph")

WHY = {
    "certify": "non-example --verify over q = 21..61: the early-exit identity search "
    "dominates and no fold code runs",
    "word": "word queries on affine A~2, B3 and A4: full closure, canonical minimum, "
    "non-identity and budget-exhausted searches",
    "graph": "fold on seeded wedges (quotient_graph per step) and check-decomposition "
    "on bundled and halving fixtures; no word problem",
}

# One odd q is drawn from each pair: the sweep spans about 21..61.
CERTIFY_Q = ((21, 23), (31, 33), (41, 43), (51, 53), (59, 61))

MATRICES = {
    "a2t": ("a b c\n3 3\n3\n", oracles.type_affine_a),
    "b3": ("s t u\n4 2\n3\n", oracles.type_b3),
    "a4": ("a b c d\n3 2 2\n3 2\n3\n", oracles.type_a),
}

# (matrix, action, word length, budget) for each word job of a pass.  The
# closure search is exponential in the length, so lengths stay where one
# query takes well under a second.  The scan-relator jobs, two lengths per
# matrix, give the length axis of the scaling exponent.  Only the jobs with
# a budget may end undecided.
WORD_PLAN = (
    ("a2t", "reduce", 15, None),
    ("a2t", "reduce", 18, None),
    ("a2t", "equal", 11, None),
    ("a2t", "unequal", 9, None),
    ("a2t", "identity", 10, None),
    ("a2t", "non-identity", 16, None),
    ("a2t", "kappa", 12, None),
    ("a2t", "scan-relator", 200, None),
    ("a2t", "scan-relator", 800, None),
    ("a2t", "reduce", 60, 10000),
    ("b3", "reduce", 12, None),
    ("b3", "reduce", 13, None),
    ("b3", "equal", 9, None),
    ("b3", "unequal", 7, None),
    ("b3", "identity", 9, None),
    ("b3", "non-identity", 12, None),
    ("b3", "kappa", 9, None),
    ("b3", "scan-relator", 200, None),
    ("b3", "scan-relator", 800, None),
    ("b3", "non-identity", 40, 10000),
    ("a4", "reduce", 10, None),
    ("a4", "reduce", 11, None),
    ("a4", "equal", 7, None),
    ("a4", "unequal", 5, None),
    ("a4", "identity", 6, None),
    ("a4", "non-identity", 10, None),
    ("a4", "kappa", 10, None),
    ("a4", "scan-relator", 200, None),
    ("a4", "scan-relator", 800, None),
    ("a4", "non-identity", 40, 10000),
)

# Fold jobs: (mode, alphabet, word length, word counts), so |V| is 221,
# 441 and 881.  Five letters in involutive mode and three in free mode keep
# the folded graph from collapsing to a bouquet.  Folding is quadratic
# today, so the largest wedge stays under 1000 vertices to fit three
# passes into one run.
FOLD_PLAN = (
    ("involutive", "abcde", 12, (20, 40, 80)),
    ("free", "abc", 12, (20, 40, 80)),
)

BUNDLED_DECOMPOSITIONS = (
    "glued_two_path",
    "halving_m12",
    "tame_marked",
    "tame_two_anchor",
    "three_component",
)

# One even m is drawn from each range for halving_fixture(m).
HALVING_M = ((64, 96), (192, 256), (448, 512))


@dataclass
class Job:
    id: str
    kind: str
    argv: list[str]
    size: Optional[float] = None
    expect: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    # True only for word queries run with a small --budget: their exit 2
    # after "indeterminate:" is undecided, anywhere else it is wrong.
    budget_limited: bool = False


def random_word(rng: random.Random, letters, length: int, mode: str = "involutive") -> tuple:
    """Cancellation-free word (no letter next to its inverse)."""
    w: list[str] = []
    while len(w) < length:
        x = rng.choice(letters)
        if mode == "free" and rng.random() < 0.5:
            x += "^-1"
        if w and oracles.inverse_label(w[-1], mode) == x:
            continue
        w.append(x)
    return tuple(w)


def free_reduce(w) -> tuple:
    out: list[str] = []
    for x in w:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def parse_matrix(text: str):
    """Generators and an exponent function, parsed without coxfold."""
    lines = text.split("\n")
    gens = lines[0].split()
    table = {}
    for i, row in enumerate(lines[1:len(gens)]):
        for j, tok in enumerate(row.split(), start=i + 1):
            m = oracles.INF if tok == "inf" else int(tok)
            table[gens[i], gens[j]] = table[gens[j], gens[i]] = m
    return gens, lambda s, t: 1 if s == t else table[s, t]


def braid_shuffle(rng: random.Random, w, exponent, moves: int) -> tuple:
    """Apply random braid moves s t s.. -> t s t.. (same element, same
    length)."""
    w = list(w)
    for _ in range(moves):
        sites = []
        for i in range(len(w) - 1):
            s, t = w[i], w[i + 1]
            m = exponent(s, t) if s != t else oracles.INF
            if m != oracles.INF and i + m <= len(w):
                if all(w[i + k] == (s if k % 2 == 0 else t) for k in range(m)):
                    sites.append((i, s, t, m))
        if not sites:
            break
        i, s, t, m = rng.choice(sites)
        w[i:i + m] = [t if k % 2 == 0 else s for k in range(m)]
    return tuple(w)


def _word_job(rng, idx: int, name: str, action: str, length: int, budget) -> Job:
    text, make_oracle = MATRICES[name]
    gens, exponent = parse_matrix(text)
    oracle = make_oracle(gens)
    u = random_word(rng, gens, length)
    argv = ["word", "--matrix", f"{name}.txt"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    words = [u]
    if action == "reduce":
        cli_action, answer = "reduce", list(oracle.normal_form(u))
    elif action in ("equal", "unequal"):
        target = u if action == "equal" else u + (rng.choice(gens),)
        v = braid_shuffle(rng, oracle.normal_form(target), exponent, 3)
        cli_action, answer = "equal", oracle.equal(u, v)
        words.append(v)
    elif action == "identity":
        v = braid_shuffle(rng, oracle.normal_form(u), exponent, 3)
        while not free_reduce(u + tuple(reversed(v))):
            u = random_word(rng, gens, length)
            v = braid_shuffle(rng, oracle.normal_form(u), exponent, 3)
        words = [free_reduce(u + tuple(reversed(v)))]
        cli_action, answer = "is-identity", oracle.is_identity(words[0])
    elif action == "non-identity":
        cli_action, answer = "is-identity", oracle.is_identity(u)
    elif action == "kappa":
        words = [braid_shuffle(rng, oracle.normal_form(u), exponent, 3)]
        cli_action, answer = "kappa", oracles.kappa(words[0])
    elif action == "scan-relator":
        hit = oracles.almost_relator(u, exponent)
        cli_action, answer = "scan-relator", None if hit is None else [hit[0], hit[1], list(hit[2])]
    else:
        raise ValueError(action)
    argv += [cli_action] + [" ".join(w) for w in words]
    expect = {"matrix": name, "answer": answer}
    return Job(f"word{idx:02d}-{name}-{action}", f"word-{cli_action}", argv,
               float(sum(len(w) for w in words)), expect, budget_limited=budget is not None)


def _write_wedge(path: Path, words, mode: str) -> int:
    """Save the wedge of the words in coxfold's graph JSON format."""
    vertices, edges = [0], []

    def add_edge(u: int, v: int, label: str) -> None:
        eid = len(edges)
        edges.append({"id": eid, "inv": eid + 1, "alpha": u, "omega": v, "label": label})
        edges.append({"id": eid + 1, "inv": eid, "alpha": v, "omega": u,
                      "label": oracles.inverse_label(label, mode)})

    for w in words:
        cur = 0
        for k, letter in enumerate(w):
            nxt = 0 if k == len(w) - 1 else len(vertices)
            if nxt:
                vertices.append(nxt)
            add_edge(cur, nxt, letter)
            cur = nxt
    data = {"basepoint": 0, "edges": edges, "mode": mode, "vertices": vertices}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return len(vertices)


def _graph_jobs(rng: random.Random, workdir: Path, data_dir: Path) -> list[Job]:
    from coxfold.decomposition import save_decomposition
    from coxfold.fixtures import halving_fixture

    jobs = []
    for mode, letters, length, counts in FOLD_PLAN:
        for count in counts:
            words = [random_word(rng, letters, length, mode) for _ in range(count)]
            stem = f"wedge_{mode}_{count}"
            n_vertices = _write_wedge(workdir / f"{stem}.json", words, mode)
            v, e = oracles.fold_counts(words, mode)
            argv = ["fold", "--graph", f"{stem}.json", "--out", f"{stem}.folded.json", "--json"]
            expect = {"words": [list(w) for w in words], "mode": mode,
                      "vertices": v, "geometric_edges": e}
            jobs.append(Job(f"fold-{mode}-{n_vertices}", "fold", argv, float(n_vertices), expect,
                            [f"{stem}.folded.json"]))
    decompositions = []
    for name in BUNDLED_DECOMPOSITIONS:
        shutil.copyfile(data_dir / f"{name}.json", workdir / f"{name}.json")
        decompositions.append((name, 12 if name == "halving_m12" else None))
    for lo, hi in HALVING_M:
        m = rng.randrange(lo, hi + 1, 2)
        save_decomposition(str(workdir / f"halving_{m}.json"), halving_fixture(m))
        decompositions.append((f"halving_{m}", m))
    for name, m in decompositions:
        data = json.loads((workdir / f"{name}.json").read_text(encoding="utf-8"))
        argv = ["check-decomposition", "--decomposition", f"{name}.json",
                "--emit-dot", f"{name}.dot"]
        expect = {"name": name, "counts": oracles.decomposition_counts(data), "halving_m": m}
        jobs.append(Job(f"check-{name}", "check", argv, None, expect, [f"{name}.dot"]))
    return jobs


def build(workload: str, seed: int, workdir: Path, data_dir: Path) -> list[Job]:
    """Write the inputs of one workload into workdir and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        jobs = []
        for pair in CERTIFY_Q:
            q = rng.choice(pair)
            argv = ["non-example", "--q", str(q), "--verify", "--out", f"cert_q{q}"]
            outputs = [f"cert_q{q}/nonexample_q{q}_{part}" for part in ("matrix.txt", "witnesses.json")]
            jobs.append(Job(f"certify-q{q}", "certify", argv, float(q), {"q": q}, outputs))
        return jobs
    if workload == "word":
        for name, (text, _) in MATRICES.items():
            (workdir / f"{name}.txt").write_text(text, encoding="utf-8")
        return [_word_job(rng, i, *plan) for i, plan in enumerate(WORD_PLAN)]
    if workload == "graph":
        return _graph_jobs(rng, workdir, data_dir)
    raise ValueError(f"unknown workload {workload!r}")
