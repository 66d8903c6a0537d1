"""Command-line surface.

Subcommands: ``word`` (reduce / is-identity / equal / scan-relator /
kappa), ``fold``, ``bounds``, ``check-decomposition``, ``non-example``.

Exit codes are uniform across commands: 0 for a determinate answer, 1 for
an input or parse error, 2 when the work budget ran out before an answer
was reached, 3 when a stored object breaks a structural invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .coxeter import (
    DEFAULT_BUDGET,
    INF,
    CoxeterMatrix,
    Indeterminate,
    InvariantViolation,
    equal_in_group,
    find_almost_relator,
    is_identity,
    kappa,
    mod2_rank_bound,
    parse_word,
    petersen_thom_bound,
    reduce_word,
    word_to_str,
)
from .decomposition import (
    check_tame,
    complexity,
    decomposition_to_dot,
    load_decomposition,
    potential,
    validate_special,
    Marking,
)
from .graphs import (
    LabeledGraph,
    _UnionFind,
    betti,
    fold,
    graph_to_dot,
    is_folded,
    load_graph,
    save_graph,
)
from .family import ExampleFamily

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INDETERMINATE = 2
EXIT_INVARIANT = 3

LARGE_Q = 101


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_word(args: argparse.Namespace) -> int:
    try:
        matrix = CoxeterMatrix.load(args.matrix)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed matrix file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    budget = args.budget or DEFAULT_BUDGET
    w = parse_word(args.word, matrix)
    report: dict = {"action": args.action, "word": word_to_str(w), "budget": budget}
    lines: list[str] = []
    try:
        if args.action == "reduce":
            out = reduce_word(w, matrix, budget=budget)
            report["result"] = word_to_str(out)
            lines.append(word_to_str(out) if out else "(empty word)")
        elif args.action == "is-identity":
            ans = is_identity(w, matrix, budget=budget)
            report["result"] = ans
            lines.append("true" if ans else "false")
        elif args.action == "equal":
            if args.word2 is None:
                print("equal needs a second word", file=sys.stderr)
                return EXIT_INPUT
            w2 = parse_word(args.word2, matrix)
            ans = equal_in_group(w, w2, matrix, budget=budget)
            report["word2"] = word_to_str(w2)
            report["result"] = ans
            lines.append("true" if ans else "false")
        elif args.action == "scan-relator":
            hit = find_almost_relator(w, matrix)
            if hit is None:
                report["result"] = None
                lines.append("no almost-relator subword")
            else:
                i, j, pair = hit
                report["result"] = {"start": i, "end": j, "type": sorted(pair)}
                lines.append(
                    f"almost-relator at [{i}, {j}) of type "
                    f"{{{', '.join(sorted(pair))}}}"
                )
        elif args.action == "kappa":
            value = kappa(w, matrix, budget=budget)
            report["result"] = value
            lines.append(str(value))
        report["budget_exhausted"] = False
    except Indeterminate as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    _emit(report, args.json, lines)
    return EXIT_OK


def _trace_entries(g: LabeledGraph, steps: tuple[tuple[int, int], ...]) -> list[dict]:
    """The ``--trace`` records of a fold of g: the edge pair of each step and
    the vertex count after it.  A step merges the terminal vertices of its
    two edges unless they already coincide."""
    vuf = _UnionFind(g.vertices)
    n = len(g.vertices)
    entries = []
    for a, b in steps:
        n -= vuf.union(g.edge(a).omega, g.edge(b).omega) is not None
        entries.append({"edges": [a, b], "vertices_after": n})
    return entries


def _cmd_fold(args: argparse.Namespace) -> int:
    try:
        g, basepoint = load_graph(args.graph)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed graph file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    trace = fold(g)
    folded = trace.result
    steps = trace.steps
    if basepoint is not None:
        basepoint = trace.vertex_map[basepoint]
    out_path = args.out or (os.path.splitext(args.graph)[0] + ".folded.json")
    save_graph(out_path, folded, basepoint)
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(graph_to_dot(folded, basepoint))
    report = {
        "input": args.graph,
        "output": out_path,
        "steps": len(steps),
        "vertices": len(folded.vertices),
        "geometric_edges": len(folded.geometric_edges()),
        "betti": betti(folded),
        "folded": is_folded(folded),
    }
    lines = [
        f"folded in {len(steps)} steps: {len(folded.vertices)} vertices, "
        f"{len(folded.geometric_edges())} edges, betti {betti(folded)}",
        f"wrote {out_path}",
    ]
    if args.trace:
        report["trace"] = _trace_entries(g, steps)
        lines.extend(
            f"  step {i + 1}: identify edges {a} ~ {b}" for i, (a, b) in enumerate(steps)
        )
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    try:
        matrix = CoxeterMatrix.load(args.matrix)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed matrix file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    n = matrix.rank
    threshold = 6 * 2 ** n
    applies = all(
        matrix.entry(s, t) == INF or matrix.entry(s, t) >= threshold
        for s, t in matrix.pairs()
    )
    m2 = mod2_rank_bound(matrix)
    pt = petersen_thom_bound(matrix)
    report = {
        "n": n,
        "mod2_rank_bound": m2,
        "petersen_thom_bound": pt,
        "threshold": threshold,
        "theorem_applies": applies,
    }
    lines = [
        f"n = {n}",
        f"mod-2 rank bound: {m2}",
        f"spectral rank bound: {pt if pt is not None else 'n/a'}",
        f"threshold 6*2^n = {threshold}",
        f"theorem applies: {'yes; rank = ' + str(n) if applies else 'no'}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_check_decomposition(args: argparse.Namespace) -> int:
    try:
        d, marking, witnesses = load_decomposition(args.decomposition)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"malformed decomposition file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    marking = marking or Marking.empty()
    special = validate_special(d.delta, d.matrix)
    tame = check_tame(d, marking, witnesses, budget=args.budget)
    c = complexity(d, marking)
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(decomposition_to_dot(d))
    report = {
        "special_conditions": {
            name: passed for name, (passed, _) in special.conditions.items()
        },
        "special_ok": special.ok,
        "tame_conditions": tame.statuses,
        "tame_ok": tame.ok,
        "complexity": list(c.as_tuple()),
        "c_star": c.c_star,
        "potential_identity": potential(d) == c.c_star,
    }
    lines = ["special-graph conditions:"]
    lines.extend(
        f"  {name}: {'pass' if passed else 'FAIL'}"
        for name, (passed, _) in special.conditions.items()
    )
    lines.append("tameness conditions:")
    lines.extend(f"  {name}: {status}" for name, status in tame.statuses.items())
    lines.append(f"complexity (c1..c7) = {c.as_tuple()}")
    lines.append(f"c_star = {c.c_star}")
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_non_example(args: argparse.Namespace) -> int:
    q = LARGE_Q if args.large else args.q
    budget = args.budget or DEFAULT_BUDGET
    fam = ExampleFamily(q)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    matrix_path = os.path.join(out_dir, f"nonexample_q{q}_matrix.txt")
    x_path = os.path.join(out_dir, f"nonexample_q{q}_generators.json")
    witness_path = os.path.join(out_dir, f"nonexample_q{q}_witnesses.json")
    with open(matrix_path, "w", encoding="utf-8") as fh:
        fh.write(fam.matrix.to_text())
    x_words = {name: list(w) for name, w in fam.x_words().items()}
    with open(x_path, "w", encoding="utf-8") as fh:
        json.dump({"q": q, "a": fam.a, "x": x_words}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    expressions = fam.witness_expressions()
    report = {
        "q": q,
        "a": fam.a,
        "files": [matrix_path, x_path, witness_path],
        "witnesses": expressions,
        "verified": None,
    }
    lines = [
        f"q = {q}, a = {fam.a}, n = 5",
        f"m_2j = {q} for j in {{3,4,5}}; m_12 = 8 = 2^(5-2), the lower-bound "
        "shape m_st >= 2^(n-2) for a rank-n witness set",
        f"wrote {matrix_path}, {x_path}, {witness_path}",
    ]
    verified: Optional[bool] = None
    cert_payload = {"q": q, "expressions": expressions, "verified": None}
    if args.verify:
        try:
            cert = fam.verify(budget=budget)
        except Indeterminate as exc:
            with open(witness_path, "w", encoding="utf-8") as fh:
                json.dump(cert_payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"indeterminate: {exc}", file=sys.stderr)
            return EXIT_INDETERMINATE
        verified = cert.certified
        cert_payload["verified"] = verified
        cert_payload["witnesses_ok"] = cert.witnesses_ok
        cert_payload["steps"] = [
            {"name": st.name, "output": word_to_str(st.output_word), "ok": st.verified}
            for st in cert.steps
        ]
        report["verified"] = verified
        if verified:
            lines.append("rank(W(M)) <= 4 certified")
        else:
            bad = [st.name for st in cert.steps if not st.verified]
            lines.append(f"certification FAILED at steps: {', '.join(bad)}")
    with open(witness_path, "w", encoding="utf-8") as fh:
        json.dump(cert_payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(report, args.json, lines)
    if args.verify and not verified:
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coxfold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("word", help="word-problem queries against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "action",
        choices=["reduce", "is-identity", "equal", "scan-relator", "kappa"],
    )
    p.add_argument("word")
    p.add_argument("word2", nargs="?", default=None)
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("fold", help="fold a stored labeled graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--emit-dot", default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("bounds", help="rank bounds for a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "check-decomposition", help="validate a stored decomposition"
    )
    p.add_argument("--decomposition", required=True)
    p.add_argument("--emit-dot", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_decomposition)

    p = sub.add_parser(
        "non-example", help="emit the rank-5 family with 4 generators"
    )
    p.add_argument("--q", type=int, default=7)
    p.add_argument("--large", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_non_example)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is not None and args.budget <= 0:
        print(f"error: --budget must be a positive integer, got {args.budget}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except Indeterminate as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except InvariantViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
