"""Reference answers that do not come from coxfold.

Nothing in this module imports coxfold.  The word oracles are faithful
integer representations of the benchmark's Coxeter groups:

* type A_n: permutations of 1..n+1, generator i swapping i and i+1;
* type B3 (exponents 4, 3, 2): signed permutations of 1..3;
* affine type A~2 (all exponents 3): affine permutations of Z with
  period 3, written as the window (w(1), w(2), w(3)).

An element is stored as the tuple of images of a fixed set of base points
and a word ``x1 ... xk`` acts as ``s_x1(...(s_xk(points)))``.  Lengths come
from a breadth-first search of the whole group (finite types) or from
Shi's inversion formula (affine type), and the shortlex normal form is
read off by repeatedly stripping the smallest left descent.

The float geometric (Tits) representation checks the rank-5 certificate,
and a union-find Stallings fold gives the vertex and edge counts of a
folded wedge.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterable, Optional, Sequence

Word = tuple[str, ...]
INF = math.inf


class WordOracle:
    """A faithful representation of a Coxeter group on integer points."""

    def __init__(
        self,
        generators: Sequence[str],
        actions: dict[str, Callable[[int], int]],
        points: Sequence[int],
        length: Optional[Callable[[tuple[int, ...]], int]] = None,
    ):
        self.generators = tuple(generators)
        self._actions = actions
        self.identity = tuple(points)
        if length is None:
            table = self.enumerate()
            length = table.__getitem__
        self._length = length

    def act(self, letter: str, element: tuple[int, ...]) -> tuple[int, ...]:
        f = self._actions[letter]
        return tuple(f(v) for v in element)

    def element(self, word: Iterable[str]) -> tuple[int, ...]:
        e = self.identity
        for letter in reversed(tuple(word)):
            e = self.act(letter, e)
        return e

    def length(self, element: tuple[int, ...]) -> int:
        return self._length(element)

    def is_identity(self, word: Iterable[str]) -> bool:
        return self.element(word) == self.identity

    def equal(self, w1: Iterable[str], w2: Iterable[str]) -> bool:
        return self.element(w1) == self.element(w2)

    def normal_form(self, word: Iterable[str]) -> Word:
        """Shortlex-least reduced word (generator order) of the element."""
        e = self.element(word)
        n = self.length(e)
        out: list[str] = []
        while n:
            for s in self.generators:
                e2 = self.act(s, e)
                n2 = self.length(e2)
                if n2 < n:
                    out.append(s)
                    e, n = e2, n2
                    break
            else:
                raise ArithmeticError("element without a left descent")
        return tuple(out)

    def enumerate(self) -> dict[tuple[int, ...], int]:
        """Word length of every element, by breadth-first search (finite
        groups only)."""
        lengths = {self.identity: 0}
        queue = deque([self.identity])
        while queue:
            e = queue.popleft()
            for s in self.generators:
                f = self.act(s, e)
                if f not in lengths:
                    lengths[f] = lengths[e] + 1
                    queue.append(f)
        return lengths


def _swap(i: int, j: int) -> Callable[[int], int]:
    return lambda v: j if v == i else i if v == j else v


def type_a(generators: Sequence[str]) -> WordOracle:
    """A_n on n+1 points; generator k swaps points k+1 and k+2."""
    n = len(generators)
    actions = {g: _swap(k + 1, k + 2) for k, g in enumerate(generators)}
    return WordOracle(generators, actions, range(1, n + 2))


def type_b3(generators: Sequence[str]) -> WordOracle:
    """B3 with m(g0, g1) = 4, m(g1, g2) = 3, m(g0, g2) = 2: g0 negates the
    point 1, g1 and g2 swap 1, 2 and 2, 3 keeping signs."""
    g0, g1, g2 = generators
    sw12, sw23 = _swap(1, 2), _swap(2, 3)
    actions = {
        g0: lambda v: -v if abs(v) == 1 else v,
        g1: lambda v: sw12(v) if v > 0 else -sw12(-v),
        g2: lambda v: sw23(v) if v > 0 else -sw23(-v),
    }
    return WordOracle(generators, actions, (1, 2, 3))


def type_affine_a(generators: Sequence[str]) -> WordOracle:
    """Affine A_{n-1} (all exponents 3, n = len(generators) >= 3) acting on
    the window (w(1), ..., w(n)); generator k swaps the residues k and
    k + 1 mod n."""
    n = len(generators)

    def reflection(k: int) -> Callable[[int], int]:
        def f(v: int) -> int:
            r = v % n
            if r == k:
                return v + 1
            if r == (k + 1) % n:
                return v - 1
            return v
        return f

    def length(window: tuple[int, ...]) -> int:
        # Shi's formula: sum over i < j of |floor((w(j) - w(i)) / n)|
        return sum(
            abs((window[j] - window[i]) // n)
            for i in range(n)
            for j in range(i + 1, n)
        )

    actions = {g: reflection(k) for k, g in enumerate(generators)}
    return WordOracle(generators, actions, range(1, n + 1), length)


# -- alternating subwords -----------------------------------------------


def maximal_alternating_runs(w: Sequence[str]) -> list[tuple[int, int]]:
    """Ranges [i, j) of the maximal subwords of the form s t s t ...

    Built from the left: a run is extended while the letter two back
    matches; a new run starts one letter before the break so that
    neighbouring runs share a letter.
    """
    n = len(w)
    if n == 0:
        return []
    runs = []
    start = 0
    for k in range(1, n + 1):
        breaks = k == n or w[k] == w[k - 1] or (k - start >= 2 and w[k] != w[k - 2])
        if breaks:
            runs.append((start, k))
            if k < n:
                start = k if w[k] == w[k - 1] else k - 1
    return runs


def kappa(w: Sequence[str]) -> int:
    """Fewest maximal alternating subwords that cover w."""
    n = len(w)
    best = [0] + [n + 1] * n
    for a, b in maximal_alternating_runs(w):
        for covered in range(a, b):
            best[b] = min(best[b], best[covered] + 1)
    return best[n]


def almost_relator(
    w: Sequence[str], exponent: Callable[[str, str], float]
) -> Optional[tuple[int, int, tuple[str, str]]]:
    """Leftmost maximal alternating subword of length >= 2 m - 3 whose two
    letters have a finite exponent m; (start, end, sorted pair) or None."""
    for a, b in maximal_alternating_runs(w):
        if b - a < 2:
            continue
        m = exponent(w[a], w[a + 1])
        if m != INF and b - a >= 2 * m - 3:
            return a, b, tuple(sorted((w[a], w[a + 1])))
    return None


# -- float geometric representation -------------------------------------


def tits_form(
    generators: Sequence[str], exponent: Callable[[str, str], float]
) -> dict[str, tuple[int, list[float]]]:
    """Per generator, its index and its row of 2 B with B(s, t) =
    -cos(pi / m_st) (-1 when m_st is infinite): on the root basis the
    reflection is s(alpha_t) = alpha_t - 2 B(s, t) alpha_s."""
    form = {}
    for i, s in enumerate(generators):
        row = []
        for t in generators:
            m = 1 if s == t else exponent(s, t)
            row.append(-2.0 if m == INF else -2.0 * math.cos(math.pi / m))
        form[s] = (i, row)
    return form


def word_matrix(
    word: Sequence[str], form: dict[str, tuple[int, list[float]]]
) -> tuple[list[list[float]], float]:
    """Product of the letters' reflection matrices, and the largest entry
    met on the way, which bounds the rounding error of the product.

    Right multiplication by a reflection is a rank-one update: column c
    of each row loses row[s] * 2 B(s, c).
    """
    n = len(form)
    acc = [[float(r == c) for c in range(n)] for r in range(n)]
    scale = 1.0
    for letter in word:
        i, b2 = form[letter]
        for row in acc:
            x = row[i]
            if x:
                for c in range(n):
                    row[c] -= x * b2[c]
        scale = max(scale, max(abs(x) for row in acc for x in row))
    return acc, scale


def same_matrix(w1: Sequence[str], w2: Sequence[str], form, rel_tol: float = 1e-9) -> bool:
    """True iff the words' matrices agree within the rounding bound."""
    a, sa = word_matrix(w1, form)
    b, sb = word_matrix(w2, form)
    diff = max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    return diff <= rel_tol * (len(w1) + len(w2) + 1) * max(sa, sb)


# -- Stallings folding --------------------------------------------------


def inverse_label(label: str, mode: str) -> str:
    if mode == "involutive":
        return label
    return label[:-3] if label.endswith("^-1") else label + "^-1"


def fold_counts(words: Sequence[Sequence[str]], mode: str) -> tuple[int, int]:
    """(vertices, geometric edges) of the folded wedge of the words.

    Vertices are merged with a union-find; each class keeps one outgoing
    target per label, and a clash of targets queues a further merge.
    """
    parent: list[int] = [0]
    out: list[dict[str, int]] = [{}]
    pending: list[tuple[int, int]] = []

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def add_edge(u: int, label: str, v: int) -> None:
        for a, x, b in ((u, label, v), (v, inverse_label(label, mode), u)):
            a = find(a)
            prev = out[a].setdefault(x, b)
            if prev != b:
                pending.append((prev, b))

    for w in words:
        cur = 0
        for k, letter in enumerate(w):
            if k == len(w) - 1:
                nxt = 0
            else:
                nxt = len(parent)
                parent.append(nxt)
                out.append({})
            add_edge(cur, letter, nxt)
            cur = nxt
    while pending:
        a, b = (find(v) for v in pending.pop())
        if a == b:
            continue
        if len(out[a]) < len(out[b]):
            a, b = b, a
        parent[b] = a
        for x, t in out[b].items():
            prev = out[a].setdefault(x, t)
            if find(prev) != find(t):
                pending.append((prev, t))
        out[b] = {}
    roots = {find(v) for v in range(len(parent))}
    edges = set()
    for u in roots:
        for x, t in out[u].items():
            v = find(t)
            if mode == "involutive":
                edges.add((x, min(u, v), max(u, v)))
            elif not x.endswith("^-1"):
                edges.add((x, u, v))
    return len(roots), len(edges)


# -- decomposition counts -----------------------------------------------


def _components(vertices: Iterable, edges: Iterable[tuple]) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in parent})


def decomposition_counts(data: dict) -> dict[str, int]:
    """c1, c2, c5, c6 and c_star of a stored decomposition, by counting.

    Theta glues Gamma and Delta along the forest F, so it has
    |V(Gamma)| + |V(Delta)| - |F-vertices| vertices and
    |E(Gamma)| + |E(Delta)| - |F-edges| geometric edges.
    """
    gamma, delta = data["gamma"], data["delta"]["graph"]
    g_edges = [(e["alpha"], e["omega"]) for e in gamma["edges"] if e["id"] < e["inv"]]
    d_edges = [(e["alpha"], e["omega"]) for e in delta["edges"] if e["id"] < e["inv"]]
    p = {int(k): v for k, v in data["p_vertices"].items()}
    theta_vertices = [("g", v) for v in gamma["vertices"]] + [
        ("d", v) for v in delta["vertices"] if v not in p
    ]

    def theta_vertex(v: int) -> tuple:
        return ("g", p[v]) if v in p else ("d", v)

    theta_edges = [(("g", a), ("g", b)) for a, b in g_edges] + [
        (theta_vertex(a), theta_vertex(b)) for a, b in d_edges
    ]
    n_theta_edges = len(theta_edges) - len(data["f_edges"])
    b_theta = n_theta_edges - len(theta_vertices) + _components(theta_vertices, theta_edges)
    loops = sum(1 for a, b in d_edges if a == b)
    return {
        "c1": b_theta - len(data["delta"]["special_paths"]),
        "c2": b_theta + len(delta["vertices"]) - len(d_edges),
        "c5": len(d_edges),
        "c6": n_theta_edges,
        "c_star": b_theta + _components(delta["vertices"], d_edges) - loops,
    }
