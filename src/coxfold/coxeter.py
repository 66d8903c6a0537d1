"""Words over a Coxeter generating set and the word problem.

A Coxeter matrix ``M = (m_st)`` over a finite ordered generator set ``S``
presents the group ``W(M) = <S | (st)^m_st>``.  Generators are involutions,
so the inverse of a word is its reversal.  The word problem is solved in
polynomial time by a descent engine: s is a left descent of w iff
``w^-1(alpha_s)`` is a negative root in the geometric representation, and
stripping the smallest left descent again and again spells the shortlex
normal form of w (``reduce_word``).  Signs of roots are certified in
fixed-point arithmetic with a per-entry error bound; ``budget`` caps the
engine's updates and ``Indeterminate`` reports running past it.

``tits_closure`` is the reference engine: the breadth-first closure of a
word under Tits' two length-non-increasing moves,

* cancellation: delete an adjacent equal pair ``ss``;
* homotopy: replace a factor ``gamma_st(m_st)`` by ``gamma_ts(m_st)``
  when ``m_st`` is finite.

A word represents the identity iff the empty word appears in that closure.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

INF = math.inf

DEFAULT_BUDGET = 2_000_000

Word = tuple[str, ...]


class Indeterminate(Exception):
    """The engine ran past its work budget before reaching an answer."""


class InvariantViolation(Exception):
    """A structural invariant that holds by construction failed."""


class CoxeterMatrix:
    """Symmetric matrix of exponents over an ordered finite generator set.

    Diagonal entries are 1, off-diagonal entries lie in {2, 3, ...} or are
    infinite (``math.inf``).
    """

    def __init__(self, generators: Sequence[str], entries: Mapping[tuple[str, str], int | float]):
        gens = tuple(generators)
        if len(set(gens)) != len(gens) or not gens:
            raise ValueError("generators must be a nonempty sequence of distinct symbols")
        for g in gens:
            if not g or any(ch.isspace() for ch in g):
                raise ValueError(f"bad generator symbol {g!r}")
        self._generators = gens
        self._index = {g: i for i, g in enumerate(gens)}
        table: dict[tuple[str, str], int | float] = {}
        for i, s in enumerate(gens):
            for t in gens[i + 1:]:
                if (s, t) in entries:
                    m = entries[(s, t)]
                elif (t, s) in entries:
                    m = entries[(t, s)]
                else:
                    raise ValueError(f"missing entry for pair ({s}, {t})")
                if m != INF:
                    if not isinstance(m, int) or m < 2:
                        raise ValueError(f"entry for ({s}, {t}) must be an integer >= 2 or infinity")
                table[(s, t)] = m
                table[(t, s)] = m
        for key in entries:
            s, t = key
            if s not in self._index or t not in self._index:
                raise ValueError(f"entry {key} mentions an unknown generator")
            if s == t and entries[key] != 1:
                raise ValueError("diagonal entries must be 1")
        self._table = table

    @property
    def generators(self) -> tuple[str, ...]:
        return self._generators

    @property
    def rank(self) -> int:
        return len(self._generators)

    def index(self, s: str) -> int:
        return self._index[s]

    def entry(self, s: str, t: str) -> int | float:
        if s == t:
            if s not in self._index:
                raise KeyError(s)
            return 1
        return self._table[(s, t)]

    def is_skew_angled(self) -> bool:
        return all(m >= 3 for m in self._table.values())

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Unordered generator pairs, each yielded once."""
        for i, s in enumerate(self._generators):
            for t in self._generators[i + 1:]:
                yield s, t

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CoxeterMatrix)
            and self._generators == other._generators
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self._generators, tuple(sorted((k, v) for k, v in self._table.items()))))

    def __repr__(self) -> str:
        return f"CoxeterMatrix(generators={self._generators!r})"

    # -- serialization --------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "CoxeterMatrix":
        """Parse the plain-text format.

        Line one holds the space-separated generator names; each following
        line holds the upper-triangular entries of one row, with the token
        ``inf`` for an infinite exponent.
        """
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty matrix file")
        gens = tuple(lines[0].split())
        n = len(gens)
        rows = lines[1:]
        if len(rows) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} entry rows, found {len(rows)}")
        entries: dict[tuple[str, str], int | float] = {}
        for i, row in enumerate(rows):
            tokens = row.split()
            if len(tokens) != n - 1 - i:
                raise ValueError(f"row {i + 1}: expected {n - 1 - i} entries, found {len(tokens)}")
            for j, tok in enumerate(tokens, start=i + 1):
                entries[(gens[i], gens[j])] = INF if tok == "inf" else int(tok)
        return cls(gens, entries)

    def to_text(self) -> str:
        lines = [" ".join(self._generators)]
        gens = self._generators
        for i in range(len(gens) - 1):
            tokens = []
            for j in range(i + 1, len(gens)):
                m = self.entry(gens[i], gens[j])
                tokens.append("inf" if m == INF else str(m))
            lines.append(" ".join(tokens))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CoxeterMatrix":
        """Inverse of ``to_json_dict``.  A missing field raises KeyError, a
        wrongly typed one TypeError, a broken structure ValueError."""
        if not isinstance(data, dict):
            raise TypeError("a matrix must be a JSON object")
        gens, upper = data["generators"], data["upper_triangular"]
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise TypeError("generators must be a list of strings")
        if not isinstance(upper, list) or not all(isinstance(row, list) for row in upper):
            raise TypeError("upper_triangular must be a list of lists")
        entries: dict[tuple[str, str], int | float] = {}
        if len(upper) != max(len(gens) - 1, 0):
            raise ValueError("upper_triangular has the wrong number of rows")
        for i, row in enumerate(upper):
            if len(row) != len(gens) - 1 - i:
                raise ValueError(f"upper_triangular row {i} has the wrong length")
            for j, value in enumerate(row, start=i + 1):
                if value != "inf" and type(value) is not int:
                    raise TypeError(
                        f"entry {value!r} for ({gens[i]}, {gens[j]}) is not an integer or \"inf\""
                    )
                entries[(gens[i], gens[j])] = INF if value == "inf" else value
        return cls(gens, entries)

    def to_json_dict(self) -> dict:
        gens = self._generators
        upper = []
        for i in range(len(gens) - 1):
            row = []
            for j in range(i + 1, len(gens)):
                m = self.entry(gens[i], gens[j])
                row.append("inf" if m == INF else m)
            upper.append(row)
        return {"generators": list(gens), "upper_triangular": upper}

    @classmethod
    def load(cls, path: str) -> "CoxeterMatrix":
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(".json"):
            return cls.from_json_dict(json.loads(text))
        return cls.from_text(text)


# -- words --------------------------------------------------------------


def parse_word(text: str, matrix: CoxeterMatrix | None = None) -> Word:
    """Split a word on whitespace; an empty string is the empty word."""
    letters = tuple(text.split())
    if matrix is not None:
        for x in letters:
            if x not in matrix.generators:
                raise ValueError(f"letter {x!r} is not a generator")
    return letters


def word_to_str(w: Word) -> str:
    return " ".join(w)


def inverse_word(w: Word) -> Word:
    """Generators are involutions, so inversion is reversal."""
    return tuple(reversed(w))


def alternating_word(s: str, t: str, k: int) -> Word:
    """The length-k word s t s t ... starting with s."""
    if s == t:
        raise ValueError("alternating word needs two distinct generators")
    if k < 0:
        raise ValueError("length must be nonnegative")
    return tuple(s if i % 2 == 0 else t for i in range(k))


def free_reduce(w: Word) -> Word:
    """Delete adjacent equal pairs until none remain (confluent)."""
    out: list[str] = []
    for x in w:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cancellation_sites(w: Word) -> list[int]:
    """Indices i with w[i] == w[i+1]; applying a site deletes both letters."""
    return [i for i in range(len(w) - 1) if w[i] == w[i + 1]]


def homotopy_sites(w: Word, matrix: CoxeterMatrix) -> list[tuple[int, str, str]]:
    """Positions where a factor gamma_st(m_st) with finite m_st begins.

    Applying a site replaces the factor by gamma_ts(m_st).  Pairs with an
    infinite exponent never produce a site.
    """
    sites: list[tuple[int, str, str]] = []
    n = len(w)
    for i in range(n - 1):
        s, t = w[i], w[i + 1]
        if s == t:
            continue
        m = matrix.entry(s, t)
        if m == INF or i + m > n:
            continue
        if w[i:i + m] == alternating_word(s, t, m):
            sites.append((i, s, t))
    return sites


def apply_cancellation(w: Word, i: int) -> Word:
    if not (0 <= i < len(w) - 1 and w[i] == w[i + 1]):
        raise ValueError("not a cancellation site")
    return w[:i] + w[i + 2:]


def apply_homotopy(w: Word, site: tuple[int, str, str], matrix: CoxeterMatrix) -> Word:
    i, s, t = site
    m = matrix.entry(s, t)
    if m == INF or w[i:i + m] != alternating_word(s, t, m):
        raise ValueError("not a homotopy site")
    return w[:i] + alternating_word(t, s, int(m)) + w[i + m:]


@dataclass(frozen=True)
class TitsClosure:
    origin: Word
    members: frozenset[Word]
    budget_exhausted: bool


def tits_closure(w: Word, matrix: CoxeterMatrix, budget: int = DEFAULT_BUDGET) -> TitsClosure:
    """Breadth-first closure of {w} under cancellations and homotopies.

    This is the exponential reference engine; the word-problem functions
    use the descent engine.  The search stops once ``budget`` distinct
    words have been collected; truncation is flagged, not an error.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    w = tuple(w)
    seen: set[Word] = {w}
    queue: deque[Word] = deque([w])
    exhausted = False
    while queue:
        cur = queue.popleft()
        nexts: list[Word] = [apply_cancellation(cur, i) for i in cancellation_sites(cur)]
        nexts.extend(apply_homotopy(cur, site, matrix) for site in homotopy_sites(cur, matrix))
        for nxt in nexts:
            if nxt not in seen:
                if len(seen) >= budget:
                    exhausted = True
                    queue.clear()
                    break
                seen.add(nxt)
                queue.append(nxt)
    return TitsClosure(origin=w, members=frozenset(seen), budget_exhausted=exhausted)


# -- the descent engine -------------------------------------------------
#
# W(M) acts on the real vector space with basis (alpha_s) through the
# reflections sigma_s(v) = v - 2 B(alpha_s, v) alpha_s, where
# B(alpha_s, alpha_t) = -cos(pi / m_st) and -1 when m_st is infinite.  So
# sigma_s changes coordinate s alone: v_s <- -v_s + sum_t c_st v_t with
# c_st = 2 cos(pi / m_st), and c_st = 2 when m_st is infinite.  For an
# element w, s is a left descent (l(s w) < l(w)) iff w^-1(alpha_s) is a
# negative root, and the identity is the only element without one.
# Stripping the smallest left descent again and again spells the
# lexicographically least reduced word of w (Bjorner-Brenti, ch. 4).
#
# Coordinates are fixed-point integers scaled by 2**bits, each with a bound
# on its error.  The coefficients 0, 1 and 2 (m_st in {2, 3, inf}) are
# applied exactly; the others are rounded to within one unit.  A root is
# either nonnegative or nonpositive, so its sign is certified by any one
# coordinate whose absolute value exceeds its error bound.  Every root has
# a coordinate of absolute value at least 1/rank (B(beta, beta) = 1), so
# with enough bits some coordinate is always certified.


def _fixed_pi(bits: int) -> int:
    """pi * 2**bits, within 8 * bits units (Machin's formula)."""

    def atan_inv(x: int) -> int:
        total = term = (1 << bits) // x
        k = 1
        while term:
            term //= x * x
            k += 2
            total += -(term // k) if k % 4 == 3 else term // k
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


@lru_cache(maxsize=256)
def _two_cos_series(m: int, bits: int) -> int:
    """2 cos(pi / m) * 2**bits, within one unit, by the Taylor series."""
    guard = 32
    g = bits + guard
    x = _fixed_pi(g) // m
    x2 = x * x >> g
    total = term = 1 << g
    k = 0
    while term:
        k += 2
        term = (term * x2 >> g) // ((k - 1) * k)
        total += -term if k % 4 == 2 else term
    return (2 * total + (1 << (guard - 1))) >> guard


def _two_cos_pi_over(m: int, bits: int) -> int:
    """2 cos(pi / m) * 2**bits, within one unit.  The series runs at the
    next power of two ``top``, so word lengths share a few cached values:
    scaled down it is within 2**(bits - top) <= 1/2 unit when top > bits,
    and rounding adds half a unit."""
    top = 1 << max(bits - 1, 1).bit_length()
    drop = top - bits
    return (_two_cos_series(m, top) + (1 << drop >> 1)) >> drop


_EXACT = {2: 0, 3: 1, INF: 2}


class _GeometricRep:
    """The matrix of w^-1 on the basis (alpha_s), updated one reflection at
    a time.  Column t is the root w^-1(alpha_t); x[i][t] is its coordinate
    i times 2**bits and e[i][t] bounds that entry's error."""

    def __init__(self, matrix: CoxeterMatrix, bits: int):
        gens = matrix.generators
        n = len(gens)
        self.bits = bits
        # per generator s: (t, c, exact) for every t with c_st != 0; c is
        # the coefficient itself when exact, else c_st * 2**bits rounded
        self.coeffs = [
            [
                (j, _EXACT[m], True) if m in _EXACT else (j, _two_cos_pi_over(m, bits), False)
                for j, t in enumerate(gens)
                if t != s and (m := matrix.entry(s, t)) != 2
            ]
            for s in gens
        ]
        one = 1 << bits
        self.x = [[one if i == j else 0 for j in range(n)] for i in range(n)]
        self.e = [[0] * n for _ in range(n)]

    def append(self, s: int) -> None:
        """w <- w s, so w^-1 <- s w^-1: sigma_s applied to every column
        changes row s alone."""
        x, e, bits = self.x, self.e, self.bits
        xs = [-v for v in x[s]]
        es = e[s]
        for t, c, exact in self.coeffs[s]:
            xt, et = x[t], e[t]
            if exact:
                xs = [a + c * b for a, b in zip(xs, xt)]
                es = [a + c * f for a, f in zip(es, et)]
            else:
                xs = [a + (c * b >> bits) for a, b in zip(xs, xt)]
                es = [a + (((c + 1) * f + abs(b)) >> bits) + 2 for a, b, f in zip(es, xt, et)]
        x[s], e[s] = xs, es

    def strip(self, s: int) -> None:
        """w <- s w for a left descent s, so w^-1 <- w^-1 s:
        u_t += c_st u_s for every t, then u_s <- -u_s."""
        bits = self.bits
        for xi, ei in zip(self.x, self.e):
            b, f = xi[s], ei[s]
            for t, c, exact in self.coeffs[s]:
                if exact:
                    xi[t] += c * b
                    ei[t] += c * f
                else:
                    xi[t] += c * b >> bits
                    ei[t] += (((c + 1) * f + abs(b)) >> bits) + 2
            xi[s] = -b

    def first_descent(self) -> Optional[int]:
        """The smallest s whose root u_s is certified negative, the rank
        when every root is certified positive, or None when a root before
        the first negative one has no certified coordinate."""
        for s in range(len(self.x)):
            for xi, ei in zip(self.x, self.e):
                if abs(xi[s]) > ei[s]:
                    if xi[s] < 0:
                        return s
                    break
            else:
                return None
        return len(self.x)


def reduce_word(w: Word, matrix: CoxeterMatrix, budget: int = DEFAULT_BUDGET) -> Word:
    """A shortest word equal to w in W(M); ties broken lexicographically.

    The lexicographic order follows the generator order of the matrix, so
    the result is a canonical form: two words are equal in the group iff
    their reduced forms coincide.  After adjacent equal pairs are
    cancelled, the letters are applied and the smallest left descent is
    stripped until none is left.  Each reflection applied is one update of
    the work budget; when a sign cannot be certified the run restarts with
    twice the bits, and the updates already spent still count.  Raises
    Indeterminate when more than ``budget`` updates are needed.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    letters = [matrix.index(x) for x in free_reduce(w)]
    exact = all(matrix.entry(s, t) in _EXACT for s, t in matrix.pairs())
    bits = 0 if exact else 64 + 2 * len(letters)
    used = 0

    def spend() -> None:
        nonlocal used
        used += 1
        if used > budget:
            raise Indeterminate(
                f"work budget of {budget} updates exhausted after {used - 1} updates "
                f"on a word of length {len(letters)}"
            )

    while True:
        rep = _GeometricRep(matrix, bits)
        for s in letters:
            spend()
            rep.append(s)
        out: list[str] = []
        while (s := rep.first_descent()) is not None:
            if s == matrix.rank:
                return tuple(out)
            spend()
            rep.strip(s)
            out.append(matrix.generators[s])
        bits *= 2


def is_identity(w: Word, matrix: CoxeterMatrix, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff w represents 1 in W(M)."""
    return not reduce_word(w, matrix, budget)


def equal_in_group(w1: Word, w2: Word, matrix: CoxeterMatrix, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff w1 and w2 represent the same element of W(M)."""
    return is_identity(tuple(w1) + inverse_word(tuple(w2)), matrix, budget)


def is_reduced(w: Word, matrix: CoxeterMatrix, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff w is geodesic: no shorter word represents the same element."""
    return len(reduce_word(w, matrix, budget)) == len(w)


# -- alternating-subword bookkeeping ------------------------------------


def maximal_alternating_runs(w: Word) -> list[tuple[int, int]]:
    """Index ranges [i, j) of the maximal alternating subwords of w.

    Maximality is by inclusion; distinct runs may overlap in one letter.
    One left-to-right pass: a run grows while each letter differs from the
    one before it and equals the one two back.  When the run breaks at k,
    the next run starts at k if w[k] repeats w[k-1], else at k - 1, so
    neighbouring runs share a letter.  Runs come out in strictly
    increasing order of start, and so of end.
    """
    n = len(w)
    runs: list[tuple[int, int]] = []
    start = 0
    for k in range(1, n):
        if w[k] != w[k - 1] and (k - start < 2 or w[k] == w[k - 2]):
            continue
        runs.append((start, k))
        start = k if w[k] == w[k - 1] else k - 1
    if n:
        runs.append((start, n))
    return runs


def kappa(w: Word, matrix: CoxeterMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """Minimal number of maximal alternating subwords covering w.

    Defined only for reduced (geodesic) input; other input is a
    precondition error.  The runs are intervals sorted by start, so a
    greedy sweep is optimal: extend the covered prefix by the run that
    reaches farthest among those starting inside it.
    """
    w = tuple(w)
    if not is_reduced(w, matrix, budget):
        raise ValueError("kappa requires a reduced word")
    # covered: the prefix covered by count runs; reach: the farthest end
    # of a run starting inside it.  The empty end run forces the last pick.
    count = covered = reach = 0
    for (a, b) in maximal_alternating_runs(w) + [(len(w), len(w))]:
        if a > covered:
            count, covered = count + 1, reach
            if a > covered:
                raise InvariantViolation("maximal alternating runs must cover the word")
        reach = max(reach, b)
    return count


def find_almost_relator(w: Word, matrix: CoxeterMatrix) -> Optional[tuple[int, int, frozenset[str]]]:
    """Leftmost maximal alternating subword of length >= 2*m_st - 3.

    Only pairs with a finite exponent qualify.  Returns (start, end, type)
    with an exclusive end index, or None.  The runs come out left to
    right, so the first that qualifies is the leftmost.
    """
    w = tuple(w)
    for (a, b) in maximal_alternating_runs(w):
        if b - a < 2:
            continue
        s, t = w[a], w[a + 1]
        m = matrix.entry(s, t)
        if m != INF and b - a >= 2 * m - 3:
            return a, b, frozenset((s, t))
    return None


# -- elementary rank bounds ---------------------------------------------


def mod2_rank_bound(matrix: CoxeterMatrix) -> int:
    """Components of the graph on S joining s-t when m_st is odd.

    This is the rank of the image of W(M) in its mod-2 abelianization,
    hence a lower bound for the rank of W(M).
    """
    parent = {g: g for g in matrix.generators}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in matrix.pairs():
        m = matrix.entry(s, t)
        if m != INF and m % 2 == 1:
            parent[find(s)] = find(t)
    return len({find(g) for g in matrix.generators})


def petersen_thom_bound(matrix: CoxeterMatrix) -> Optional[int]:
    """ceil(n/2) when (1/2) * sum over ordered pairs s != t of 1/m_st < 1.

    Convention: the sum ranges over ordered pairs and infinite entries
    contribute 0.  Returns None when the hypothesis fails.
    """
    total = Fraction(0)
    for s, t in matrix.pairs():
        m = matrix.entry(s, t)
        if m != INF:
            total += Fraction(2, int(m))  # both ordered pairs at once
    if Fraction(1, 2) * total < 1:
        return -(-matrix.rank // 2)
    return None
