"""Free nilpotent Lie algebras on r generators, truncated at step s.

Basis elements are indexed by Lyndon words over the alphabet {1, ..., r},
ordered by (length, lex).  The bracketing of a Lyndon word follows its
standard factorization w = u v (v the lexicographically least proper
suffix): E_w = [E_u, E_v].

The structure table is built by rewriting brackets of Lyndon words on
their standard factorizations, and BCH runs on that table by Varadarajan's
recursion; neither touches a tensor.  The truncated tensor algebra below
(a basis word expanded to its tensor form, and a Lie tensor projected back
onto the Lyndon basis by triangular elimination on lexicographically
minimal words) serves the chart product and log of
normalform.realize_frame.  Structure constants are ints and other
coefficients fractions.Fraction; anything of weight (word length) > s is
dropped silently (that is the truncation).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm

from .options import BASIS_MAX, STEP_MAX, check_table_size
from .serialize import _words_to_json, artifact

Word = tuple[int, ...]

ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Lyndon words

def lyndon_words(rank: int, max_len: int) -> list[Word]:
    """All Lyndon words over {1..rank} of length <= max_len, in lex order.

    Duval's generation: w -> extend/repeat, chop trailing letters.
    """
    if rank < 1 or max_len < 1:
        raise ValueError("rank and max_len must be >= 1")
    words: list[Word] = []
    w = [1]
    while w:
        words.append(tuple(w))
        # periodically extend to full length
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == rank:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(words)


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word (length >= 2) as u v, v the lex-least proper suffix."""
    if len(w) < 2:
        raise ValueError("cannot factor a single letter")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


def _mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def _layer_dims(rank: int, step: int):
    """The dimension of each graded layer 1..step in turn (necklace/Moebius
    formula): O(ell) for layer ell."""
    if rank < 1 or step < 1:
        raise ValueError("rank and step must be >= 1")
    for ell in range(1, step + 1):
        yield sum(_mobius(d) * rank ** (ell // d)
                  for d in range(1, ell + 1) if ell % d == 0) // ell


def witt_dimension(rank: int, step: int) -> list[int]:
    """Dimensions of the graded layers 1..step (necklace/Moebius formula)."""
    return list(_layer_dims(rank, step))


# ---------------------------------------------------------------------------
# Basis

@dataclass(frozen=True)
class LyndonBasis:
    rank: int
    step: int
    words: tuple[Word, ...]
    index: dict[Word, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.index.update({w: i for i, w in enumerate(self.words)})

    @cached_property
    def factors(self) -> tuple:
        """(index of u, index of v) of each word's standard factorization
        w = u v, None for a letter: found once, on first use."""
        return tuple(None if len(w) == 1 else
                     tuple(self.index[f] for f in standard_factorization(w))
                     for w in self.words)

    @cached_property
    def table(self) -> StructureTable:
        """The structure table, built by structure_table on first use and
        kept, so that every later bracket on this basis shares it: read it,
        never change it.  The table refers back to the basis, so a dropped
        basis and its table are freed by the cyclic collector."""
        return _rewrite_table(self)

    @property
    def dim(self) -> int:
        return len(self.words)

    def weight(self, i: int) -> int:
        return len(self.words[i])

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.words)

    def to_json(self) -> dict:
        return artifact("lyndon_basis", {
            "rank": self.rank,
            "step": self.step,
            "words": _words_to_json(self.words),
            "weights": list(self.weights),
        })


def generate_basis(rank: int, step: int) -> LyndonBasis:
    """Lyndon words of length <= step over {1..rank}, sorted by (length, lex).

    Before it builds a word it refuses, by a ValueError, a rank or step
    below 1, a step above STEP_MAX and a basis of more than BASIS_MAX words
    (options.py gives the memory behind both bounds).  The layer sizes are
    summed one at a time and the sum stops past BASIS_MAX, so the check
    costs O(step^2) only while the layers stay small.
    """
    if step > STEP_MAX:
        raise ValueError(f"step must be at most {STEP_MAX}, got {step}")
    total = 0
    for dim in _layer_dims(rank, step):
        total += dim
        if total > BASIS_MAX:
            raise ValueError(f"rank {rank} and step {step} give more than "
                             f"{BASIS_MAX} basis words")
    words = sorted(lyndon_words(rank, step), key=lambda w: (len(w), w))
    return LyndonBasis(rank, step, tuple(words))


# ---------------------------------------------------------------------------
# Truncated tensor algebra.  A tensor element is a dict word -> coefficient.
# Coefficients may be Fraction or any exact ring element supporting
# +, -, *, bool() (Poly coefficients work with no changes here).
# Sums accumulate in place; polyfield.Poly adds its terms with _accumulate
# and scales them with lie_scale, so the insertion order of the keys here
# is the term order of a Poly sum.  _accumulate, _axpy, lie_scale, t_mul,
# t_exp and lie_to_tensor keep the order of the sum or series they compute;
# t_log's order is Horner's, not the series', and no caller reads it
# (tensor_to_lie walks the basis).

def _accumulate(out: dict, items) -> dict:
    """Add (key, coefficient) pairs into out in place, dropping zero sums."""
    for w, c in items:
        s = out.get(w)
        s = c if s is None else s + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def _axpy(out: dict, a: dict, c) -> dict:
    """out += c * a in place."""
    if c:
        _accumulate(out, ((w, cw * c) for w, cw in a.items()))
    return out


def lie_scale(a: dict, c) -> dict:
    """c * a as a new dict: a Lie element, a tensor or the terms of a Poly."""
    if not c:
        return {}
    return {w: cw * c for w, cw in a.items()}


def t_mul(a: dict, b: dict, step: int) -> dict:
    out: dict = {}
    fits: dict[int, list] = {}  # room -> the items of b that fit, in order
    for wa, ca in a.items():
        room = step - len(wa)
        bs = fits.get(room)
        if bs is None:
            bs = fits[room] = [(wb, cb) for wb, cb in b.items()
                               if len(wb) <= room]
        for wb, cb in bs:
            w = wa + wb
            c = ca * cb
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def t_bracket(a: dict, b: dict, step: int) -> dict:
    return _axpy(t_mul(a, b, step), t_mul(b, a, step), Fraction(-1))


def t_exp(a: dict, step: int, one=ONE) -> dict:
    """exp of an element with no constant term (nilpotent, finite sum)."""
    if () in a:
        raise ValueError("exp needs a zero constant term")
    out = {(): one}
    term = {(): one}
    for k in range(1, step + 1):
        term = lie_scale(t_mul(term, a, step), Fraction(1, k))
        if not term:
            break
        _accumulate(out, term.items())
    return out


def t_log(g: dict, step: int, one=ONE) -> dict:
    """log of a group-like element (constant term 1), by Horner's rule.

    With x = g - 1, log g = x P_1, where P_step = 1/step and
    P_k = 1/k - x P_{k+1}.  P_k is multiplied on the left by k more
    factors of x, each of word length >= 1, so it is needed only up to
    word length step - k: each product is t_mul(x, P_{k+1}, step - k).
    The loop carries Q_k = (-1)^(k+1) P_k = (-1)^(k+1)/k + x Q_{k+1},
    which needs no negation, and Q_1 = P_1.  The result is the series
    sum_k (-1)^(k+1) x^k / k, with its keys in Horner's order.
    """
    x = dict(g)
    const = x.pop((), None)
    if const is None or (const - one):
        raise ValueError("log needs constant term 1")
    if step < 1:
        return {}
    p = {(): one * Fraction((-1) ** (step + 1), step)}
    for k in range(step - 1, 0, -1):
        p = t_mul(x, p, step - k)
        p[()] = one * Fraction((-1) ** (k + 1), k)
    return t_mul(x, p, step)


# ---------------------------------------------------------------------------
# Lie elements over a basis: dict basis-index -> coefficient (zero-free).

LieElement = dict[int, Fraction]


def lie_add(a: LieElement, b: LieElement) -> LieElement:
    return _accumulate(dict(a), b.items())


_EXPANSION_CACHE: dict[tuple[int, int], list[dict]] = {}


def word_expansions(basis: LyndonBasis) -> list[dict]:
    """Tensor expansion of the standard bracketing of every basis word."""
    key = (basis.rank, basis.step)
    cached = _EXPANSION_CACHE.get(key)
    if cached is not None:
        return cached
    exps: list[dict] = []
    for w, uv in zip(basis.words, basis.factors):
        exps.append({w: ONE} if uv is None else
                    t_bracket(exps[uv[0]], exps[uv[1]], basis.step))
    _EXPANSION_CACHE[key] = exps
    return exps


def lie_to_tensor(a: LieElement, basis: LyndonBasis) -> dict:
    exps = word_expansions(basis)
    out: dict = {}
    for i, c in a.items():
        _axpy(out, exps[i], c)
    return out


def tensor_to_lie(t: dict, basis: LyndonBasis) -> dict:
    """Project a Lie element in tensor form onto the Lyndon basis.

    The expansion of a Lyndon bracketing is its own word plus lex-greater
    words of the same length, so one lex-ordered elimination pass per degree
    suffices.  Raises if a residue remains (input was not a Lie element).
    """
    exps = word_expansions(basis)
    rest = dict(t)
    out: dict = {}
    for i, w in enumerate(basis.words):
        c = rest.get(w)
        if c is None or not c:
            continue
        out[i] = c
        _axpy(rest, exps[i], -c)
    if rest:
        raise ValueError("tensor element is not in the Lie algebra")
    return out


# the elimination above visits words in (length, lex) order because
# basis.words is sorted that way; subtraction only touches >= lex words.


# ---------------------------------------------------------------------------
# Structure table

def _common_denominator(a: LieElement) -> int:
    """The lcm of the denominators of a's coefficients (1 for no
    coefficient), or 0 if one is neither an int nor a Fraction."""
    if all(type(c) is int or type(c) is Fraction for c in a.values()):
        return lcm(*(c.denominator for c in a.values()))
    return 0


def _numerators(a: LieElement, d: int) -> dict[int, int]:
    """The integer numerators of a's coefficients over d."""
    return {k: c.numerator * (d // c.denominator) for k, c in a.items()}


@dataclass(frozen=True)
class StructureTable:
    basis: LyndonBasis
    table: tuple[tuple[LieElement, ...], ...]  # table[i][j] = [E_i, E_j]

    def bracket_elements(self, a: LieElement, b: LieElement) -> LieElement:
        """Bilinear bracket through the table (no tensor work).

        Every table the package builds, normalform._signed_table's
        included, is zero past the step: [E_i, E_j] = 0 once
        |w_i| + |w_j| > step.  So for each i of a only the j of b with
        |w_j| <= step - |w_i| are visited, b's items filtered once per
        weight room and kept in b's order, as t_mul does.  The loop reaches
        the nonempty entries in the order of the loop over every pair and
        adds each into the result in place.

        When every coefficient of a and b is rational (an int or a
        Fraction), each element is written as integer numerators over the
        lcm of its denominators, the loop runs on ints and each sum is
        divided once, so the result holds Fractions.  A sum is zero exactly
        when its rational value is, so the keys and their order are those
        of the loop on Fractions.  Other coefficients, such as the packed
        polynomials of normalform.realize_frame, run through the same loop
        times the integer constants; b's coefficients are not inspected
        when a's are not rational.
        """
        da = _common_denominator(a)
        db = da and _common_denominator(b)
        if da and db:
            a, b = _numerators(a, da), _numerators(b, db)
        weights, step = self.basis.weights, self.basis.step
        out: LieElement = {}
        fits: dict[int, list] = {}  # room -> the items of b that fit, in order
        for i, ci in a.items():
            room = step - weights[i]
            bs = fits.get(room)
            if bs is None:
                bs = fits[room] = [(j, cj) for j, cj in b.items()
                                   if weights[j] <= room]
            row = self.table[i]
            for j, cj in bs:
                e = row[j]
                if not e:
                    continue
                c = ci * cj
                if not c:
                    continue
                for k, t in e.items():
                    t = t * c
                    s = out.get(k)
                    s = t if s is None else s + t
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        if da and db:
            d = da * db
            return {k: Fraction(s, d) for k, s in out.items()}
        return out


def structure_table(basis: LyndonBasis) -> StructureTable:
    """Brackets of all basis pairs ([E_i, E_j] in basis coordinates), by
    rewriting on standard factorizations (Reutenauer, Free Lie Algebras,
    1993, ch. 4-5).

    For Lyndon words u < v (lex), [E_u, E_v] = E_uv when u is a letter or
    u's right standard factor is >= v.  Otherwise u = u1 u2 and, by Jacobi,
    [E_u, E_v] = [E_u1, [E_u2, E_v]] - [E_u2, [E_u1, E_v]].  Each bracket is
    memoized for this table, and one of weight above the step is 0: the
    table's entries past the step are left empty without a call.  The
    constants are integers, and an entry holds them as ints keyed by
    ascending index.  A basis of more than options.TABLE_MAX words is
    refused before the n x n table is allocated.

    The table is built once per basis object and kept on it (basis.table):
    a second call, bch's included, returns the same table, which is shared
    and read-only.  A new basis from generate_basis builds its own.
    """
    return basis.table


def _rewrite_table(basis: LyndonBasis) -> StructureTable:
    """structure_table's build, run once per basis (see there)."""
    n, step = basis.dim, basis.step
    check_table_size(n)
    words, index, factors = basis.words, basis.index, basis.factors
    memo: dict[tuple[int, int], dict[int, int]] = {}

    def br(i: int, j: int) -> dict[int, int]:
        if i == j or len(words[i]) + len(words[j]) > step:
            return {}
        e = memo.get((i, j))
        if e is not None:
            return e
        if words[i] > words[j]:
            e = {k: -c for k, c in br(j, i).items()}
        elif factors[i] is None or words[factors[i][1]] >= words[j]:
            e = {index[words[i] + words[j]]: 1}
        else:
            u1, u2 = factors[i]
            e = {}
            for k, c in br(u2, j).items():
                for m, d in br(u1, k).items():
                    e[m] = e.get(m, 0) + c * d
            for k, c in br(u1, j).items():
                for m, d in br(u2, k).items():
                    e[m] = e.get(m, 0) - c * d
            e = {k: c for k, c in e.items() if c}
        memo[i, j] = e
        return e

    table: list[list[LieElement]] = [[{} for _ in range(n)] for _ in range(n)]
    weights = basis.weights  # ascending, so the j that fit i are a prefix
    for i in range(n):
        for j in range(i + 1, bisect_right(weights, step - weights[i])):
            e = br(i, j)
            if e:
                e = dict(sorted(e.items()))
                table[i][j] = e
                table[j][i] = {k: -c for k, c in e.items()}
    return StructureTable(basis, tuple(tuple(row) for row in table))


def bernoulli_numbers(count: int) -> list[Fraction]:
    """b_0..b_{count-1} with the b_1 = +1/2 sign convention."""
    b = [ONE]
    for m in range(1, count):
        s = sum(comb(m + 1, j) * b[j] for j in range(m))
        b.append(Fraction(-s, m + 1))
    if count > 1:
        b[1] = -b[1]
    return b


def bch(a: LieElement, b: LieElement, basis: LyndonBasis) -> LieElement:
    """log(exp(a) exp(b)) truncated at the basis step, exact, keyed by
    ascending index: Z_1 + ... + Z_step by Varadarajan's recursion on the
    structure table, with Z_n the part of degree n in (a, b):

        Z_1 = a + b,
        (n+1) Z_{n+1} = 1/2 [a - b, Z_n]
                        + sum_{p >= 1, 2p <= n} B_2p / (2p)! S(2p, n),

    where S(m, d), the sum over k_1 + ... + k_m = d (each k >= 1) of
    [Z_k1, [... [Z_km, a + b]]], is kept in a table: S(0, 0) = a + b and
    S(m, d) = sum_k [Z_k, S(m - 1, d - k)].  Z_n has weight >= n, so the
    terms stop at the step.
    """
    bracket = structure_table(basis).bracket_elements
    bern = bernoulli_numbers(basis.step)
    s = lie_add(a, b)
    half_diff = _axpy(lie_scale(a, Fraction(1, 2)), b, Fraction(-1, 2))
    z = [{}, s]
    sums = {(0, 0): s}
    total = dict(s)
    for n in range(1, basis.step):
        for m in range(1, n + 1):
            acc: LieElement = {}
            for k in range(1, n - m + 2):
                inner = sums.get((m - 1, n - k))
                if inner:
                    _accumulate(acc, bracket(z[k], inner).items())
            sums[m, n] = acc
        nxt = bracket(half_diff, z[n])
        for p in range(1, n // 2 + 1):
            _axpy(nxt, sums[2 * p, n], bern[2 * p] / factorial(2 * p))
        nxt = lie_scale(nxt, Fraction(1, n + 1))
        z.append(nxt)
        _accumulate(total, nxt.items())
    return dict(sorted(total.items()))


__all__ = [
    "Word", "LyndonBasis", "StructureTable", "LieElement",
    "lyndon_words", "standard_factorization",
    "witt_dimension", "generate_basis", "structure_table",
    "bernoulli_numbers", "bch",
    "lie_add", "lie_scale", "lie_to_tensor", "tensor_to_lie",
    "t_mul", "t_bracket", "t_exp", "t_log",
    "word_expansions",
]
