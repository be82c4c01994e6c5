"""Free nilpotent Lie algebras on r generators, truncated at step s.

Basis elements are indexed by Lyndon words over the alphabet {1, ..., r},
ordered by (length, lex).  The bracketing of a Lyndon word follows its
standard factorization w = u v (v the lexicographically least proper
suffix): E_w = [E_u, E_v].

All exact computations (brackets, BCH) run inside the truncated tensor
algebra: a basis word is expanded to its tensor form, the operation is
performed there, and the result is projected back onto the Lyndon basis by
triangular elimination on lexicographically minimal words.  Coefficients
are fractions.Fraction throughout; anything of word length > s is dropped
silently (that is the truncation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .serialize import _ratio, _words_from_json, _words_to_json, artifact, \
    check_artifact

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


def witt_dimension(rank: int, step: int) -> list[int]:
    """Dimensions of the graded layers 1..step (necklace/Moebius formula)."""
    if rank < 1 or step < 1:
        raise ValueError("rank and step must be >= 1")
    dims = []
    for ell in range(1, step + 1):
        total = sum(_mobius(d) * rank ** (ell // d)
                    for d in range(1, ell + 1) if ell % d == 0)
        dims.append(total // ell)
    return dims


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

    @property
    def dim(self) -> int:
        return len(self.words)

    def weight(self, i: int) -> int:
        return len(self.words[i])

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.words)

    def to_json(self) -> dict:
        return artifact("lyndon_basis", {
            "rank": self.rank,
            "step": self.step,
            "words": _words_to_json(self.words),
            "weights": list(self.weights),
        })

    @staticmethod
    def from_json(data: dict) -> "LyndonBasis":
        check_artifact(data, "lyndon_basis", "words", "rank", "step")
        words = _words_from_json(data["words"], "word")
        basis = LyndonBasis(data["rank"], data["step"], words)
        if words != generate_basis(basis.rank, basis.step).words:
            raise ValueError("word list does not match rank/step")
        return basis


def generate_basis(rank: int, step: int) -> LyndonBasis:
    """Lyndon words of length <= step over {1..rank}, sorted by (length, lex)."""
    words = sorted(lyndon_words(rank, step), key=lambda w: (len(w), w))
    return LyndonBasis(rank, step, tuple(words))


# ---------------------------------------------------------------------------
# Truncated tensor algebra.  A tensor element is a dict word -> coefficient.
# Coefficients may be Fraction or any exact ring element supporting
# +, -, *, bool() (Poly coefficients work with no changes here).
# Sums accumulate in place; polyfield.Poly adds its terms with _accumulate
# and scales them with lie_scale, so the insertion order of the keys here
# is the term order of a Poly sum.

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
    """log of a group-like element (constant term 1)."""
    x = dict(g)
    const = x.pop((), None)
    if const is None or (const - one):
        raise ValueError("log needs constant term 1")
    out: dict = {}
    term = {(): one}
    for k in range(1, step + 1):
        term = t_mul(term, x, step)
        if not term:
            break
        _axpy(out, term, Fraction((-1) ** (k + 1), k))
    return out


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
    by_word: dict[Word, dict] = {}
    for w in basis.words:
        if len(w) == 1:
            e = {w: ONE}
        else:
            u, v = standard_factorization(w)
            e = t_bracket(by_word[u], by_word[v], basis.step)
        by_word[w] = e
        exps.append(e)
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


def bracket(a: LieElement, b: LieElement, basis: LyndonBasis) -> LieElement:
    """[a, b] via tensor expansion, projected back to the basis."""
    ta, tb = lie_to_tensor(a, basis), lie_to_tensor(b, basis)
    return tensor_to_lie(t_bracket(ta, tb, basis.step), basis)


def bch(a: LieElement, b: LieElement, basis: LyndonBasis) -> LieElement:
    """log(exp(a) exp(b)) truncated at the basis step, exact."""
    ta, tb = lie_to_tensor(a, basis), lie_to_tensor(b, basis)
    g = t_mul(t_exp(ta, basis.step), t_exp(tb, basis.step), basis.step)
    return tensor_to_lie(t_log(g, basis.step), basis)


# ---------------------------------------------------------------------------
# Structure table

@dataclass(frozen=True)
class StructureTable:
    basis: LyndonBasis
    table: tuple[tuple[LieElement, ...], ...]  # table[i][j] = [E_i, E_j]

    def bracket_elements(self, a: LieElement, b: LieElement) -> LieElement:
        """Bilinear bracket through the table (no tensor work)."""
        out: LieElement = {}
        for i, ci in a.items():
            row = self.table[i]
            for j, cj in b.items():
                if row[j]:
                    _axpy(out, row[j], ci * cj)
        return out

    def to_json(self) -> dict:
        entries = {}
        n = self.basis.dim
        for i in range(n):
            for j in range(i + 1, n):
                e = self.table[i][j]
                if e:
                    entries[f"{i + 1},{j + 1}"] = {
                        str(k + 1): _ratio(c) for k, c in sorted(e.items())
                    }
        return artifact("structure_table", {
            "rank": self.basis.rank,
            "step": self.basis.step,
            "n": n,
            "brackets": entries,
        })

    @staticmethod
    def from_json(data: dict) -> "StructureTable":
        check_artifact(data, "structure_table", "rank", "step", "brackets")
        basis = generate_basis(data["rank"], data["step"])
        n = basis.dim
        table = [[{} for _ in range(n)] for _ in range(n)]
        for key, entry in data["brackets"].items():
            i, j = (int(p) - 1 for p in key.split(","))
            e = {int(k) - 1: Fraction(c) for k, c in entry.items()}
            table[i][j] = e
            table[j][i] = {k: -c for k, c in e.items()}
        return StructureTable(basis, tuple(tuple(row) for row in table))


def structure_table(basis: LyndonBasis) -> StructureTable:
    """Brackets of all basis pairs ([E_i, E_j] in basis coordinates)."""
    exps = word_expansions(basis)
    n = basis.dim
    table: list[list[LieElement]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        wi = basis.weight(i)
        for j in range(i + 1, n):
            if wi + basis.weight(j) > basis.step:
                continue  # graded truncation
            e = tensor_to_lie(t_bracket(exps[i], exps[j], basis.step), basis)
            table[i][j] = e
            table[j][i] = {k: -c for k, c in e.items()}
    return StructureTable(basis, tuple(tuple(row) for row in table))


__all__ = [
    "Word", "LyndonBasis", "StructureTable", "LieElement",
    "lyndon_words", "standard_factorization",
    "witt_dimension", "generate_basis", "structure_table",
    "bracket", "bch",
    "lie_add", "lie_scale", "lie_to_tensor", "tensor_to_lie",
    "t_mul", "t_bracket", "t_exp", "t_log",
    "word_expansions",
]
