"""Free Lie algebra layer: bases, brackets, BCH.

The oracles here are deliberately independent of the package internals:
Lyndon words are re-enumerated by a brute-force rotation test, layer sizes
are counted by necklace enumeration, BCH is recomputed from Dynkin's
explicit series using a local mini tensor arithmetic, and the structure
table and BCH are compared with their tensor route (lie_helpers).
"""

import functools
import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goh_atlas import cli, freelie as fl, normalform, options, polyfield
from goh_atlas.options import STEP_MAX
from lie_helpers import (
    NONZERO_RATIONALS,
    bracket,
    iterated_bracket_index,
    lie_elements,
    lie_single,
    random_lie_element,
    tensor_bch,
    tensor_structure_table,
)


# ---------------------------------------------------------------------------
# local oracle helpers

def oracle_lyndon_words(rank, max_len):
    """Brute force: w is Lyndon iff strictly smaller than all rotations."""
    found = []
    for ell in range(1, max_len + 1):
        for w in product(range(1, rank + 1), repeat=ell):
            if all(w < w[k:] + w[:k] for k in range(1, ell)):
                found.append(w)
    return found


def o_mul(a, b, step):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= step:
                w = wa + wb
                out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c}


def o_add(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def o_scale(a, c):
    return {w: cw * c for w, cw in a.items() if cw * c}


def o_bracket(a, b, step):
    return o_add(o_mul(a, b, step), o_scale(o_mul(b, a, step), -1))


def o_expand_lyndon(word, step):
    """Tensor expansion of the standard bracketing, recomputed locally."""
    if len(word) == 1:
        return {word: Fraction(1)}
    v = min(word[i:] for i in range(1, len(word)))
    u = word[: len(word) - len(v)]
    return o_bracket(o_expand_lyndon(u, step), o_expand_lyndon(v, step), step)


def o_nested(word, step):
    """Right-nested bracketing [w1,[w2,[...,wk]]] in tensor form."""
    out = {(word[-1],): Fraction(1)}
    for letter in reversed(word[:-1]):
        out = o_bracket({(letter,): Fraction(1)}, out, step)
    return out


def dynkin_bch(step):
    """BCH(a, b) for generators a=1, b=2 from Dynkin's explicit formula."""
    total = {}
    pairs = [(p, q) for p in range(step + 1) for q in range(step + 1)
             if 0 < p + q <= step]
    for k in range(1, step + 1):
        sign = Fraction((-1) ** (k - 1), k)
        for blocks in product(pairs, repeat=k):
            m = sum(p + q for p, q in blocks)
            if m > step:
                continue
            word = ()
            denom = 1
            for p, q in blocks:
                word += (1,) * p + (2,) * q
                denom *= fact(p) * fact(q)
            coeff = sign / (m * denom)
            total = o_add(total, o_scale(o_nested(word, step), coeff))
    return total


def fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def lie_as_tensor(elem, basis):
    out = {}
    for i, c in elem.items():
        out = o_add(out, o_scale(o_expand_lyndon(basis.words[i], basis.step), c))
    return out


# ---------------------------------------------------------------------------
# words and dimensions

def test_basis_bounds_hold_at_their_limits(monkeypatch):
    assert fl.generate_basis(1, STEP_MAX).words == ((1,),)
    with pytest.raises(ValueError, match=f"step must be at most {STEP_MAX}"):
        fl.generate_basis(1, STEP_MAX + 1)
    monkeypatch.setattr(fl, "BASIS_MAX", 8)
    assert fl.generate_basis(2, 4).dim == 8
    with pytest.raises(ValueError, match="rank 2 and step 5 give more than "
                                         "8 basis words"):
        fl.generate_basis(2, 5)
    for rank, step in [(0, 2), (2, 0)]:
        with pytest.raises(ValueError, match="rank and step must be >= 1"):
            fl.generate_basis(rank, step)


def test_witt_profiles():
    assert fl.witt_dimension(2, 3) == [2, 1, 2]
    assert fl.witt_dimension(2, 7) == [2, 1, 2, 3, 6, 9, 18]
    assert sum(fl.witt_dimension(2, 7)) == 41
    assert fl.witt_dimension(1, 3) == [1, 0, 0]
    assert fl.witt_dimension(3, 4) == [3, 3, 8, 18]


def test_witt_matches_brute_force_count():
    for rank in (1, 2, 3):
        for step in range(1, 6):
            words = oracle_lyndon_words(rank, step)
            dims = fl.witt_dimension(rank, step)
            for ell in range(1, step + 1):
                assert dims[ell - 1] == sum(1 for w in words if len(w) == ell)


def test_generate_basis_examples():
    b22 = fl.generate_basis(2, 2)
    assert [list(w) for w in b22.words] == [[1], [2], [1, 2]]
    b23 = fl.generate_basis(2, 3)
    assert ["".join(map(str, w)) for w in b23.words] == ["1", "2", "12", "112", "122"]
    b11 = fl.generate_basis(1, 1)
    assert b11.words == ((1,),)


def test_generate_basis_matches_brute_force():
    for rank in (2, 3):
        for step in (1, 2, 3, 4, 5):
            basis = fl.generate_basis(rank, step)
            oracle = sorted(oracle_lyndon_words(rank, step), key=lambda w: (len(w), w))
            assert list(basis.words) == oracle


def test_basis_order_and_weights():
    basis = fl.generate_basis(2, 7)
    assert basis.dim == 41
    weights = basis.weights
    assert weights == tuple(sorted(weights))  # ordered by length first
    assert all(basis.words[i] < basis.words[i + 1] or weights[i] < weights[i + 1]
               for i in range(basis.dim - 1))


def test_invalid_basis_args():
    with pytest.raises(ValueError):
        fl.generate_basis(0, 3)
    with pytest.raises(ValueError):
        fl.witt_dimension(2, 0)


# ---------------------------------------------------------------------------
# brackets

def test_bracket_generators_step2():
    basis = fl.generate_basis(2, 2)
    x1, x2 = lie_single(basis, (1,)), lie_single(basis, (2,))
    assert bracket(x1, x2, basis) == {2: Fraction(1)}  # X_12
    assert bracket(x2, x1, basis) == {2: Fraction(-1)}
    assert bracket(x1, x1, basis) == {}


def test_bracket_step3_pinned_values():
    basis = fl.generate_basis(2, 3)
    x1, x2 = lie_single(basis, (1,)), lie_single(basis, (2,))
    x12 = bracket(x1, x2, basis)
    # standard factorization of 122 is (12)(2), so [X_2, X_12] = -X_122
    assert bracket(x2, x12, basis) == {basis.index[(1, 2, 2)]: Fraction(-1)}
    assert bracket(x1, x12, basis) == {basis.index[(1, 1, 2)]: Fraction(1)}


def test_bracket_truncates_at_step():
    basis = fl.generate_basis(2, 2)
    x1 = lie_single(basis, (1,))
    x12 = lie_single(basis, (1, 2))
    assert bracket(x1, x12, basis) == {}  # weight 3 > step


def test_bracket_matches_local_tensor_oracle():
    basis = fl.generate_basis(2, 4)
    rng = random.Random(7)
    for _ in range(25):
        a = random_lie_element(basis, rng)
        b = random_lie_element(basis, rng)
        got = bracket(a, b, basis)
        want = o_bracket(lie_as_tensor(a, basis), lie_as_tensor(b, basis), basis.step)
        assert lie_as_tensor(got, basis) == want


def test_iterated_bracket_index():
    basis = fl.generate_basis(2, 3)
    assert iterated_bracket_index(basis, (2, 1, 2)) == \
        {basis.index[(1, 2, 2)]: Fraction(-1)}
    assert iterated_bracket_index(basis, (1, 1, 2)) == \
        {basis.index[(1, 1, 2)]: Fraction(1)}
    assert iterated_bracket_index(basis, (1,)) == {0: Fraction(1)}
    assert iterated_bracket_index(basis, (1, 2, 2)) == {}  # [X2,X2]=0 inside
    with pytest.raises(ValueError):
        iterated_bracket_index(basis, ())
    with pytest.raises(ValueError):
        iterated_bracket_index(basis, (1, 3))


def test_jacobi_all_triples_small_steps():
    for step in (2, 3, 4, 5):
        basis = fl.generate_basis(2, step)
        table = fl.structure_table(basis)
        n = basis.dim
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    a = {i: Fraction(1)}
                    b = {j: Fraction(1)}
                    c = {k: Fraction(1)}
                    s = fl.lie_add(
                        table.bracket_elements(a, table.bracket_elements(b, c)),
                        fl.lie_add(
                            table.bracket_elements(b, table.bracket_elements(c, a)),
                            table.bracket_elements(c, table.bracket_elements(a, b)),
                        ),
                    )
                    assert s == {}, (step, i, j, k)


def test_structure_table_antisymmetry_and_grading():
    basis = fl.generate_basis(2, 5)
    table = fl.structure_table(basis)
    n = basis.dim
    for i in range(n):
        assert table.table[i][i] == {}
        for j in range(n):
            neg = {k: -c for k, c in table.table[j][i].items()}
            assert table.table[i][j] == neg
            for k in table.table[i][j]:
                assert basis.weights[k] == basis.weights[i] + basis.weights[j]


TABLE_SHAPES = [(2, s) for s in range(2, 10)] + [(3, 3), (3, 4), (3, 5),
                                                (4, 3), (4, 4)]


@pytest.mark.parametrize("shape", TABLE_SHAPES, ids=str)
def test_structure_table_matches_the_tensor_route(shape):
    """Entry for entry: the same values, all ints (the tensor route's are
    Fractions), in the same key order (ascending basis index)."""
    basis = fl.generate_basis(*shape)
    got = fl.structure_table(basis).table
    want = tensor_structure_table(basis).table
    for got_row, want_row in zip(got, want, strict=True):
        for e, f in zip(got_row, want_row, strict=True):
            assert list(e.items()) == list(f.items())
            assert all(type(c) is int for c in e.values())


@pytest.mark.parametrize("shape", TABLE_SHAPES, ids=str)
def test_basis_factors_are_the_standard_factorizations(shape, monkeypatch):
    """Each word's (u, v) index pair, found on first use and kept."""
    basis = fl.generate_basis(*shape)
    factors = basis.factors
    assert len(factors) == basis.dim
    for w, uv in zip(basis.words, factors):
        if len(w) == 1:
            assert uv is None
        else:
            assert tuple(basis.words[i] for i in uv) \
                == fl.standard_factorization(w)

    def factored(w):
        raise AssertionError("a word was factored again")

    monkeypatch.setattr(fl, "standard_factorization", factored)
    assert basis.factors is factors
    fl.structure_table(basis)
    fl.word_expansions(basis)
    normalform.attachment_trees(basis)


def test_basis_command_forms_no_factorization(monkeypatch, capsys):
    def factored(w):
        raise AssertionError("a word was factored")

    monkeypatch.setattr(fl, "standard_factorization", factored)
    assert cli.main(["basis", "--rank", "2", "--step", "9"]) == 0
    assert '"type": "basis_report"' in capsys.readouterr().out


def test_structure_table_refuses_a_basis_past_its_bound(monkeypatch):
    monkeypatch.setattr(options, "TABLE_MAX", 14)
    assert len(fl.structure_table(fl.generate_basis(2, 5)).table) == 14

    def allocated(*args):
        raise AssertionError("a table entry was built")

    monkeypatch.setattr(options, "TABLE_MAX", 13)
    monkeypatch.setattr(fl, "standard_factorization", allocated)
    with pytest.raises(ValueError, match="14 basis words are more than the "
                                         "13 a structure table takes"):
        fl.structure_table(fl.generate_basis(2, 5))


def test_table_and_bch_do_no_tensor_work(monkeypatch):
    def tensor(*args):
        raise AssertionError("a tensor function was called")

    for name in ("t_mul", "t_bracket", "t_exp", "t_log", "lie_to_tensor",
                 "tensor_to_lie", "word_expansions"):
        monkeypatch.setattr(fl, name, tensor)
    basis = fl.generate_basis(2, 5)
    fl.structure_table(basis)
    x1, x2 = lie_single(basis, (1,)), lie_single(basis, (2,))
    assert fl.bch(x1, x2, basis)[basis.index[(1, 2)]] == Fraction(1, 2)


def test_a_basis_builds_its_table_once(monkeypatch):
    """structure_table and bch share one table per basis object; a new
    basis builds its own."""
    built = []
    rewrite = fl._rewrite_table

    def counting(basis):
        built.append(basis)
        return rewrite(basis)

    monkeypatch.setattr(fl, "_rewrite_table", counting)
    basis = fl.generate_basis(2, 5)
    x1, x2 = lie_single(basis, (1,)), lie_single(basis, (2,))
    z = fl.bch(x1, x2, basis)
    assert fl.bch(x1, x2, basis) == z
    assert built == [basis]
    assert fl.structure_table(basis) is fl.structure_table(basis)
    assert built == [basis]
    other = fl.generate_basis(2, 5)
    assert fl.structure_table(other) is not fl.structure_table(basis)
    assert len(built) == 2


def test_a_dropped_basis_frees_its_table_without_the_cyclic_collector():
    """The table holds the weights and step it brackets with, not the
    basis, so no cycle keeps a dropped basis's table alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        basis = fl.generate_basis(2, 5)
        table = weakref.ref(fl.structure_table(basis))
        assert table() is not None
        del basis
        assert table() is None
    finally:
        if enabled:
            gc.enable()


def test_lie_add_drops_a_sum_that_cancels_and_its_key_reenters_at_the_end():
    half = Fraction(1, 2)
    got = fl.lie_add({0: half, 1: Fraction(2)}, {0: -half, 2: Fraction(3)})
    assert items(got) == [(1, Fraction(2)), (2, Fraction(3))]
    got = fl._accumulate({0: half, 1: half}, [(0, -half), (2, half),
                                              (0, Fraction(5))])
    assert items(got) == [(1, half), (2, half), (0, Fraction(5))]


def test_structure_table_agrees_with_tensor_bracket():
    basis = fl.generate_basis(2, 4)
    table = fl.structure_table(basis)
    rng = random.Random(11)
    for _ in range(20):
        a = random_lie_element(basis, rng)
        b = random_lie_element(basis, rng)
        assert table.bracket_elements(a, b) == bracket(a, b, basis)


# ---------------------------------------------------------------------------
# BCH

def test_bch_step2():
    basis = fl.generate_basis(2, 2)
    x1, x2 = lie_single(basis, (1,)), lie_single(basis, (2,))
    z = fl.bch(x1, x2, basis)
    assert z == {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2)}


def test_bch_against_dynkin_series():
    # full comparison in tensor form at steps 3 and 4
    for step in (3, 4):
        basis = fl.generate_basis(2, step)
        x1, x2 = lie_single(basis, (1,)), lie_single(basis, (2,))
        z = fl.bch(x1, x2, basis)
        assert lie_as_tensor(z, basis) == dynkin_bch(step)


def test_bch_classical_coefficients():
    # 1/2, 1/12, -1/12, -1/24 on the nested brackets, frozen from the
    # Dynkin oracle; in Lyndon coordinates 122 carries +1/12 and 1122 +1/24.
    basis = fl.generate_basis(2, 4)
    x1, x2 = lie_single(basis, (1,)), lie_single(basis, (2,))
    z = fl.bch(x1, x2, basis)
    idx = basis.index
    assert z[idx[(1, 2)]] == Fraction(1, 2)
    assert z[idx[(1, 1, 2)]] == Fraction(1, 12)
    assert z[idx[(1, 2, 2)]] == Fraction(1, 12)
    assert z[idx[(1, 1, 2, 2)]] == Fraction(1, 24)
    assert idx[(1, 1, 1, 2)] not in z
    assert idx[(1, 2, 2, 2)] not in z
    # same data in nested-bracket form
    b = lambda J: iterated_bracket_index(basis, J)
    recon = fl.lie_add(x1, x2)
    recon = fl.lie_add(recon, fl.lie_scale(b((1, 2)), Fraction(1, 2)))
    recon = fl.lie_add(recon, fl.lie_scale(b((1, 1, 2)), Fraction(1, 12)))
    recon = fl.lie_add(recon, fl.lie_scale(b((2, 1, 2)), Fraction(-1, 12)))
    recon = fl.lie_add(recon, fl.lie_scale(b((2, 1, 1, 2)), Fraction(-1, 24)))
    assert recon == z


def test_bch_group_laws():
    basis = fl.generate_basis(2, 4)
    rng = random.Random(3)
    zero = {}
    for _ in range(10):
        a = random_lie_element(basis, rng)
        b = random_lie_element(basis, rng)
        c = random_lie_element(basis, rng)
        assert fl.bch(a, zero, basis) == a
        assert fl.bch(zero, a, basis) == a
        neg = fl.lie_scale(a, Fraction(-1))
        assert fl.bch(a, neg, basis) == {}
        left = fl.bch(fl.bch(a, b, basis), c, basis)
        right = fl.bch(a, fl.bch(b, c, basis), basis)
        assert left == right


def test_tensor_to_lie_rejects_non_lie():
    basis = fl.generate_basis(2, 2)
    with pytest.raises(ValueError):
        fl.tensor_to_lie({(1, 1): Fraction(1)}, basis)  # symmetric square


# ---------------------------------------------------------------------------
# In-place sums against the dict-copying forms they replace.  Key order is
# compared too: with Poly coefficients it becomes the term order of
# realized frames.  Unlike o_add above, these drop a key as soon as its sum
# is zero, so a key that comes back re-enters at the end.  t_log is the
# exception: it runs Horner's rule, not the series below, so it is compared
# as an exact dict (no caller reads its key order).

def copying_add(a, b):
    out = dict(a)
    for w, c in b.items():
        s = out.get(w)
        s = c if s is None else s + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def copying_scale(a, c):
    return {w: cw * c for w, cw in a.items()} if c else {}


def textbook_t_mul(a, b, step):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= step:
                out = copying_add(out, {wa + wb: ca * cb})
    return out


def copying_bracket_elements(table, a, b):
    out = {}
    for i, ci in a.items():
        for j, cj in b.items():
            cij = ci * cj
            if cij:
                out = copying_add(out, copying_scale(table.table[i][j], cij))
    return out


def copying_exp(a, step):
    out, term = {(): Fraction(1)}, {(): Fraction(1)}
    for k in range(1, step + 1):
        term = copying_scale(textbook_t_mul(term, a, step), Fraction(1, k))
        if not term:
            break
        out = copying_add(out, term)
    return out


def copying_log(g, step, one=Fraction(1)):
    x = dict(g)
    x.pop(())
    out, term = {}, {(): one}
    for k in range(1, step + 1):
        term = textbook_t_mul(term, x, step)
        if not term:
            break
        out = copying_add(out, copying_scale(term, Fraction((-1) ** (k + 1), k)))
    return out


def copying_lie_to_tensor(a, basis):
    out = {}
    for i, c in a.items():
        out = copying_add(out, copying_scale(fl.word_expansions(basis)[i], c))
    return out


def copying_tensor_to_lie(t, basis):
    rest, out = dict(t), {}
    for i, w in enumerate(basis.words):
        c = rest.get(w)
        if c:
            out[i] = c
            rest = copying_add(rest, copying_scale(fl.word_expansions(basis)[i], -c))
    assert not rest
    return out


SHAPES = [(2, 5), (3, 3)]
BASES = {shape: fl.generate_basis(*shape) for shape in SHAPES}


@functools.cache
def table_of(shape):
    """The structure table of a shape, built on first use, so that a fault
    in structure_table fails tests, not the collection of this file."""
    return fl.structure_table(BASES[shape])


@st.composite
def shaped_pairs(draw):
    shape = draw(st.sampled_from(SHAPES))
    dim = BASES[shape].dim
    return shape, draw(lie_elements(dim)), draw(lie_elements(dim))


def items(d):
    return list(d.items())


@settings(max_examples=150, deadline=None)
@given(case=shaped_pairs())
def test_bracket_elements_match_copying_loop_and_tensor_bracket(case):
    shape, a, b = case
    basis, table = BASES[shape], table_of(shape)
    got = table.bracket_elements(a, b)
    assert items(got) == items(copying_bracket_elements(table, a, b))
    assert got == bracket(a, b, basis)


# ---------------------------------------------------------------------------
# The bracket on integer numerators, case by case: a rational element is
# bracketed over the lcm of its denominators and each sum divided once.

BASIS_27 = fl.generate_basis(2, 7)


@functools.cache
def table_27():
    return fl.structure_table(BASIS_27)


def dense_27(dens, sign):
    """A coefficient on every one of the 41 words of (2,7), with
    denominators cycling through dens."""
    return {k: Fraction(sign * (-1) ** k * (2 * k + 1), dens[k % len(dens)])
            for k in range(BASIS_27.dim)}


def assert_rational_bracket(table, a, b, basis):
    got = table.bracket_elements(a, b)
    assert items(got) == items(copying_bracket_elements(table, a, b))
    assert got == bracket(a, b, basis)
    assert all(type(c) is Fraction for c in got.values())
    return got


def test_dense_bracket_at_2_7_with_coprime_denominators():
    # a over 3, 7 and 11, b over 2, 5 and 13: the two lcms (231 and 130)
    # are coprime, so their product and their sum give different sums
    a, b = dense_27((3, 7, 11), 1), dense_27((2, 5, 13), -1)
    got = assert_rational_bracket(table_27(), a, b, BASIS_27)
    assert len(got) > 30
    assert any(c.denominator > 1 for c in got.values())


def test_a_sum_that_cancels_is_dropped_and_its_key_reenters_at_the_end():
    # (3,3): [E_3, E_12] = -E_123 - E_132, so the E_123 of [E_1, E_23]
    # (the first pair) is cancelled by the fifth pair, and the last pair,
    # [E_23, E_1] = -E_123, brings the key back after E_112, E_233, E_132
    # and E_13
    basis = BASES[(3, 3)]
    ix = basis.index
    a = {ix[(1,)]: Fraction(1, 2), ix[(3,)]: Fraction(3, 4),
         ix[(2, 3)]: Fraction(1, 3)}
    b = {ix[(2, 3)]: Fraction(3, 5), ix[(1, 2)]: Fraction(2, 5), ix[(1,)]: 7}
    got = assert_rational_bracket(table_of((3, 3)), a, b, basis)
    assert [(basis.words[k], c) for k, c in got.items()] == [
        ((1, 1, 2), Fraction(1, 5)), ((2, 3, 3), Fraction(-9, 20)),
        ((1, 3, 2), Fraction(-3, 10)), ((1, 3), Fraction(-21, 4)),
        ((1, 2, 3), Fraction(-7, 3))]


def test_int_coefficients_still_give_fractions():
    basis = BASES[(2, 5)]
    a = {0: 1, 2: -2, 3: 3}
    b = {1: 2, 0: -1, 4: 1}
    assert len(assert_rational_bracket(table_of((2, 5)), a, b, basis)) > 3


def test_empty_elements_bracket_to_empty():
    table = table_of((2, 5))
    ring = polyfield._Ring(BASES[(2, 5)].dim, 5)
    for a, b in [({}, {}), ({0: Fraction(1, 2)}, {}), ({}, {1: 3}),
                 ({}, {1: ring.var(0)}), ({0: ring.var(1)}, {})]:
        assert table.bracket_elements(a, b) == {}


def packed_items(d):
    return [(k, list(c.terms.items()), c.den) for k, c in d.items()]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_packed_coefficients_match_the_loop_on_fraction_constants(shape):
    """Ring coefficients run through the same loop times the int constants:
    term for term what the loop gave with the constants as Fractions (the
    tensor route's table), alone and with a rational partner."""
    basis = BASES[shape]
    n, step = basis.dim, basis.step
    ring = polyfield._Ring(n, step)
    fraction_table = tensor_structure_table(basis)
    a = {i: ring.var(i) * Fraction(-1, i + 2) + ring.const(Fraction(1, 3))
         for i in range(0, n, 2)}
    b = {j: ring.var(j) * ring.var(0) + ring.const(j - 4)
         for j in range(n - 1, -1, -3)}
    rational = {k: Fraction(k - 5, 7) for k in range(n) if k != 5}
    for x, y in [(a, b), (b, a), (a, rational), (rational, b)]:
        got = table_of(shape).bracket_elements(x, y)
        assert got
        assert packed_items(got) == packed_items(
            copying_bracket_elements(fraction_table, x, y))


def test_jacobi_and_bch_inverse_are_exactly_zero_at_2_7():
    br = table_27().bracket_elements
    a, b = dense_27((3, 7, 11), 1), dense_27((2, 5, 13), -1)
    c = {k: Fraction(k % 5 - 2, 4) for k in range(BASIS_27.dim) if k % 5 != 2}
    assert fl.lie_add(fl.lie_add(br(a, br(b, c)), br(b, br(c, a))),
                      br(c, br(a, b))) == {}
    neg = Fraction(-1)
    assert fl.lie_add(fl.bch(a, b, BASIS_27),
                      fl.bch(fl.lie_scale(b, neg), fl.lie_scale(a, neg),
                             BASIS_27)) == {}


def test_bracket_with_b_in_the_order_a_bracket_left_it():
    # br(b, c) holds its keys in the order the loop reached them, not
    # ascending, and the graded filter must keep that order
    br = table_27().bracket_elements
    a = {k: Fraction(k - 3, 4) for k in range(BASIS_27.dim) if k % 3 != 1}
    inner = br(dense_27((2, 5, 13), -1),
               {k: Fraction(2 * k - 7, 3) for k in range(9)})
    assert list(inner) != sorted(inner)
    for x, y in [(a, inner), (inner, a)]:
        assert assert_rational_bracket(table_27(), x, y, BASIS_27)


def test_bracket_of_a_pair_whose_weights_add_up_to_the_step():
    """The pairs with |w_i| + |w_j| = step are the last inside the room."""
    table, weight = table_27(), BASIS_27.weights.__getitem__
    pairs = [(i, j) for i in range(BASIS_27.dim)
             for j in range(BASIS_27.dim)
             if weight(i) + weight(j) == 7 and table.table[i][j]]
    for i, j in pairs[:: len(pairs) // 8]:
        a = {i: Fraction(2, 3)}
        b = {j: Fraction(-5, 7), 0: Fraction(1, 2)}
        got = assert_rational_bracket(table, a, b, BASIS_27)
        assert 7 in {weight(k) for k in got}
    dense = dense_27((3, 7, 11), 1)
    top = {k: c for k, c in dense.items() if weight(k) >= 3}
    low = {k: c for k, c in dense.items() if weight(k) <= 4}
    got = assert_rational_bracket(table, top, low, BASIS_27)
    assert 7 in {weight(k) for k in got}


@pytest.mark.parametrize("shape", [(2, 5), (3, 4)], ids=str)
def test_bracket_on_the_packed_coefficients_of_the_m_columns(shape,
                                                             monkeypatch):
    """Every bracket realize_frame forms on packed polynomials, term for
    term the copying loop's on the same table (the ad factor is packed;
    a column starts at the int sign of its element)."""
    calls = []
    bracket = fl.StructureTable.bracket_elements

    def recording(table, a, b):
        # copies: realize_frame adds into the first b of each column
        got = bracket(table, a, b)
        calls.append((table, dict(a), dict(b), dict(got)))
        return got

    monkeypatch.setattr(fl.StructureTable, "bracket_elements", recording)
    normalform.realize_frame(fl.generate_basis(*shape))
    packed_calls = [call for call in calls
                    if fl._common_denominator(call[1]) == 0]
    assert len(packed_calls) > 20
    for table, a, b, got in packed_calls:
        assert packed_items(got) == packed_items(
            copying_bracket_elements(table, a, b))


@settings(max_examples=60, deadline=None)
@given(case=shaped_pairs())
def test_exp_log_and_projections_match_copying_forms(case):
    shape, a, b = case
    basis = BASES[shape]
    ta = fl.lie_to_tensor(a, basis)
    assert items(ta) == items(copying_lie_to_tensor(a, basis))
    ea = fl.t_exp(ta, basis.step)
    assert items(ea) == items(copying_exp(ta, basis.step))
    eb = fl.t_exp(fl.lie_to_tensor(b, basis), basis.step)
    g = fl.t_mul(ea, eb, basis.step)
    assert items(g) == items(textbook_t_mul(ea, eb, basis.step))
    log = fl.t_log(g, basis.step)
    assert log == copying_log(g, basis.step)
    assert items(fl.tensor_to_lie(log, basis)) == \
        items(copying_tensor_to_lie(log, basis))
    assert fl.tensor_to_lie(fl.t_log(ea, basis.step), basis) == a


@st.composite
def unit_plus_tensors(draw):
    """(1 + x, step): step in 0..6, x on words over {1, 2} of length 1 to
    step + 1, so some words lie past the truncation."""
    step = draw(st.integers(0, 6))
    words = st.lists(st.integers(1, 2), min_size=1, max_size=step + 1)
    x = draw(st.dictionaries(words.map(tuple), NONZERO_RATIONALS,
                             max_size=8))
    return {(): Fraction(1), **x}, step


@settings(max_examples=200, deadline=None)
@given(case=unit_plus_tensors())
def test_horner_log_matches_the_series_on_fractions(case):
    g, step = case
    assert fl.t_log(g, step) == copying_log(g, step)


@pytest.mark.parametrize("step", range(7))
def test_horner_log_of_one_and_at_step_zero(step):
    assert fl.t_log({(): Fraction(1)}, step) == {}
    one_plus_x = {(): Fraction(1), (1,): Fraction(3), (2, 1): Fraction(1)}
    assert fl.t_log(one_plus_x, 0) == {}
    with pytest.raises(ValueError, match="constant term 1"):
        fl.t_log({**one_plus_x, (): Fraction(2)}, step)


def packed(t):
    return {w: c.to_poly() for w, c in t.items()}


@pytest.mark.parametrize("shape", [(2, 4), (3, 3)], ids=str)
def test_horner_log_matches_the_series_on_packed_coefficients(shape,
                                                              monkeypatch):
    """On the realization's own chart product g, with coefficients on its
    packed ring: log g truncated at every step from 0 up, and log 1."""
    seen = []

    def spy(g, step, one):
        seen.append((g, one))
        return fl.t_log(g, step, one)

    monkeypatch.setattr(normalform, "t_log", spy)
    normalform.realize_frame(fl.generate_basis(*shape))
    (g, one), = seen
    assert len(g) > 1
    for step in range(shape[1] + 1):
        assert packed(fl.t_log(g, step, one)) == \
            packed(copying_log(g, step, one))
        assert fl.t_log({(): one}, step, one) == {}


BASIS_24 = fl.generate_basis(2, 4)


BCH_BASES = [fl.generate_basis(rank, step)
             for rank in (2, 3) for step in range(2, 7)]


@st.composite
def bch_cases(draw):
    basis = draw(st.sampled_from(BCH_BASES))
    elements = lie_elements(basis.dim, max_size=8)
    return basis, draw(elements), draw(elements)


@settings(max_examples=60, deadline=None)
@given(case=bch_cases())
def test_bch_matches_the_tensor_route(case):
    """Exactly: the same values in the same key order (ascending index)."""
    basis, a, b = case
    assert items(fl.bch(a, b, basis)) == items(tensor_bch(a, b, basis))


@settings(max_examples=30, deadline=None)
@given(a=lie_elements(BASIS_24.dim), b=lie_elements(BASIS_24.dim),
       c=lie_elements(BASIS_24.dim))
def test_bch_is_associative(a, b, c):
    basis = BASIS_24
    assert fl.bch(fl.bch(a, b, basis), c, basis) == \
        fl.bch(a, fl.bch(b, c, basis), basis)
