"""Constructions only the tests use: the tensor route of brackets, of the
structure table and of BCH (the oracles of freelie's table rewriting and
Varadarajan recursion), single basis elements, random Lie
elements, right-nested brackets of generators and of frame fields, the f23
frame written out, the textbook batched evaluator, the oracle of
CompiledPolys and of the integrators, the textbook product, sum and
substitution on exponent tuples, the oracles of Poly and of the packed
ring, the structure-table route of the realization, the oracle of
normalform.realize_frame, the Bernoulli ad-series of the first-kind fields,
the right-nested growth vector with elimination from scratch, the
metabelian sweep over every multi-index pair, the substitution, integral
and padding of Poly, exact flows of nilpotent polynomial fields by Picard
iteration, the second-kind chart check, the Hypothesis strategies of
sparse rational Lie elements and of random frames of the paper's class,
and the flow's Jacobians along a trajectory (jacobian_flow)."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import copysign, inf

import numpy as np
from hypothesis import strategies as st

from goh_atlas import floateval
from goh_atlas.errors import NumericsError
from goh_atlas.freelie import (
    _axpy,
    LieElement,
    LyndonBasis,
    StructureTable,
    Word,
    bernoulli_numbers,
    lie_to_tensor,
    structure_table,
    t_bracket,
    t_exp,
    t_log,
    t_mul,
    tensor_to_lie,
    word_expansions,
)
from goh_atlas.normalform import CoordinateMaps, signed_attachment
from goh_atlas.metabelian import MetabelianVerdict
from goh_atlas.polyfield import Frame, Poly, PolyVec, _Ring, _as_frac, \
    _bad_exponent, _check_length, _nested_brackets, _substitute, \
    lie_bracket_fields
from goh_atlas.trajectories import Control, _propagate, _windows, \
    flow_control


def bracket(a: LieElement, b: LieElement, basis: LyndonBasis) -> LieElement:
    """[a, b] via tensor expansion, projected back to the basis."""
    ta, tb = lie_to_tensor(a, basis), lie_to_tensor(b, basis)
    return tensor_to_lie(t_bracket(ta, tb, basis.step), basis)


def tensor_bch(a: LieElement, b: LieElement,
               basis: LyndonBasis) -> LieElement:
    """log(exp(a) exp(b)) in the truncated tensor algebra, projected back
    to the basis: the oracle of freelie.bch."""
    ta, tb = lie_to_tensor(a, basis), lie_to_tensor(b, basis)
    g = t_mul(t_exp(ta, basis.step), t_exp(tb, basis.step), basis.step)
    return tensor_to_lie(t_log(g, basis.step), basis)


def tensor_structure_table(basis: LyndonBasis) -> StructureTable:
    """[E_i, E_j] for every basis pair, from the tensor expansions of the
    two words: the oracle of freelie.structure_table."""
    exps = word_expansions(basis)
    n = basis.dim
    table: list[list[LieElement]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        wi = basis.weights[i]
        for j in range(i + 1, n):
            if wi + basis.weights[j] > basis.step:
                continue  # graded truncation
            e = tensor_to_lie(t_bracket(exps[i], exps[j], basis.step), basis)
            table[i][j] = e
            table[j][i] = {k: -c for k, c in e.items()}
    return StructureTable(basis.weights, basis.step,
                          tuple(tuple(row) for row in table))


def signed_table(table: StructureTable, signs) -> StructureTable:
    """The structure table of the B basis, B_i = signs[i] E_i: [B_i, B_j]
    in B coordinates, each constant s_i s_j s_k c.  realize_frame folds the
    signs into its brackets on the table itself; this copy is the oracle
    of the B coordinates."""
    return StructureTable(table.weights, table.step, tuple(
        tuple({k: signs[i] * signs[j] * signs[k] * c for k, c in e.items()}
              for j, e in enumerate(row))
        for i, row in enumerate(table.table)))


def textbook_mul(p, q):
    """p * q as a list of terms: pairs in order, p's outer, a sum that hits
    zero dropped (so its key re-enters at the end if it comes back)."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return list(out.items())


def textbook_add(p, q):
    """p + q as a list of terms, q's added to p's in order."""
    out = dict(p.terms)
    for e, c in q.terms.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return list(out.items())


def textbook_compose(p, values):
    """p with values[i] substituted for variable i, by textbook_mul and
    textbook_add: p's terms in order, each its coefficient times
    values[i]^k in variable order, where values[i]^k is
    (...(1 * values[i]) * values[i] ...) * values[i], made anew each time."""
    m = values[0].n if values else p.n
    one = Poly(m, {(0,) * m: 1})
    out = Poly(m)
    for e, c in p.terms.items():
        term = Poly(m, {(0,) * m: c})
        for v, k in zip(values, e):
            if k:
                power = one
                for _ in range(k):
                    power = Poly(m, dict(textbook_mul(power, v)))
                term = Poly(m, dict(textbook_mul(term, power)))
        out = Poly(m, dict(textbook_add(out, term)))
    return out


def lie_single(basis: LyndonBasis, word: Word,
               coeff=Fraction(1)) -> LieElement:
    return {basis.index[tuple(word)]: coeff} if coeff else {}


def random_lie_element(basis: LyndonBasis, rng) -> LieElement:
    """Small random rational element: numerators in -4..4, denominators in
    1..6."""
    out: LieElement = {}
    for i in range(basis.dim):
        num = rng.randrange(-4, 5)
        if num:
            out[i] = Fraction(num, rng.randrange(1, 7))
    return out


NONZERO_RATIONALS = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                              st.integers(1, 6))


def lie_elements(dim, max_size=None):
    """Hypothesis strategy: Lie elements on dim basis indices (at most
    max_size of them, dim by default) with small nonzero rational
    coefficients."""
    return st.dictionaries(st.integers(0, dim - 1), NONZERO_RATIONALS,
                           max_size=dim if max_size is None else max_size)


@st.composite
def paper_frames(draw, n_max: int = 6, degree: int = 4):
    """(frame, a): a frame of the paper's class on R^n, n from 3 to n_max,
    X1 = d1 and X2 = d2 + sum_{j >= 3} a_j(x1, x2) d_j, with a the a_j,
    random rational polynomials in two variables of degree <= degree.
    Every such frame is metabelian and nilpotent; martinet is one."""
    n = draw(st.integers(3, n_max))
    power = st.integers(0, degree)
    exponent = st.tuples(power, power).filter(lambda e: sum(e) <= degree)
    a = [Poly(2, draw(st.dictionaries(exponent, NONZERO_RATIONALS,
                                      min_size=1, max_size=5)))
         for _ in range(n - 2)]
    lift = [Poly(n, {e + (0,) * (n - 2): c for e, c in p.terms.items()})
            for p in a]
    x1 = PolyVec.coordinate(n, 0)
    x2 = PolyVec([Poly.zero(n), Poly.one(n)] + lift)
    return Frame([x1, x2], normal_form=True), a


def iterated_bracket_index(basis: LyndonBasis, J) -> LieElement:
    """Right-nested bracket [X_{j1},[X_{j2},[...,X_{jk}]]] of generators."""
    J = tuple(J)
    if not J:
        raise ValueError("multi-index must be nonempty")
    if any(j < 1 or j > basis.rank for j in J):
        raise ValueError("multi-index entries must lie in 1..rank")
    out = lie_single(basis, (J[-1],))
    for j in reversed(J[:-1]):
        out = bracket(lie_single(basis, (j,)), out, basis)
    return out


def _right_nested(J: tuple):
    """The bracket tree (j1, (j2, ... jk)) of [X_{j1}, [X_{j2}, ... X_{jk}]]."""
    tree = J[-1]
    for j in reversed(J[:-1]):
        tree = (j, tree)
    return tree


def iterated_bracket_fields(frame: Frame, J) -> PolyVec:
    """Right-nested bracket of frame fields over the multi-index J."""
    J = tuple(J)
    if not J:
        raise ValueError("multi-index must be nonempty")
    if any(j < 1 or j > frame.r for j in J):
        raise ValueError("multi-index entries must lie in 1..r")
    return _nested_brackets(frame)(_right_nested(J))


def _exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    mat = [row[:] for row in rows if any(row)]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < cols:
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col] * inv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def reference_growth_vector(frame: Frame, p, depth: int) -> list[int]:
    """dim span{X_J(p) : |J| <= k} for k = 1..depth.

    polyfield.growth_vector as it was before the Lyndon brackets: every
    right-nested multi-index J, and the rank of all rows so far from
    scratch at each depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    point = [_as_frac(v) for v in p]
    nested = _nested_brackets(frame)

    def bracket_field(J):
        return nested(_right_nested(J))

    dims = []
    rows: list[list[Fraction]] = []
    indices = [()]
    for k in range(1, depth + 1):
        indices = [J + (i,) for J in indices for i in range(1, frame.r + 1)]
        for J in indices:
            f = bracket_field(J)
            if not f.is_zero():
                rows.append([_as_frac(v) for v in f.eval(point)])
        dims.append(_exact_rank(rows))
    return dims


def reference_is_metabelian(frame: Frame, depth: int):
    """metabelian.is_metabelian as it was before the nonzero fields of each
    length were listed once: every index_j is turned into its bracket tree
    and looked up again for each nonzero index_i.  Returns the verdict and
    the (X_I, X_J) pairs it bracketed, in order."""
    if depth < 4:
        raise ValueError("depth must be at least 4 (shortest candidate pair)")
    r = frame.r
    nested = _nested_brackets(frame)
    bracketed = []
    for a in range(2, depth // 2 + 1):
        for b in range(a, depth - a + 1):
            for index_i in itertools.product(range(1, r + 1), repeat=a):
                fi = nested(_right_nested(index_i))
                if fi.is_zero():
                    continue
                for index_j in itertools.product(range(1, r + 1), repeat=b):
                    if b == a and index_j < index_i:
                        continue
                    fj = nested(_right_nested(index_j))
                    if fj.is_zero():
                        continue
                    bracketed.append((fi, fj))
                    g = lie_bracket_fields(fi, fj)
                    if not g.is_zero():
                        comp = next(k for k, p in enumerate(g.comps) if p)
                        return MetabelianVerdict(
                            False, depth, (index_i, index_j),
                            comp + 1), bracketed
    return MetabelianVerdict(True, depth), bracketed


def f23_frame() -> Frame:
    # X_1 = d_1, X_2 = d_2 + x1 d_3 + (x1^2/2) d_4 + x1 x2 d_5
    n = 5
    x1, x2 = Poly.var(n, 0), Poly.var(n, 1)
    f1 = PolyVec.coordinate(n, 0)
    f2 = PolyVec([Poly.zero(n), Poly.one(n), x1,
                  x1 * x1 * Fraction(1, 2), x1 * x2])
    return Frame([f1, f2], weights=(1, 1, 2, 3, 3), normal_form=True)


class TextbookCompiledPolys:
    """The batched evaluator as first written: powers of every variable, a
    (rows, terms, width) gather multiplied out by np.prod, and np.bincount
    summing each output's terms in term order from 0.0.  The only change is
    that the block size is read from floateval.EVAL_ROWS."""

    def __init__(self, polys: list[Poly]):
        self.count = len(polys)
        rows, var_cols, exp_cols, coefs = [], [], [], []
        width = 1
        for p in polys:
            for e in p.terms:
                width = max(width, sum(1 for k in e if k))
        self.max_exp = 0
        for idx, p in enumerate(polys):
            for e, c in p.terms.items():
                vs = [i for i, k in enumerate(e) if k]
                ks = [e[i] for i in vs]
                self.max_exp = max(self.max_exp, max(ks, default=0))
                vs += [0] * (width - len(vs))
                ks += [0] * (width - len(ks))
                rows.append(idx)
                var_cols.append(vs)
                exp_cols.append(ks)
                coefs.append(float(c))
        if rows:
            self.rows = np.array(rows, dtype=np.intp)
            self.vars = np.array(var_cols, dtype=np.intp)
            self.exps = np.array(exp_cols, dtype=np.intp)
            self.coefs = np.array(coefs)
        else:
            self.rows = np.zeros(0, dtype=np.intp)
            self.vars = np.zeros((0, 1), dtype=np.intp)
            self.exps = np.zeros((0, 1), dtype=np.intp)
            self.coefs = np.zeros(0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        rows_per_block = floateval.EVAL_ROWS
        if x.ndim == 2 and len(x) > rows_per_block:
            return np.concatenate([self(x[lo:lo + rows_per_block])
                                   for lo in range(0, len(x), rows_per_block)])
        if not len(self.rows):
            return np.zeros(x.shape[:-1] + (self.count,))
        pows = np.ones(x.shape + (self.max_exp + 1,))
        for k in range(1, self.max_exp + 1):
            pows[..., k] = pows[..., k - 1] * x
        vals = self.coefs * np.prod(pows[..., self.vars, self.exps], axis=-1)
        if x.ndim == 1:
            return np.bincount(self.rows, weights=vals, minlength=self.count)
        m = len(x)
        bins = (np.arange(m)[:, None] * self.count + self.rows).ravel()
        return np.bincount(bins, weights=vals.ravel(),
                           minlength=m * self.count).reshape(m, self.count)


def assert_same_bits(got, want):
    # the textbook's bincount gave int64 zeros on an empty batch
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # signed zeros count


def reference_realize(basis: LyndonBasis):
    """realize_frame from the structure table alone, on Poly coefficients:
    the oracle of psi and psi^{-1}, which realize_frame takes from the
    tensor chart product; its fields take the same route as realize_frame's
    (ad products and a triangular solve), here on Poly, so their oracle is
    the first-kind pushforward in test_normalform.  Column j of
    M(x) = q^{-1} dq is
    e^{-x_1 ad B_1} ... e^{-x_{j-1} ad B_{j-1}} B_j, each exponential a
    finite sum, and the field X_k is M^{-1} e_k.  psi^{-1}(t y) is the
    time-t flow of sum_i y_i X_i from 0, so E psi^{-1}_k =
    sum_i y_i X_i^k(psi^{-1}), E the Euler operator: each coordinate is
    solved in basis order, then each term of degree d is divided by d.
    psi inverts psi^{-1} by back substitution.  Both substitutions run by
    textbook_compose."""
    signs, _ = signed_attachment(basis)
    stb = signed_table(structure_table(basis), signs)
    n = basis.dim
    x = [Poly.var(n, i) for i in range(n)]

    # M(x) by columns; column j applies e^{-x_{j-1} ad B_{j-1}} first
    cols = []
    for j in range(n):
        col = {j: Poly.one(n)}
        for i in range(j - 1, -1, -1):
            cur, col = col, dict(col)
            for m in range(1, basis.step):
                cur = stb.bracket_elements({i: x[i] * Fraction(-1, m)}, cur)
                for k, c in cur.items():
                    col[k] = col[k] + c if k in col else c
        col = {k: c for k, c in col.items() if c}
        if min(col) < j or col[j] != Poly.one(n):
            raise NumericsError(f"column {j} of M is not unit triangular")
        cols.append(col)

    # X_k = M^{-1} e_k: z_i = -sum_{j<i} M_ij z_j below z_k = 1
    fields: list[PolyVec] = []
    for k in range(n):
        z = [Poly.zero(n)] * n
        z[k] = Poly.one(n)
        for i in range(k + 1, n):
            for j in range(k, i):
                if i in cols[j]:
                    z[i] = z[i] - cols[j][i] * z[j]
        fields.append(PolyVec(z))

    # psi^{-1}: sum_i y_i X_i^k as one polynomial in (x, y), x replaced by
    # psi^{-1} (its coordinates before k are solved, X_i^k reads no other)
    # and y by the variables
    inv = list(x)
    for k in range(n):
        flow = Poly(2 * n, {e + tuple(int(i == a) for a in range(n)): c
                            for i, f in enumerate(fields)
                            for e, c in f.comps[k].terms.items()})
        flow = textbook_compose(flow, inv + x)
        inv[k] = Poly(n, {e: c / sum(e) for e, c in flow.terms.items()})

    psi = list(x)
    for i in range(n):
        p = inv[i] - x[i]
        if p:
            psi[i] = Poly(n, dict(textbook_add(x[i],
                                               -textbook_compose(p, psi))))

    weights = tuple(len(w) for w in basis.words)
    frame = Frame(fields[:basis.rank], weights=weights, normal_form=True,
                  labels=basis.words)
    return frame, CoordinateMaps(basis, psi, inv, fields, signs)


def _ad_series(table: StructureTable, signs, y_el: dict, one) -> list[dict]:
    """sum_m (b_m/m!) ad_y^m (B_k) for every k: the left-invariant field of
    B_k at the point y of first-kind coordinates; one is the unit of the
    coefficient ring."""
    stb = signed_table(table, signs)
    n, step = len(table.table), table.step
    bern = bernoulli_numbers(max(step, 2))
    cols = []
    for k in range(n):
        acc = {k: one}
        cur = {k: one}
        fact = 1
        for m in range(1, step):
            cur = stb.bracket_elements(y_el, cur)
            if not cur:
                break
            fact *= m
            if bern[m]:
                _axpy(acc, cur, Fraction(bern[m], fact))
        cols.append(acc)
    return cols


def integrate(p: Poly, i: int) -> Poly:
    """The antiderivative of p in variable i with no constant term."""
    out = {}
    for e, c in p.terms.items():
        e2 = list(e)
        e2[i] += 1
        out[tuple(e2)] = c / e2[i]
    return Poly._wrap(p.n, out)


def compose(p: Poly, values: list[Poly]) -> Poly:
    """Substitute values[i] for variable i: the values of the variables
    that occur, packed into one ring that holds sum_i e[i] * top_i for
    every exponent e of p, top_i the largest entry of values[i]."""
    if len(values) != p.n:
        raise ValueError("need one replacement per variable")
    bad = _bad_exponent(p.terms)
    if bad:
        raise bad
    m = values[0].n if values else p.n
    for i, v in enumerate(values):
        if v.n != m:
            raise ValueError(f"value {i} has ambient dimension {v.n}, "
                             f"value 0 has {m}")
    tops = {i: max((k for e in values[i].terms for k in e), default=0)
            for i in p.variables()}
    ring = _Ring(m, max((sum(k * tops[i] for i, k in enumerate(e) if k)
                         for e in p.terms), default=0))
    packed = {i: ring.pack(values[i], t) for i, t in tops.items()}
    return _substitute(p.terms.items(), packed, ring).to_poly()


def extend(p: Poly, m: int) -> Poly:
    """p in m >= p.n variables, the new ones last and unused."""
    if m < p.n:
        raise ValueError("cannot shrink by extend")
    pad = (0,) * (m - p.n)
    return Poly(m, {e + pad: c for e, c in p.terms.items()})


class NotNilpotentError(RuntimeError):
    """Picard iteration on a flow failed to stabilize within the bound."""


PICARD_ROUNDS = 10


def flow_map(x_field: PolyVec) -> list[Poly]:
    """Polynomial flow map Phi(x, t) of an exactly-integrable field.

    Returned as n polynomials in n+1 variables (time last).  Picard
    iteration from the identity, which stabilizes exactly when the field is
    nilpotent in the iteration sense; raises NotNilpotentError if it has
    not stabilized after PICARD_ROUNDS rounds.
    """
    n = x_field.n
    m = n + 1
    lifted = [extend(p, m) for p in x_field.comps]
    phi = [Poly.var(m, j) for j in range(n)]
    for _ in range(PICARD_ROUNDS + 1):
        nxt = [Poly.var(m, j)
               + integrate(compose(lifted[j], phi + [Poly.var(m, n)]), n)
               for j in range(n)]
        if nxt == phi:
            return phi
        phi = nxt
    raise NotNilpotentError(
        f"flow did not stabilize within {PICARD_ROUNDS} Picard iterations")


def exact_flow(x_field: PolyVec, x0, t):
    """Exact time-t flow point from x0 (rational in, rational out)."""
    _check_length(x0, x_field.n, "field")
    phi = flow_map(x_field)
    pt = [_as_frac(v) for v in x0] + [_as_frac(t)]
    return [p.eval(pt) for p in phi]


def verify_second_kind(fields, x, tol: float | None = None,
                       steps: int = 128, exact: bool = False) -> float:
    """Residual of the chart identity: composing the n coordinate flows
    from 0 (highest index first) must land on x.

    fields: all n stratified fields, basis order (a Frame with r = n works).
    The exact path flows each field by exact_flow; the float path by
    `trajectories.flow_control` in `steps` RK4 steps.  Returns
    |endpoint - x|_inf; raises if a tolerance is given and missed.
    """
    if isinstance(fields, Frame):
        fields = fields.fields
    n = fields[0].n
    if len(fields) != n:
        raise ValueError("need all n stratified fields (one per coordinate)")
    if len(x) != n:
        raise ValueError("point dimension mismatch")
    for i, xi in enumerate(x):
        if xi != xi or xi in (inf, -inf):
            raise ValueError(f"point coordinate {i} is not finite: {xi!r}")

    if exact:
        cur = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            ti = Fraction(x[i])
            if ti:
                cur = exact_flow(fields[i], cur, ti)
        residual = max(abs(float(c - Fraction(xi)))
                       for c, xi in zip(cur, x))
    else:
        cur = [0.0] * n
        for i in range(n - 1, -1, -1):
            ti = float(x[i])
            if ti == 0.0:
                continue
            # the time-t_i flow of X_i is the time-|t_i| flow of sign(t_i) X_i
            sign = [copysign(1.0, ti)]
            cur = flow_control(Frame([fields[i]]),
                               Control((0.0, abs(ti)), [sign, sign]), cur,
                               substeps=steps).points[-1]
        residual = float(max(abs(c - float(xi)) for c, xi in zip(cur, x)))

    if tol is not None and residual > tol:
        raise NumericsError(
            f"second-kind chart residual {residual:.3e} exceeds {tol:.3e}")
    return residual


@dataclass
class JacobianPath:
    ts: np.ndarray
    mats: list  # n x n arrays, mats[0] = identity
    dets: np.ndarray


def jacobian_flow(frame: Frame, u, x0, substeps: int = 1,
                  ts=None) -> JacobianPath:
    """J(t_i) of the flow, by RK4 on Jdot = DX_u(t, gamma(t)) J, through the
    integrators' own windows and matrix propagation: the J that an exact
    trajectory oracle is checked against."""
    grid, windows = _windows(frame, u, x0, substeps, ts)
    mats = [m for _, _, m in _propagate(frame, windows, np.eye(frame.n),
                                        False, "variational flow")]
    dets = np.array([np.linalg.det(m) for m in mats])
    return JacobianPath(grid, mats, dets)
