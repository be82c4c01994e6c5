"""Realize free nilpotent Lie algebras as polynomial vector fields.

The chart is exponential coordinates of the second kind: the point x is
reached from 0 by flowing along the stratified basis fields, highest index
first.  Equivalently q(x) = exp(x_n B_n) ... exp(x_1 B_1) in the group,
where B_i is a signed bracket attachment of the i-th Lyndon basis element.

The realization pipeline:
  1. Ψ(x) = log q(x) via the exact word-tensor engine, giving the
     polynomial change to coordinates of the first kind.
  2. Left-invariant fields in first-kind coordinates from the ad-series
     with second-kind Bernoulli numbers.
  3. Transport back through DΨ^{-1} (a Neumann sum: DΨ - I is nilpotent
     by the weight grading).
All arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NumericsError
from .freelie import (
    _axpy,
    LyndonBasis,
    StructureTable,
    standard_factorization,
    structure_table,
    lie_to_tensor,
    t_exp,
    t_log,
    t_mul,
    t_scale,
    tensor_to_lie,
)
from .polyfield import (
    Frame,
    Poly,
    PolyVec,
    exact_flow,
    lie_bracket_fields,
    rk4_flow,
)

ONE = Fraction(1)


def bernoulli_numbers(count: int) -> list[Fraction]:
    """b_0..b_{count-1} with the b_1 = +1/2 sign convention."""
    b = [Fraction(1)]
    for m in range(1, count):
        s = sum(comb(m + 1, j) * b[j] for j in range(m))
        b.append(Fraction(-s, m + 1))
    if count > 1:
        b[1] = -b[1]
    return b


def attachment_trees(basis: LyndonBasis) -> tuple:
    """Bracket tree (left, right) per basis word; None for generators.

    A word w = uv (standard factorization) is attached as [B_u, B_v],
    except that a single-letter right factor moves to the left slot so the
    attachment stays letter-first, matching the right-nested X_J forms.
    """
    trees: list = []
    for w in basis.words:
        if len(w) == 1:
            trees.append(None)
            continue
        u, v = standard_factorization(w)
        iu, iv = basis.index[u], basis.index[v]
        if len(v) == 1 and len(w) > 2:
            trees.append((iv, iu))
        else:
            trees.append((iu, iv))
    return tuple(trees)


def signed_attachment(table: StructureTable):
    """(signs, trees): B_i = sign_i * E_i built by bracketing per the trees.

    Each attachment bracket must land on a single basis element with
    coefficient +/-1; anything else means the table is inconsistent.
    """
    basis = table.basis
    trees = attachment_trees(basis)
    signs: list[int] = []
    elements: list[dict] = []
    for idx, tree in enumerate(trees):
        if tree is None:
            signs.append(1)
            elements.append({idx: ONE})
            continue
        left, right = tree
        el = table.bracket_elements(elements[left], elements[right])
        if set(el) != {idx} or el[idx] * el[idx] != 1:
            raise NumericsError(
                f"attachment bracket for word {basis.words[idx]} is not a "
                f"signed basis element: {el}")
        signs.append(int(el[idx]))
        elements.append(el)
    return tuple(signs), trees


def _signed_table(table: StructureTable, signs) -> list[dict]:
    """Sparse rows of [B_i, B_j] expressed in the B basis."""
    n = table.basis.dim
    rows: list[dict] = []
    for i in range(n):
        row = {}
        for j in range(n):
            e = table.table[i][j]
            if e:
                row[j] = {k: signs[i] * signs[j] * signs[k] * c
                          for k, c in e.items()}
        rows.append(row)
    return rows


def _bracket_poly(stb: list[dict], a: dict, b: dict) -> dict:
    """[a, b] for elements with Poly coefficients over the B basis."""
    out: dict = {}
    for i, ci in a.items():
        row = stb[i]
        for j, cj in b.items():
            e = row.get(j)
            if not e:
                continue
            p = ci * cj
            if not p:
                continue
            for k, c in e.items():
                t = p * c
                got = out.get(k)
                s = t if got is None else got + t
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def _ad_series(stb, y_el: dict, k: int, step: int, n: int,
               bern: list[Fraction]) -> dict:
    """sum_m (b_m/m!) ad_y^m (B_k) with Poly coefficients."""
    acc = {k: Poly.one(n)}
    cur = {k: Poly.one(n)}
    fact = 1
    for m in range(1, step):
        cur = _bracket_poly(stb, y_el, cur)
        if not cur:
            break
        fact *= m
        if bern[m]:
            _axpy(acc, cur, Fraction(bern[m], fact))
    return acc


def first_kind_fields(table: StructureTable, signs=None) -> list[PolyVec]:
    """All n left-invariant fields in first-kind coordinates (internal chart)."""
    basis = table.basis
    if signs is None:
        signs, _ = signed_attachment(table)
    n = basis.dim
    stb = _signed_table(table, signs)
    bern = bernoulli_numbers(max(basis.step, 2))
    y_el = {j: Poly.var(n, j) for j in range(n)}
    out = []
    for k in range(n):
        acc = _ad_series(stb, y_el, k, basis.step, n, bern)
        out.append(PolyVec([acc.get(j, Poly.zero(n)) for j in range(n)]))
    return out


@dataclass
class CoordinateMaps:
    """Exact coordinate data attached to a realized frame.

    psi maps second-kind to first-kind coordinates; psi_inv is its exact
    inverse.  fields holds the transported field of every basis element
    (the frame fields are the first r entries); signs and trees record the
    bracket attachment of each basis word.
    """

    basis: LyndonBasis
    table: StructureTable
    psi: list[Poly]
    psi_inv: list[Poly]
    fields: list[PolyVec]
    signs: tuple
    trees: tuple

    def to_json(self) -> dict:
        return {
            "schema": "goh-atlas/1",
            "type": "realization",
            "rank": self.basis.rank,
            "step": self.basis.step,
            "signs": list(self.signs),
            "psi": [p.to_json() for p in self.psi],
            "psi_inv": [p.to_json() for p in self.psi_inv],
            "coordinate_fields": [f.to_json() for f in self.fields],
        }


def realize_frame(basis: LyndonBasis) -> tuple[Frame, CoordinateMaps]:
    """Polynomial frame in second-kind coordinates plus coordinate maps."""
    table = structure_table(basis)
    signs, trees = signed_attachment(table)
    n = basis.dim
    step = basis.step
    one = Poly.one(n)

    # chart product exp(x_n B_n) ... exp(x_1 B_1) in the tensor algebra
    g = {(): one}
    for j in range(n - 1, -1, -1):
        bj = t_scale(lie_to_tensor({j: Fraction(signs[j])}, basis),
                     Poly.var(n, j))
        g = t_mul(g, t_exp(bj, step, one), step)

    lie = tensor_to_lie(t_log(g, step, one), basis)
    psi = [lie.get(j, Poly.zero(n)) * signs[j] for j in range(n)]

    # left-invariant fields evaluated at y = psi(x), still exact
    stb = _signed_table(table, signs)
    bern = bernoulli_numbers(max(step, 2))
    psi_el = {j: psi[j] for j in range(n) if psi[j]}
    cols = [_ad_series(stb, psi_el, k, step, n, bern) for k in range(n)]

    # transport through (D psi)^{-1}.  N = D psi - I couples a coordinate
    # only to coordinates of lower weight, which come first in the basis,
    # so z = c - N z is solved by forward substitution, one row at a time.
    nmat: list[dict] = []
    for i in range(n):
        row = {}
        for j in range(n):
            d = psi[i].diff(j)
            if i == j:
                d = d - 1
            if d:
                row[j] = d
        if row and max(row) >= i:
            raise NumericsError(
                f"D psi - I is not strictly lower triangular in row {i}")
        nmat.append(row)

    fields: list[PolyVec] = []
    for col in cols:
        z: dict = {}
        for i, row in enumerate(nmat):
            acc = None
            for j, nij in row.items():
                zj = z.get(j)
                if zj is None:
                    continue
                t = nij * zj
                if t:
                    acc = t if acc is None else acc + t
            got = col.get(i)
            if acc is not None and acc:
                got = -acc if got is None else got - acc
            if got:
                z[i] = got
        fields.append(PolyVec([z.get(j, Poly.zero(n)) for j in range(n)]))

    weights = tuple(len(w) for w in basis.words)
    frame = Frame(fields[:basis.rank], weights=weights, normal_form=True,
                  labels=basis.words)

    # exact inverse by weight-graded back substitution
    inv: list[Poly | None] = [None] * n
    for i in range(n):
        p = psi[i] - Poly.var(n, i)
        if not p:
            inv[i] = Poly.var(n, i)
            continue
        values = [inv[j] if inv[j] is not None else Poly.var(n, j)
                  for j in range(n)]
        inv[i] = Poly.var(n, i) - p.compose(values)

    maps = CoordinateMaps(basis, table, psi, list(inv), fields, signs, trees)
    return frame, maps


def stratified_fields(frame: Frame, basis: LyndonBasis) -> list[PolyVec]:
    """All n bracket fields of a rank-r frame, one per basis word."""
    if frame.r != basis.rank:
        raise ValueError("frame rank does not match the basis rank")
    trees = attachment_trees(basis)
    fields: list[PolyVec] = []
    for idx, tree in enumerate(trees):
        if tree is None:
            fields.append(frame.fields[basis.words[idx][0] - 1])
        else:
            left, right = tree
            fields.append(lie_bracket_fields(fields[left], fields[right]))
    return fields


def verify_normal_form(frame: Frame) -> dict:
    """Check the triangular frame shape; report offending components.

    Component j of X_k must equal delta_{kj} for j <= r, and X_1 must be
    exactly the first coordinate field.
    """
    n, r = frame.n, frame.r
    violations = []
    for k in range(r):
        comps = frame.fields[k].comps
        top = n if k == 0 else r
        for j in range(top):
            want = Poly.const(n, 1 if j == k else 0)
            if comps[j] != want:
                bad = comps[j] - want
                violations.append({
                    "k": k + 1,
                    "j": j + 1,
                    "monomials": bad.to_json(),
                })
    return {"ok": not violations, "violations": violations}


def verify_second_kind(fields, x, tol: float | None = None,
                       steps: int = 128, exact: bool = False) -> float:
    """Residual of the chart identity: composing the n coordinate flows
    from 0 (highest index first) must land on x.

    fields: all n stratified fields, basis order (a Frame with r = n works).
    Returns |endpoint - x|_inf; raises if a tolerance is given and missed.
    """
    if isinstance(fields, Frame):
        fields = fields.fields
    n = fields[0].n
    if len(fields) != n:
        raise ValueError("need all n stratified fields (one per coordinate)")
    if len(x) != n:
        raise ValueError("point dimension mismatch")

    if exact:
        cur = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            ti = Fraction(x[i])
            if ti:
                cur = exact_flow(fields[i], cur, ti)
        residual = max(abs(float(c - Fraction(xi)))
                       for c, xi in zip(cur, x))
    else:
        import numpy as np

        cur = np.zeros(n)
        for i in range(n - 1, -1, -1):
            ti = float(x[i])
            if ti == 0.0:
                continue
            cur = rk4_flow(fields[i], cur, ti, steps=steps)
        if not np.all(np.isfinite(cur)):
            raise NumericsError("flow composition diverged")
        residual = float(max(abs(c - float(xi)) for c, xi in zip(cur, x)))

    if tol is not None and residual > tol:
        raise NumericsError(
            f"second-kind chart residual {residual:.3e} exceeds {tol:.3e}")
    return residual


__all__ = [
    "CoordinateMaps",
    "attachment_trees",
    "bernoulli_numbers",
    "first_kind_fields",
    "realize_frame",
    "signed_attachment",
    "stratified_fields",
    "verify_normal_form",
    "verify_second_kind",
]
