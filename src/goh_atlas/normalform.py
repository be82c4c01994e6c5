"""Realize free nilpotent Lie algebras as polynomial vector fields.

The chart is exponential coordinates of the second kind: the point x is
reached from 0 by flowing along the stratified basis fields, highest index
first.  Equivalently q(x) = exp(x_n B_n) ... exp(x_1 B_1) in the group,
where B_i is a signed bracket attachment of the i-th Lyndon basis element.

The realization pipeline:
  1. Ψ(x) = log q(x) via the exact word-tensor engine, giving the
     polynomial change to coordinates of the first kind.
  2. M(x) = q^{-1} dq from the structure table of the B basis: column j is
     e^{-x_1 ad B_1} ... e^{-x_{j-1} ad B_{j-1}} B_j, a unit lower
     triangular matrix, since a bracket raises the weight.
  3. The coordinate fields X_k = M^{-1} e_k by forward substitution.
All arithmetic is exact rational.  Steps 1-3 and ψ^{-1} (by back
substitution) run on polyfield's packed integer polynomials; ψ, ψ^{-1} and
the fields become Poly once, at the end, with their terms sorted by
exponent tuple: the float evaluators sum in that order, so it is set by the
polynomial, not by the route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import copysign, inf

from .errors import NumericsError
from .freelie import (
    _accumulate,
    LyndonBasis,
    StructureTable,
    structure_table,
    lie_scale,
    lie_to_tensor,
    t_exp,
    t_log,
    t_mul,
    tensor_to_lie,
)
from .polyfield import (
    Frame,
    Poly,
    PolyVec,
    _Ring,
    _substitute,
    exact_flow,
)
from .serialize import artifact

ONE = Fraction(1)


def attachment_trees(basis: LyndonBasis) -> tuple:
    """Bracket tree (left, right) per basis word; None for generators.

    A word w = uv (its factor pair in basis.factors) is attached as
    [B_u, B_v], except that a single-letter right factor moves to the left
    slot so the attachment stays letter-first, matching the right-nested
    X_J forms.
    """
    words = basis.words
    return tuple(uv[::-1] if uv and len(words[uv[1]]) == 1 and len(w) > 2
                 else uv for w, uv in zip(words, basis.factors))


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


def _signed_table(table: StructureTable, signs) -> StructureTable:
    """The structure table of the B basis: [B_i, B_j] in B coordinates.

    Empty entries stay the given table's own dicts, not n^2 new ones.
    """
    return StructureTable(table.basis, tuple(
        tuple({k: signs[i] * signs[j] * signs[k] * c for k, c in e.items()}
              if e else e for j, e in enumerate(row))
        for i, row in enumerate(table.table)))


@dataclass
class CoordinateMaps:
    """Exact coordinate data attached to a realized frame.

    psi maps second-kind to first-kind coordinates; psi_inv is its exact
    inverse.  fields holds the coordinate field of every basis element
    (the frame fields are the first r entries); signs records the sign of
    the bracket attachment of each basis word.
    """

    basis: LyndonBasis
    table: StructureTable
    psi: list[Poly]
    psi_inv: list[Poly]
    fields: list[PolyVec]
    signs: tuple

    def to_json(self) -> dict:
        return artifact("realization", {
            "rank": self.basis.rank,
            "step": self.basis.step,
            "signs": list(self.signs),
            "psi": [p.to_json() for p in self.psi],
            "psi_inv": [p.to_json() for p in self.psi_inv],
            "coordinate_fields": [f.to_json() for f in self.fields],
        })


def _sorted(p) -> Poly:
    """A packed polynomial as a Poly with its terms sorted by exponent."""
    q = p.to_poly()
    return Poly._wrap(q.n, dict(sorted(q.terms.items())))


def realize_frame(basis: LyndonBasis) -> tuple[Frame, CoordinateMaps]:
    """Polynomial frame in second-kind coordinates plus coordinate maps."""
    table = structure_table(basis)
    signs, _ = signed_attachment(table)
    n = basis.dim
    step = basis.step
    # every coefficient below has weight <= step and every variable weight
    # >= 1, so its degree, every exponent and every packed bound (which
    # counts the variables multiplied in) are <= step
    ring = _Ring(n, step)
    one = ring.const(1)

    # chart product exp(x_n B_n) ... exp(x_1 B_1) in the tensor algebra
    g = {(): one}
    for j in range(n - 1, -1, -1):
        bj = lie_scale(lie_to_tensor({j: Fraction(signs[j])}, basis),
                       ring.var(j))
        g = t_mul(g, t_exp(bj, step, one), step)

    lie = tensor_to_lie(t_log(g, step, one), basis)
    zero = ring.const(0)
    psi = [lie.get(j, zero) * signs[j] for j in range(n)]

    # column j of M(x) = q^{-1} dq is e^{-x_1 ad B_1} ... e^{-x_{j-1} ad
    # B_{j-1}} B_j, innermost factor first; each exponential is a finite
    # sum, since a bracket raises the weight
    bracket = _signed_table(table, signs).bracket_elements
    cols = []
    for j in range(n):
        col = {j: one}
        for i in range(j - 1, -1, -1):
            cur = col
            for m in range(1, step):
                cur = bracket({i: ring.var(i) * Fraction(-1, m)}, cur)
                if not cur:
                    break
                _accumulate(col, cur.items())
        if min(col) != j or col[j] - one:
            raise NumericsError(f"column {j} of M is not unit lower "
                                f"triangular")
        cols.append(col)

    # X_k = M^{-1} e_k by forward substitution below z_k = 1:
    # z_i = -sum_{k <= j < i} M_ij z_j
    fields: list[PolyVec] = []
    for k in range(n):
        z = {k: one}
        for i in range(k + 1, n):
            acc = None
            for j, zj in z.items():
                mij = cols[j].get(i)
                if mij is not None:
                    t = mij * zj
                    acc = t if acc is None else acc + t
            if acc:
                z[i] = -acc
        fields.append(PolyVec([_sorted(z[j]) if j in z else Poly.zero(n)
                               for j in range(n)]))
    psi = [_sorted(p) for p in psi]

    weights = tuple(len(w) for w in basis.words)
    frame = Frame(fields[:basis.rank], weights=weights, normal_form=True,
                  labels=basis.words)

    # exact inverse by weight-graded back substitution in the same ring (the
    # weight |w_i| of a term of psi_i - x_i bounds it after substitution)
    inv = [ring.var(i) for i in range(n)]
    for i in range(n):
        p = psi[i] - Poly.var(n, i)
        if p:
            inv[i] = inv[i] - _substitute(p.terms.items(), inv, ring)

    maps = CoordinateMaps(basis, table, psi, [_sorted(p) for p in inv],
                          fields, signs)
    return frame, maps


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
    The float path flows each field by `trajectories.flow_control` in
    `steps` RK4 steps.  Returns |endpoint - x|_inf; raises if a tolerance
    is given and missed.
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
        from .trajectories import Control, flow_control

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


__all__ = [
    "CoordinateMaps",
    "attachment_trees",
    "realize_frame",
    "signed_attachment",
    "verify_normal_form",
    "verify_second_kind",
]
