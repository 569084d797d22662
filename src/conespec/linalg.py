"""Exact linear algebra over the rationals (sparse rows of Fractions).

Used wherever a dimension or rank decision must be exact rather than
numerically zero: divergence-free nullspaces, angular Gram solves,
polynomial interpolation of probed mode systems.  Determinants
(``det_dense``) use Bareiss fraction-free elimination on integer rows, so
the inner loop multiplies and divides integers, not Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

ZERO = Fraction(0)


def _clean(row: dict) -> dict:
    return {c: v for c, v in row.items() if v != 0}


def _reduce(row, pivots):
    """The row (dict col -> Fraction) with every pivot column cleared.

    pivots is a fully reduced sparse_rref result: each pivot row is 1 at
    its own column and 0 at every other pivot column, so clearing one
    pivot column leaves the others as they are and one pass suffices.
    """
    row = _clean(dict(row))
    for c in [c for c in row if c in pivots]:
        f = row[c]
        for pc, pv in pivots[c].items():
            row[pc] = row.get(pc, ZERO) - f * pv
    return _clean(row)


def sparse_rref(rows):
    """Reduced row echelon form of sparse rational rows.

    rows: iterable of dict[int, Fraction].  Returns dict pivot_col -> row,
    where each row is a dict normalized to pivot value 1 and reduced
    against every other pivot row: a new row is cleared at every existing
    pivot column, takes its lowest remaining column as its pivot, and is
    then eliminated from the existing rows.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = _reduce(row, pivots)
        if not row:
            continue
        c = min(row)
        inv = Fraction(1) / row[c]
        row = {cc: vv * inv for cc, vv in row.items()}
        for pc, prow in pivots.items():
            if c in prow:
                f = prow[c]
                for cc, vv in row.items():
                    prow[cc] = prow.get(cc, ZERO) - f * vv
                pivots[pc] = _clean(prow)
        pivots[c] = row
    return pivots


def sparse_rank(rows) -> int:
    return len(sparse_rref(rows))


def sparse_nullspace(rows, ncols: int):
    """Basis of the rational nullspace of a sparse matrix.

    Returns a list of dense Fraction vectors of length ncols, one per
    non-pivot column.
    """
    pivots = sparse_rref(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [ZERO] * ncols
        v[fc] = Fraction(1)
        for pc, prow in pivots.items():
            v[pc] = -prow.get(fc, ZERO)
        basis.append(v)
    return basis


def row_in_rowspace(pivots, candidate) -> bool:
    """Whether candidate (dict col->Fraction) lies in the row space whose
    sparse_rref is pivots.

    The candidate is reduced as sparse_rref reduces an appended row; it
    lies in the row space exactly when nothing is left, that is, when
    appending it would not raise the rank.
    """
    return not _reduce(candidate, pivots)


def solve_dense(a, b):
    """Solve a square rational system a x = b exactly.

    a: list of list of Fraction, b: list of Fraction.  Raises ValueError
    on a singular matrix.
    """
    m = [list(map(Fraction, row)) + [Fraction(x)] for row, x in zip(a, b)]
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def det_dense(a) -> Fraction:
    """Determinant of a square rational matrix by Bareiss fraction-free
    elimination.

    Each row is scaled to integers by the lcm of its denominators, the
    integer determinant is eliminated with exact divisions by the previous
    pivot (Bareiss, Math. Comp. 22, 1968), and the product of the row scales
    is divided back out once.  A zero pivot swaps in a lower row; a column
    with no nonzero pivot left gives 0.
    """
    m = []
    scale = 1
    for row in a:
        row = [x if isinstance(x, int) else Fraction(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    n = len(m)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for r in range(col + 1, n):
            f = m[r][col]
            m[r] = [0] * (col + 1) + [(p * x - f * y) // prev for x, y in
                                      zip(m[r][col + 1:], top[col + 1:])]
        prev = p
    return Fraction(sign * prev, scale)


def lagrange_coefficients(points):
    """Coefficients (low degree first) of the interpolating polynomial.

    points: list of (x, y) Fraction (or int) pairs with distinct x.  The
    y values are put over one common denominator and each coefficient is
    an integer dot product with the node tuple's numerator table, made
    into one Fraction.
    """
    den, table = _lagrange_basis(tuple(x for x, _ in points))
    yden = math.lcm(*(y.denominator for _, y in points))
    ys = [(y.numerator * (yden // y.denominator), row)
          for (_, y), row in zip(points, table) if y != 0]
    coeffs = [Fraction(sum(y * row[k] for y, row in ys), den * yden)
              for k in range(len(points))]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@lru_cache(maxsize=None)
def _lagrange_basis(nodes):
    """The Lagrange basis polynomials on the nodes as one common
    denominator and a table of integer numerator tuples (low degree
    first), memoized per node tuple.

    Each l_i is M(z) / ((z - x_i) M'(x_i)) with M the node polynomial,
    read off by synthetic division.
    """
    xs = [x.numerator if x.denominator == 1 else x for x in nodes]
    master = [1]
    for x in xs:
        master = poly_mul(master, [-x, 1])
    basis = []
    for i, xi in enumerate(xs):
        quo = [0] * len(xs)
        acc = 0
        for k in range(len(xs), 0, -1):
            acc = master[k] + xi * acc
            quo[k - 1] = acc
        denom = 1
        for j, xj in enumerate(xs):
            if j != i:
                denom *= xi - xj
        basis.append([Fraction(c) / denom for c in quo])
    den = math.lcm(*(c.denominator for li in basis for c in li))
    return den, tuple(tuple(c.numerator * (den // c.denominator) for c in li)
                      for li in basis)


def poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_shift(p, c):
    """Coefficients of p(z + c)."""
    out = [ZERO] * len(p)
    for k in range(len(p) - 1, -1, -1):
        # multiply accumulated polynomial by (z + c) and add p[k]
        for i in range(len(out) - 1, 0, -1):
            out[i] = out[i - 1] + c * out[i]
        out[0] = c * out[0] + p[k]
    return out


def poly_derivative(p):
    return [c * (i + 1) for i, c in enumerate(p[1:])] or [ZERO]


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_sum(polys):
    """Sum of coefficient lists (low order first), trimmed."""
    return poly_trim([sum(cs) for cs in zip_longest(*polys, fillvalue=0)])


def poly_divmod(p, q):
    """Exact rational polynomial division: p = quo * q + rem."""
    p = poly_trim(p)
    q = poly_trim(q)
    if q == [ZERO]:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [ZERO] * max(len(p) - len(q) + 1, 1)
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    for i in range(len(rem) - 1 - dq, -1, -1):
        c = rem[i + dq] / lead
        if c == 0:
            continue
        quo[i] = c
        for jj, qc in enumerate(q):
            rem[i + jj] -= c * qc
    return poly_trim(quo), poly_trim(rem)


def poly_monic(p):
    p = poly_trim(p)
    lead = p[-1]
    if lead == 0:
        return p
    return [c / lead for c in p]


def poly_gcd(p, q):
    """Monic gcd of rational polynomials."""
    a, b = poly_trim(p), poly_trim(q)
    while b != [ZERO]:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_squarefree_factors(p):
    """List of (monic factor, multiplicity) with distinct-root factors."""
    p = poly_monic(p)
    if len(p) <= 1:
        return []
    dp = poly_derivative(p)
    g = poly_gcd(p, dp)
    c, _ = poly_divmod(p, g)
    c = poly_monic(c)
    factors = []
    i = 1
    while len(c) > 1:
        d = poly_gcd(c, g)
        fi, _ = poly_divmod(c, d)
        fi = poly_monic(fi)
        if len(fi) > 1:
            factors.append((fi, i))
        c = d
        g, _ = poly_divmod(g, d)
        i += 1
    return factors
