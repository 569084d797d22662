"""Exact linear algebra and polynomial kernels over the rationals.

Used wherever a dimension or rank decision must be exact rather than
numerically zero: divergence-free nullspaces, polynomial interpolation
of probed mode systems, square-free splits of their determinants.  Every
elimination runs on integer rows, each over its common denominator: the
sparse elimination (``sparse_rref``, and the nullspace and rank read
from it) accepts only int and Fraction entries.  The polynomial kernels
work on integer numerators over one common denominator and make one
Fraction per output coefficient: determinants (``det_dense``) by Bareiss
fraction-free elimination on integer rows, interpolation
(``lagrange_coefficients``) as integer dot products with a memoized
integer Lagrange table, and the square-free split
(``poly_squarefree_factors``) by Yun's algorithm on the primitive
integer polynomial, whose pseudo-remainder gcd (``int_gcd``) also gives
the count of roots on a vertical line (``poly_axis_root_count``, by a
Sturm chain).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

ZERO = Fraction(0)


def _integer_row(row):
    """The nonzero entries of a row of ints and Fractions, times the lcm
    of their denominators; any other entry is refused, never rounded."""
    den = 1
    for c, v in row.items():
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                raise TypeError("exact elimination needs int or Fraction "
                                f"entries, got {v!r} at column {c}")
            den = math.lcm(den, v.denominator)
    return {c: v.numerator * (den // v.denominator)
            for c, v in row.items() if v}


def _primitive_row(row):
    """The integer row divided by the gcd of its entries, with a positive
    entry at its lowest column."""
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _cleared(row, col, prow):
    """a row - b prow, the integer row with column col cleared against the
    pivot row prow, for the least a > 0 and b that do it."""
    g = math.gcd(row[col], prow[col])
    a, b = prow[col] // g, row[col] // g
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in prow.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            del out[c]
    return out


def sparse_rref(rows):
    """Reduced row echelon form of sparse rational rows.

    rows: iterable of dict[int, int | Fraction]; any other entry raises
    TypeError.  Returns dict pivot_col -> row, where each row is a dict of
    Fractions normalized to pivot value 1 and zero at every other pivot
    column, the unique reduced form of the row space.  The elimination runs
    on integer rows, each put over its common denominator.  A new row is
    cleared at the existing pivot columns, lowest first, by gcd-reduced
    cross-multiplication, and takes its lowest remaining column as its
    pivot.  Once every row is in, the pivot rows are reduced against each
    other from the highest pivot down.  Every pivot row is kept primitive
    with a positive pivot, and one Fraction per entry is made at the end.
    """
    echelon: dict[int, dict] = {}
    for row in rows:
        row = _integer_row(row)
        # lowest first: a pivot row is zero below its pivot, so clearing
        # column c never brings back a column already cleared
        while cols := [c for c in row if c in echelon]:
            c = min(cols)
            row = _cleared(row, c, echelon[c])
        if row:
            row = _primitive_row(row)
            echelon[min(row)] = row
    pivots: dict[int, dict] = {}
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        for cc in [cc for cc in row if cc in pivots]:
            row = _cleared(row, cc, pivots[cc])
        pivots[c] = _primitive_row(row)
    return {c: {cc: Fraction(v, prow[c]) for cc, v in prow.items()}
            for c, prow in sorted(pivots.items())}


def sparse_rank(rows) -> int:
    return len(sparse_rref(rows))


def sparse_nullspace(pivots, ncols: int):
    """Basis of the rational nullspace of a sparse matrix with ncols
    columns, read from its sparse_rref ``pivots``.

    Returns a list of dense Fraction vectors of length ncols, one per
    non-pivot column.
    """
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [ZERO] * ncols
        v[fc] = Fraction(1)
        for pc, prow in pivots.items():
            v[pc] = -prow.get(fc, ZERO)
        basis.append(v)
    return basis


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


def lagrange_coefficients(points, scale=1):
    """Coefficients (low degree first) of the interpolating polynomial,
    each divided by the nonzero integer ``scale``.

    points: list of (x, y) Fraction (or int) pairs with distinct x.  The
    y values are put over one common denominator and each coefficient is
    an integer dot product with the node tuple's numerator table, made
    into one Fraction.
    """
    den, table = _lagrange_basis(tuple(x for x, _ in points))
    yden = math.lcm(*(y.denominator for _, y in points))
    ys = [(y.numerator * (yden // y.denominator), row)
          for (_, y), row in zip(points, table) if y != 0]
    coeffs = [Fraction(sum(y * row[k] for y, row in ys), den * yden * scale)
              for k in range(len(points))]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@lru_cache(maxsize=None)
def _lagrange_basis(nodes):
    """The Lagrange basis polynomials on the nodes as one common
    denominator and a table of integer numerator tuples (low degree
    first), memoized per node tuple.

    With the nodes x_i = u_i / s over their common denominator s,
    l_i(z) = prod_{j != i} (s z - u_j) / prod_{j != i} (u_i - u_j): the
    numerator is the node polynomial prod_j (y - u_j) divided by y - u_i
    (synthetic division) with y = s z, so every step is in integers.
    """
    s = math.lcm(*(x.denominator for x in nodes))
    us = [x.numerator * (s // x.denominator) for x in nodes]
    master = [1]
    for u in us:
        master = [a - u * b for a, b in zip([0] + master, master + [0])]
    quos, weights = [], []
    for i, ui in enumerate(us):
        quo = [0] * len(us)
        acc = 0
        for k in range(len(us), 0, -1):
            acc = master[k] + ui * acc
            quo[k - 1] = acc
        quos.append(quo)
        weights.append(math.prod(ui - uj for j, uj in enumerate(us) if j != i))
    den = math.lcm(*weights)
    powers = [s ** k for k in range(len(us))]
    return den, tuple(tuple(c * p * (den // w) for c, p in zip(quo, powers))
                      for quo, w in zip(quos, weights))


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


def poly_clear_denominators(p):
    """p times the lcm of its coefficients' denominators: integer
    coefficients, the same roots."""
    den = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (den // c.denominator) for c in p]


def poly_divmod(a, b):
    """Quotient and remainder of a by the nonzero b, over the rationals."""
    b = poly_trim(b)
    r = [Fraction(c) for c in poly_trim(a)]
    q = [ZERO] * max(len(r) - len(b) + 1, 1)
    for s in range(len(r) - len(b), -1, -1):
        c = q[s] = r[s + len(b) - 1] / b[-1]
        for i, bi in enumerate(b):
            r[s + i] -= c * bi
    return poly_trim(q), poly_trim(r[:len(b) - 1] or [ZERO])


def poly_axis_root_count(p, c=0):
    """Number of distinct roots of the nonzero p on the line Re z = c.

    With p(c + iy) = R(y) + i I(y) for real polynomials R and I, those
    roots are the real roots of g = gcd(R, I), counted by g's Sturm chain:
    the sign changes of the chain at -infinity less those at +infinity.
    """
    q = poly_shift(p, c)
    # i^k is (-1)^(k/2) for even k and i (-1)^((k-1)/2) for odd k
    re = [a * (-1) ** (k // 2) if k % 2 == 0 else 0 for k, a in enumerate(q)]
    im = [a * (-1) ** (k // 2) if k % 2 else 0 for k, a in enumerate(q)]
    chain = [int_gcd(poly_clear_denominators(re),
                     poly_clear_denominators(im))]
    chain.append(poly_derivative(chain[0]))
    while chain[-1] != [0]:
        chain.append([-x for x in poly_divmod(chain[-2], chain[-1])[1]])
    chain.pop()

    def changes(signs):
        return sum(a * b < 0 for a, b in zip(signs, signs[1:]))
    return (changes([f[-1] * (-1) ** (len(f) - 1) for f in chain])
            - changes([f[-1] for f in chain]))


def poly_squarefree_factors(p):
    """List of (monic factor, multiplicity) with distinct-root factors.

    Yun's algorithm on the primitive integer polynomial of p (p over the
    lcm of its denominators, divided by its content): each gcd is a
    primitive pseudo-remainder sequence, and each quotient by a primitive
    gcd is exact in integers by Gauss's lemma.  Only the monic factors
    are made into Fractions.  Zero and constant p have no factors.
    """
    p = poly_trim(p)
    if len(p) <= 1:
        return []
    f = _primitive(poly_clear_denominators(p))
    df = poly_derivative(f)
    a = int_gcd(f, df)
    b, c = _exact_quo(f, a), _exact_quo(df, a)
    factors = []
    i = 1
    while len(b) > 1:
        d = poly_trim([x - y for x, y in
                       zip_longest(c, poly_derivative(b), fillvalue=0)])
        a = int_gcd(b, d)
        if len(a) > 1:
            factors.append(([Fraction(x, a[-1]) for x in a], i))
        b, c = _exact_quo(b, a), _exact_quo(d, a)
        i += 1
    return factors


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    p = poly_trim(p)
    g = math.gcd(*p)
    if g == 0:
        return p
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _prem(a, b):
    """Pseudo-remainder of integer polynomials: lc(b)^e a mod b for the
    number e of reduction steps, so it stays in integers."""
    r, lead, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        c = r.pop()
        if c:
            s = len(r) - db
            r = [lead * x for x in r]
            for j, bj in enumerate(b[:-1]):
                r[s + j] -= c * bj
    return poly_trim(r or [0])


def int_gcd(a, b):
    """Primitive gcd of integer polynomials (positive leading
    coefficient) by the primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b != [0]:
        a, b = b, _primitive(_prem(a, b))
    return a


def _exact_quo(a, b):
    """a / b for integer polynomials where b divides a; the quotient is
    integral when b is primitive (Gauss's lemma), so each step divides
    exactly by b's leading coefficient."""
    r, lead, db = list(a), b[-1], len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for s in range(len(a) - 1 - db, -1, -1):
        c = q[s] = r[s + db] // lead
        if c:
            for j, bj in enumerate(b):
                r[s + j] -= c * bj
    return poly_trim(q)
