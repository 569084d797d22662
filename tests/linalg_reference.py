"""Reference elimination for the test modules, in Fraction arithmetic and
written independently of the library's integer kernels: the sparse
reduced row echelon form, and a dense square solve."""

from fractions import Fraction


def _clean(row):
    return {c: v for c, v in row.items() if v != 0}


def fraction_rref(rows):
    """Reduced row echelon form of sparse rational rows, dict pivot_col ->
    row normalized to 1 at its pivot: each new row is cleared at every
    existing pivot column, takes its lowest remaining column as its pivot,
    and is then eliminated from the existing rows."""
    pivots = {}
    for row in rows:
        row = _clean({c: Fraction(v) for c, v in row.items()})
        for c in [c for c in row if c in pivots]:
            f = row[c]
            for pc, pv in pivots[c].items():
                row[pc] = row.get(pc, 0) - f * pv
        row = _clean(row)
        if not row:
            continue
        c = min(row)
        inv = 1 / row[c]
        row = {cc: vv * inv for cc, vv in row.items()}
        for pc, prow in pivots.items():
            if c in prow:
                f = prow[c]
                for cc, vv in row.items():
                    prow[cc] = prow.get(cc, 0) - f * vv
                pivots[pc] = _clean(prow)
        pivots[c] = row
    return pivots


def solve_dense(a, b):
    """Solve a square rational system a x = b exactly by Gauss-Jordan
    elimination on rows of Fractions; ValueError on a singular matrix."""
    m = [list(map(Fraction, row)) + [Fraction(x)] for row, x in zip(a, b)]
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]
