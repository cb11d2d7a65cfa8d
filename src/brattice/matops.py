"""Exact integer matrix kernels, and the readers of exact values.

rank, det, the inverses and the row scans share one fraction-free
(Bareiss) elimination over Python ints.  They read every matrix through
int_row: an integral Fraction reads as an int, and any other entry is
refused.  int_inverse answers in integer numerators over one denominator,
inverse in Fractions.  clear_denominators and fraction read rational values
and refuse a float, whose binary value is not the number written.
Pivoting is deterministic: the first nonzero candidate wins, so repeated
runs agree bit for bit.
"""

from fractions import Fraction
from math import lcm
from operator import index, mul

from .errors import Singular


def dims(m):
    """Return (rows, cols) and check the matrix is rectangular."""
    r = len(m)
    if r == 0:
        raise ValueError("empty matrix")
    c = len(m[0])
    for row in m:
        if len(row) != c:
            raise ValueError("ragged matrix")
    return r, c


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def mat_mul(a, b):
    ra, ca = dims(a)
    rb, cb = dims(b)
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            for j in range(cb):
                orow[j] += aik * brow[j]
    return out


def mat_vec(a, v):
    r, c = dims(a)
    if len(v) != c:
        raise ValueError(f"shape mismatch: {r}x{c} times vector of length {len(v)}")
    return [sum(map(mul, row, v)) for row in a]


def band_rows(m):
    """The band view of m: its column count, and for each row the first
    nonzero column with the entries through the row's last nonzero one (an
    all-zero row keeps none).  band_vec multiplies inside the bands only."""
    _, c = dims(m)
    rows = []
    for row in m:
        nz = [j for j, x in enumerate(row) if x]
        rows.append((nz[0], tuple(row[nz[0]:nz[-1] + 1])) if nz else (0, ()))
    return c, tuple(rows)


def band_vec(band, v):
    """mat_vec(m, v) for band = band_rows(m)."""
    c, rows = band
    if len(v) != c:
        raise ValueError(f"shape mismatch: {len(rows)}x{c} times vector of length {len(v)}")
    return [sum(map(mul, entries, v[lo:])) for lo, entries in rows]


def int_row(row, i):
    """Row i (1-based) of a matrix, or a vector read as row i, as a tuple of
    ints.  Integral Fractions become ints; a float or any other value raises
    ValueError naming its row and column, because the entry has to be exact.
    The row is read once, so it may be an iterator."""
    row = tuple(row)
    try:
        return tuple(map(index, row))
    except TypeError:
        pass
    out = []
    for j, x in enumerate(row, start=1):
        try:
            out.append(x.numerator if isinstance(x, Fraction) and x.denominator == 1 else index(x))
        except TypeError:
            raise ValueError(f"row {i}, column {j}: {x!r} is not an integer") from None
    return tuple(out)


def fraction(x):
    """Fraction(x) for an int, a bool, a string or a Rational; a float is
    refused with ValueError."""
    if isinstance(x, float):
        raise ValueError(f"{x!r} is a float, not an exact value")
    return Fraction(x)


def clear_denominators(v):
    """Integer numerators of the entries of v over their least common
    denominator, and that denominator.  An integer vector is copied as it is.
    An entry already of the exact type Fraction is read as it is handed; any
    other (an int, a bool, a string, a Fraction subclass) goes through
    fraction(), which refuses a float."""
    if set(map(type, v)) <= {int}:
        return list(v), 1
    fr = [x if x.__class__ is Fraction else fraction(x) for x in v]
    d = lcm(*(x.denominator for x in fr))
    return [x.numerator * (d // x.denominator) for x in fr], d


def _int_rows(m):
    """Integer copies of the rows, read through int_row."""
    return [list(int_row(row, i)) for i, row in enumerate(m, start=1)]


def _eliminate(work, jordan=False, done=0, tags=None):
    """Fraction-free (Bareiss) elimination of integer rows, in place.

    In each column the first nonzero candidate row is the pivot.  Forward
    elimination leaves row echelon form; `jordan` also clears above each
    pivot, so that every pivot ends equal to the last one.  Entries stay
    integer minors of the input, so every division is exact.  Returns the
    pivot columns, the sign of the row swaps and the last pivot (1 when
    there is none).  `tags`, a list beside `work`, follows the row swaps.

    A forward elimination resumes from a recorded pivot prefix: when
    work[:done] are the pivot rows that the first `done` steps of a forward
    elimination of these rows left, in order, each of those steps finds its
    pivot again at its own row and updates only the rows from `done` on,
    which enter as they were input.  The prefix stays valid when a row
    that never pivoted in it is deleted, or a column that is not one of
    its pivot columns.
    """
    r = len(work)
    cols = []
    sign = 1
    prev = 1
    for col in range(len(work[0])):
        piv = len(cols)
        row = next((i for i in range(piv, r) if work[i][col]), None)
        if row is None:
            continue
        if row != piv:
            work[piv], work[row] = work[row], work[piv]
            if tags is not None:
                tags[piv], tags[row] = tags[row], tags[piv]
            sign = -sign
        prow = work[piv]
        p = prow[col]
        lo = 0 if jordan else col
        tail = prow[lo:]
        for i in range(0 if jordan else max(piv + 1, done), r):
            if i == piv:
                continue
            wi = work[i]
            f = wi[col]
            if f == 0 and p == prev:
                continue  # the update would leave the row as it is
            wi[lo:] = [(p * a - f * b) // prev for a, b in zip(wi[lo:], tail)]
        prev = p
        cols.append(col)
        if len(cols) == r:
            break
    return cols, sign, prev


def rank(m):
    """Number of pivots of a forward elimination."""
    dims(m)
    return len(_eliminate(_int_rows(m))[0])


def det(m):
    """Signed determinant as an int: the last Bareiss pivot."""
    r, c = dims(m)
    if r != c:
        raise ValueError("determinant of a non-square matrix")
    cols, sign, last = _eliminate(_int_rows(m))
    return sign * last if len(cols) == r else 0


def int_inverse(m):
    """The inverse of m as an integer matrix over one positive integer
    denominator: (nums, d) with m^-1 = nums / d.  Raises Singular when there
    is no inverse.

    A fraction-free Gauss-Jordan on [m | I] leaves [p*I | p*m^-1], where p
    is the last pivot.
    """
    r, c = dims(m)
    if r != c:
        raise ValueError("inverse of a non-square matrix")
    work = _int_rows([list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(m)])
    cols, _, last = _eliminate(work, jordan=True)
    # [m | I] always has rank r; m is invertible when its columns hold the pivots
    if cols != list(range(r)):
        raise Singular("matrix is singular")
    if last < 0:
        return [[-x for x in row[r:]] for row in work], -last
    return [row[r:] for row in work], last


def inverse(m):
    """Rational inverse of m; raises Singular when there is none."""
    nums, d = int_inverse(m)
    return [[Fraction(x, d) for x in row] for row in nums]


def independent_rows(m, order=None):
    """Indices of the rows that each raise the rank when the rows of `m` are
    scanned in `order` (default: top to bottom), up to full rank.

    They are the pivot columns of one elimination of the transpose.
    """
    r, c = dims(m)
    rows = _int_rows(m)
    order = list(range(r)) if order is None else list(order)
    cols, _, _ = _eliminate([[rows[i][j] for i in order] for j in range(c)])
    return [order[j] for j in cols]


def _null_vector(work, n):
    """The signed cofactors y[i] = (-1)**(i+n-1) * det(work without column
    i) of integer rows `work` of an (n-1) x n matrix of rank n-1, a nonzero
    y with work·y = 0; eliminates `work` in place and raises Singular when
    the rank is lower."""
    if not work:
        return [1]
    cols, sign, last = _eliminate(work)
    if len(cols) < n - 1:
        raise Singular(f"rank is below {n - 1}")
    return _cofactors(work, cols, n, sign * last)


def _cofactors(work, cols, n, minor):
    """The signed cofactors y[i] = (-1)**(i+n-1) * det(without column i) of
    n-1 rows of n columns, from the echelon rows `work` with pivot columns
    `cols` that their forward elimination left; work·y = 0.

    The elimination leaves a single free column f, and `minor` is the
    cofactor's determinant there: the last pivot times the sign of the row
    swaps.  Back substitution (Cramer's rule) then divides exactly and
    yields the other cofactors.  Any other sign of `minor` negates y.
    """
    y = [0] * n
    free = set(range(n)).difference(cols).pop()
    y[free] = (-1) ** (free + n - 1) * minor
    # an echelon row is zero before its pivot, and y is still zero there
    for row, col in zip(reversed(work), reversed(cols)):
        y[col] = -sum(map(mul, row, y)) // row[col]
    return y


def left_null_vector(m):
    """A nonzero integer y with y·m = 0 for an r x (r-1) matrix of rank
    r-1; raises Singular when the rank is lower.  y is the signed cofactor
    vector y[i] = (-1)**(i+r-1) * det(m without row i), so det([m | v]) =
    y·v (Laplace expansion along v)."""
    r, c = dims(m)
    if c != r - 1:
        raise ValueError(f"left_null_vector needs an r x (r-1) matrix, got {r}x{c}")
    # m is read by rows, so a refused entry is named where it stands
    cols = zip(*(int_row(row, i) for i, row in enumerate(m, start=1)))
    return _null_vector(list(map(list, cols)), r)

