"""Small dense linear algebra over a FieldTable.

Vectors are tuples of element codes, matrices are tuples of row tuples.
Everything is table-driven; no floating point anywhere.
"""


def normalize(f, vec):
    """Scale a nonzero vector so its leftmost nonzero coordinate is 1."""
    for c in vec:
        if c:
            if c == 1:
                return tuple(vec)
            s = f.inv_table[c]
            row = f.mul_table[s]
            return tuple(row[x] for x in vec)
    raise ValueError("zero vector has no projective representative")


def reduce_row(f, echelon, row):
    """Reduce row against a semi-echelon basis, a list of (pivot, row) whose
    rows hold 1 at their pivot and 0 at every earlier pivot.  Returns
    (pivot, row scaled to 1 there), which extends the basis, or None when
    row lies in the basis's span.  The one row-reduction kernel."""
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    for col, b in echelon:
        if row[col]:
            frow = mul[neg[row[col]]]
            row = [add[x][frow[y]] for x, y in zip(row, b)]
    for col, x in enumerate(row):
        if x:
            return col, row if x == 1 else [mul[f.inv_table[x]][y] for y in row]
    return None


def rref(f, rows):
    """Reduced row echelon form; returns the tuple of nonzero rows.  The
    rows' semi-echelon basis, then back-substitution: each basis row, last
    pivot first, reduced against the rows already finished."""
    echelon = []
    for row in rows:
        reduced = reduce_row(f, echelon, row)
        if reduced is not None:
            echelon.append(reduced)
    done = []
    for _, row in sorted(echelon, reverse=True):
        done.append(reduce_row(f, done, row))
    return tuple(tuple(row) for _, row in reversed(done))


def is_invertible(f, mat):
    """Whether mat is square with full rank: False at the first row in the
    span of the rows before it, with no back-substitution."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        return False
    echelon = []
    for row in mat:
        reduced = reduce_row(f, echelon, row)
        if reduced is None:
            return False
        echelon.append(reduced)
    return True


def nullspace(f, rows):
    """Basis of the right nullspace {x : rows . x^T = 0}: `rref_kernel` of
    the rows' reduced form."""
    return rref_kernel(f, rref(f, rows), len(rows[0]))


def rref_kernel(f, reduced, width):
    """Right nullspace of rows in RREF, each width codes long, one vector
    per free column: 1 there and, at each row's pivot (its leading 1),
    minus the row's entry in that column."""
    pivots = [row.index(1) for row in reduced]
    basis = []
    for j in range(width):
        if j not in pivots:
            vec = [0] * width
            vec[j] = 1
            for row, p in zip(reduced, pivots):
                vec[p] = f.neg_table[row[j]]
            basis.append(tuple(vec))
    return tuple(basis)
