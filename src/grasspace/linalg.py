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


def vec_add(f, u, v):
    add = f.add_table
    return tuple(add[x][y] for x, y in zip(u, v))


def vec_scale(f, c, v):
    row = f.mul_table[c]
    return tuple(row[x] for x in v)


def rref(f, rows):
    """Reduced row echelon form; returns the tuple of nonzero rows."""
    add = f.add_table
    mul = f.mul_table
    neg = f.neg_table
    inv = f.inv_table
    m = [list(r) for r in rows]
    if not m:
        return ()
    width = len(m[0])
    pivot_row = 0
    for col in range(width):
        pr = None
        for r in range(pivot_row, len(m)):
            if m[r][col]:
                pr = r
                break
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        lead = m[pivot_row][col]
        if lead != 1:
            s = inv[lead]
            m[pivot_row] = [mul[s][x] for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col]:
                factor = neg[m[r][col]]
                frow = mul[factor]
                prow = m[pivot_row]
                m[r] = [add[x][frow[y]] for x, y in zip(m[r], prow)]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return tuple(tuple(r) for r in m[:pivot_row] if any(r))


def is_invertible(f, mat):
    """Whether mat is square with full rank, by forward elimination alone:
    False at the first column with no pivot left, no back-substitution."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        return False
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    rows = list(mat)
    for col in range(n):
        for i, r in enumerate(rows):
            if r[col]:
                break
        else:
            return False
        pivot = rows.pop(i)
        scale = mul[neg[inv[pivot[col]]]]
        for k, r in enumerate(rows):
            if r[col]:
                frow = mul[scale[r[col]]]
                rows[k] = [add[x][frow[y]] for x, y in zip(r, pivot)]
    return True


def nullspace(f, rows):
    """Basis of the right nullspace {x : rows . x^T = 0}, one vector per free column."""
    reduced = rref(f, rows)
    width = len(rows[0])
    pivot_cols = []
    for r in reduced:
        for j, c in enumerate(r):
            if c:
                pivot_cols.append(j)
                break
    free_cols = [j for j in range(width) if j not in pivot_cols]
    neg = f.neg_table
    basis = []
    for j in free_cols:
        vec = [0] * width
        vec[j] = 1
        for r, pc in zip(reduced, pivot_cols):
            vec[pc] = neg[r[j]]
        basis.append(tuple(vec))
    return tuple(basis)
