"""Independent dense-matrix oracle for cohomology dimensions.

Everything here is recomputed from the structure constants with plain
dense rational linear algebra and its own operator code, sharing nothing
with the package's sparse path.  Used once to freeze the golden dimension
tables under tests/goldens/, and kept so the goldens can be regenerated
and audited.
"""

from fractions import Fraction
from itertools import product as iproduct


def _exact_rows(rows):
    """A copy of rows with every int entry a Fraction, so that / is exact."""
    return [[Fraction(a) if isinstance(a, int) else a for a in r]
            for r in rows]


def _div(a, b):
    """a / b, exactly: Q(zeta_m) arithmetic returns an int for a rational
    integer, so entries turn int during elimination, and int / int is a
    float."""
    return Fraction(a) / b if isinstance(a, int) else a / b


def dense_rank(rows):
    """Row echelon rank of a dense list-of-lists matrix; int entries are
    read as Fractions."""
    rows = _exact_rows(rows)
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = _div(rows[r][col], pv)
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_kernel(rows, ncols):
    """Basis of the kernel as dense column vectors; int entries are read
    as Fractions."""
    rows = _exact_rows(rows)
    pivots = {}
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [_div(a, pv) for a in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, prow in pivots.items():
            vec[pc] = -rows[prow][fc]
        basis.append(vec)
    return basis


def dense_product(a, b, ncols):
    """a times b for dense list-of-lists matrices, b with ncols columns (so
    that a b has a shape even when b has no rows)."""
    return [[sum((x * row[c] for x, row in zip(a_row, b)), Fraction(0))
             for c in range(ncols)] for a_row in a]


# -- tensor operators rebuilt from the structure constants ------------------


def _mul(H, a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            for k, c in H.product.get((i, j), {}).items():
                out[k] = out.get(k, Fraction(0)) + ca * cb * c
    return {k: v for k, v in out.items() if v}


def _twisted_antipode_vec(H, delta_values, i):
    out = {}
    for (j, k), c in H.coproduct.get(i, {}).items():
        for l, s in H.antipode.get(k, {}).items():
            out[l] = out.get(l, Fraction(0)) + c * delta_values[j] * s
    return {k: v for k, v in out.items() if v}


def _face(H, i, n, t):
    out = {}
    for key, c in t.items():
        if n == 1:
            for u, cu in H.unit.items():
                out[(u,)] = out.get((u,), Fraction(0)) + c * cu
            continue
        if i == 0:
            for u, cu in H.unit.items():
                nk = (u,) + key
                out[nk] = out.get(nk, Fraction(0)) + c * cu
        elif i == n:
            for u, cu in H.unit.items():
                nk = key + (u,)
                out[nk] = out.get(nk, Fraction(0)) + c * cu
        else:
            for (j, k), cc in H.coproduct.get(key[i - 1], {}).items():
                nk = key[:i - 1] + (j, k) + key[i:]
                out[nk] = out.get(nk, Fraction(0)) + c * cc
    return {k: v for k, v in out.items() if v}


def _degeneracy(H, i, n, t):
    out = {}
    for key, c in t.items():
        e = H.counit[key[i]]
        if e:
            nk = key[:i] + key[i + 1:]
            out[nk] = out.get(nk, Fraction(0)) + c * e
    return {k: v for k, v in out.items() if v}


def _cyclic(H, delta_values, n, t):
    if n == 0:
        return dict(t)
    out = {}
    for key, c in t.items():
        st = _twisted_antipode_vec(H, delta_values, key[0])
        # spread S~(h^1) over n slots with the iterated coproduct
        spread = {(k,): v for k, v in st.items()}
        for _ in range(n - 1):
            nxt = {}
            for skey, sv in spread.items():
                for (j, k), cc in H.coproduct.get(skey[-1], {}).items():
                    nk = skey[:-1] + (j, k)
                    nxt[nk] = nxt.get(nk, Fraction(0)) + sv * cc
            spread = nxt
        for skey, sv in spread.items():
            factors = []
            val = c * sv
            for slot in range(n):
                if slot == n - 1:
                    prodv = _mul(H, {skey[slot]: Fraction(1)},
                                 {u: cu for u, cu in H.unit.items()})
                else:
                    prodv = _mul(H, {skey[slot]: Fraction(1)},
                                 {key[1 + slot]: Fraction(1)})
                factors.append(prodv)
            # expand the tensor product of the n slot values
            keys = [sorted(f.items()) for f in factors]
            for combo in iproduct(*keys):
                nk = tuple(k for k, _ in combo)
                cv = val
                for _, v in combo:
                    cv *= v
                out[nk] = out.get(nk, Fraction(0)) + cv
    return {k: v for k, v in out.items() if v}


def _tensor_basis(dim, n):
    return list(iproduct(range(dim), repeat=n))


def _index(key, dim):
    idx = 0
    for k in key:
        idx = idx * dim + k
    return idx


def _matrix_of(H, op, src_deg, tgt_deg):
    dim = H.dim
    nrows = dim ** tgt_deg
    cols = []
    for key in _tensor_basis(dim, src_deg):
        img = op({key: Fraction(1)})
        col = [Fraction(0)] * nrows
        for k, v in img.items():
            col[_index(k, dim)] = v
        cols.append(col)
    return [[cols[c][r] for c in range(len(cols))] for r in range(nrows)]


def _b_matrix(H, n):
    def op(t):
        out = {}
        for i in range(n + 1):
            img = _face(H, i, n, t)
            sign = Fraction(-1) ** i
            for k, v in img.items():
                out[k] = out.get(k, Fraction(0)) + sign * v
        return {k: v for k, v in out.items() if v}
    return _matrix_of(H, op, n - 1, n)


def oracle_dimensions(H, delta_values, N_max):
    """(HH dims, HC dims) for degrees 0..N_max via dense elimination; HC
    from the subcomplex of tensors fixed by the signed cyclic operator."""
    dim = H.dim
    b_ranks = [dense_rank(_b_matrix(H, n)) for n in range(1, N_max + 2)]
    hh = []
    for n in range(N_max + 1):
        hh.append(dim ** n - b_ranks[n] - (b_ranks[n - 1] if n else 0))

    kernel_dims = []
    image_ranks = []
    for n in range(N_max + 1):
        sign = Fraction(-1) ** n

        def one_minus_lambda(t, n=n, sign=sign):
            out = dict(t)
            for k, v in _cyclic(H, delta_values, n, t).items():
                out[k] = out.get(k, Fraction(0)) - sign * v
            return {k: v for k, v in out.items() if v}

        mat = _matrix_of(H, one_minus_lambda, n, n)
        kernel = dense_kernel(mat, dim ** n)
        kernel_dims.append(len(kernel))
        basis = _tensor_basis(dim, n)
        bcols = []
        for vec in kernel:
            t = {basis[i]: v for i, v in enumerate(vec) if v}
            img = {}
            for i in range(n + 2):
                sgn = Fraction(-1) ** i
                for k, v in _face(H, i, n + 1, t).items():
                    img[k] = img.get(k, Fraction(0)) + sgn * v
            col = [Fraction(0)] * (dim ** (n + 1))
            for k, v in img.items():
                col[_index(k, dim)] = v
            bcols.append(col)
        nrows = dim ** (n + 1)
        image_ranks.append(dense_rank(
            [[bcols[c][r] for c in range(len(bcols))] for r in range(nrows)]))
    hc = []
    for n in range(N_max + 1):
        hc.append(kernel_dims[n] - image_ranks[n]
                  - (image_ranks[n - 1] if n else 0))
    return hh, hc
