"""Cyclic-module operators on tensor powers of a Hopf algebra, on algebra
cochain spaces, and the relation suites tying them together.

Tensor elements are sparse maps from tuples of basis keys to scalars;
degree 0 is the ground field with the single basis key ().

The elementwise operators (face, degeneracy, cyclic) are the specification:
they act on any tensor, so they serve the symbolic U(g) modules, the
relation suites and the checkers, and ``operator_matrix`` turns any of them
into a matrix one basis tensor at a time, which makes them the test oracle.
Both modules index basis tensors through one base, ``TensorBasis``, keyed
by the number of tensor factors: n for H^(x)n, n + 1 for cochains.
tau has one elementwise construction, the closed form of tau_n^j
(``cyclic_power_formula``); ``cyclic`` is its case j = 1.  It is linear in
a cache: the image of each basis tensor is built once per (j, n, key), and
each slot product e_k * factor (a basis element or the unit) once per
module with ``H.mul``; a call adds the cached images into a fresh dict.
For a finite H, ``face_matrix``, ``degeneracy_matrix`` and ``cyclic_matrix``
are assembled straight from the structure constants instead: index
arithmetic for the unit, coproduct and counit slots, and for tau_n the
legs of Delta^(n-1) S~(e_k) multiplied slotwise against the remaining
factors.  Each module builds those legs once per (k, n), in a dict that the
elementwise tau and ``cyclic_matrix`` both read.  The cohomology matrices
are built from these.

The matrices and the elementwise operators read the same structure tables
and character, whose scalars are canonical (see ``fields``): on an integral
presentation every matrix entry is an ``int``.

Degree-0 conventions: both faces out of degree 0 are the unit map, the
degeneracy into degree 0 is the counit, and the cyclic operator in degree 0
is the identity.  These are exactly what the (b, B)-machinery needs.
"""

from __future__ import annotations

import itertools

from .hopf import vec_add_into, vec_eq
from .linalg import SparseMatrix
from .reports import CheckReport, first_failure


class TensorBasis:
    """Basis index arithmetic shared by the cyclic modules of a finite
    algebra: a basis tensor of degree n is a tuple of n + ``extra_factors``
    indices below ``self.base``, listed in lexicographic order, and its
    index has the first factor most significant."""

    extra_factors = 0

    def space_dim(self, n):
        return self.base ** (n + self.extra_factors)

    def basis_keys(self, n):
        """Basis tuples of degree n in lexicographic order."""
        return itertools.product(range(self.base),
                                 repeat=n + self.extra_factors)

    def key_index(self, key):
        idx = 0
        for k in key:
            idx = idx * self.base + k
        return idx

    def key_of_index(self, idx, n):
        digits = []
        for _ in range(n + self.extra_factors):
            idx, r = divmod(idx, self.base)
            digits.append(r)
        return tuple(reversed(digits))

    def samples(self, n):
        return [{key: 1} for key in self.basis_keys(n)]

    def operator_matrix(self, op, src_degree, tgt_degree):
        """Assemble the exact matrix of an elementwise operator; columns are
        basis tuples of the source degree in lexicographic order."""
        cols = []
        for key in self.basis_keys(src_degree):
            image = op({key: 1})
            cols.append({self.key_index(k): v for k, v in image.items()})
        return SparseMatrix.from_columns(cols, self.space_dim(tgt_degree))


class HopfCyclicModule(TensorBasis):
    """The cyclic module {H^(x)n} of a Hopf algebra with character delta.

    Works for finite-dimensional algebras (basis keys are ints, matrices
    available) and for rule-based ones such as U(g) (basis keys are PBW
    exponent tuples, element-level operations only).
    """

    def __init__(self, hopf, delta):
        self.hopf = hopf
        self.delta = delta
        self._legs = {}
        self._images = {}
        self._slots = {}
        self._keys = {}  # one tuple per output key, shared by the images

    # -- elementwise operators

    def face(self, i, n, t):
        """Face operator from degree n-1 to degree n, 0 <= i <= n."""
        if not 1 <= n or not 0 <= i <= n:
            raise IndexError(f"face index {i} out of range at degree {n}")
        H = self.hopf
        unit = H.unit_element()
        out = {}
        for key, c in t.items():
            if n == 1:
                # both faces out of degree 0 send 1 to 1_H
                image = {(u,): cu for u, cu in unit.items()}
            elif i == 0:
                image = {(u,) + key: cu for u, cu in unit.items()}
            elif i == n:
                image = {key + (u,): cu for u, cu in unit.items()}
            else:
                image = {key[:i - 1] + pair + key[i:]: d
                         for pair, d in H.comul_basis(key[i - 1]).items()}
            vec_add_into(out, image, c)
        return out

    def degeneracy(self, i, n, t):
        """Degeneracy from degree n+1 to degree n, 0 <= i <= n."""
        if not 0 <= i <= n:
            raise IndexError(f"degeneracy index {i} out of range at degree {n}")
        H = self.hopf
        out = {}
        for key, c in t.items():
            d = c * H.counit_basis(key[i])
            if d:
                short = key[:i] + key[i + 1:]
                w = out.get(short)
                s = d if w is None else w + d
                if s:
                    out[short] = s
                else:
                    out.pop(short, None)
        return out

    def cyclic(self, n, t):
        """tau_n, the closed form of tau_n^j at j = 1.  Identity in degree 0."""
        return self.cyclic_power_formula(1, n, t)

    def cyclic_power_formula(self, j, n, t):
        """tau_n^j for 1 <= j <= n+1 in closed form: Delta^(n-1) S~ of the
        j-th factor of h^1 (x) ... (x) h^n (x) 1, multiplied slotwise against
        the factors after it followed by those before it.  Identity in
        degree 0.  Linear in t: the image of each basis tensor is built once
        per (j, n, key) and read from the module's cache."""
        if not 1 <= j <= n + 1:
            raise IndexError(f"power {j} out of range at degree {n}")
        if n == 0:
            return dict(t)
        out = {}
        for key, c in t.items():
            image = self._images.get((j, n, key))
            if image is None:
                image = self._images[j, n, key] = self._tau_image(j, n, key)
            vec_add_into(out, image, c)
        return out

    def _tau_image(self, j, n, key):
        """tau_n^j of the basis tensor ``key`` in closed form.  A factor is
        given by its items: a basis key k is ((k, 1),), the unit its own."""
        unit = tuple(self.hopf.unit_element().items())
        ext = [((k, 1),) for k in key] + [unit]
        factors = ext[j:] + ext[:j - 1]
        image = {}
        for h, ch in ext[j - 1]:
            for leg, lc in self._twisted_legs(h, n).items():
                partial = [((), ch * lc)]
                for k, factor in zip(leg, factors):
                    prod = self._slot_product(k, factor)
                    partial = [(pk + (m,), pc * mc)
                               for pk, pc in partial for m, mc in prod]
                    if not partial:
                        break
                for pk, pc in partial:
                    pk = self._keys.setdefault(pk, pk)
                    w = image.get(pk)
                    s = pc if w is None else w + pc
                    if s:
                        image[pk] = s
                    else:
                        image.pop(pk, None)
        return image

    def _slot_product(self, k, factor):
        """e_k times a factor given by its items, as a list of items; one
        ``H.mul`` per (k, factor) and module."""
        prod = self._slots.get((k, factor))
        if prod is None:
            prod = self._slots[k, factor] = list(
                self.hopf.mul({k: 1}, dict(factor)).items())
        return prod

    def _twisted_legs(self, k, n):
        """Delta^(n-1) S~(e_k) as a degree-n tensor, computed once per (k, n)
        and shared by the elementwise tau and ``cyclic_matrix``."""
        legs = self._legs.get((k, n))
        if legs is None:
            H = self.hopf
            legs = self._legs[k, n] = iterated_comul(
                H, H.twisted_antipode(self.delta, {k: 1}), n)
        return legs

    # -- finite-dimensional extras (the index arithmetic is TensorBasis's);
    # bench/tracing.py wraps operator_matrix in each class's own __dict__

    @property
    def base(self):
        return self.hopf.dim

    operator_matrix = TensorBasis.operator_matrix

    # -- matrices assembled from the structure constants (finite H only);
    # columns are generated one at a time, basis tuples in lexicographic
    # order, and a tuple's index has its first factor most significant

    def face_matrix(self, i, n):
        """Matrix of face i from degree n-1 to degree n: the unit inserted
        in front (i = 0) or at the end (i = n), or the coproduct of factor
        i-1 spliced in, as index offsets of the new slots."""
        if not 1 <= n or not 0 <= i <= n:
            raise IndexError(f"face index {i} out of range at degree {n}")
        H = self.hopf
        d = H.dim
        unit = list(H.unit_element().items())
        size = d ** (n - 1)
        if i == 0:
            cols = ({u * size + j: c for u, c in unit} for j in range(size))
        elif i == n:
            cols = ({j * d + u: c for u, c in unit} for j in range(size))
        else:
            low = d ** (n - 1 - i)
            split = [[((a * d + b) * low, c)
                      for (a, b), c in H.comul_basis(k).items()]
                     for k in range(d)]

            def col_of(j):
                head, tail = divmod(j, low)
                prefix, k = divmod(head, d)
                base = prefix * d * d * low + tail
                return {base + off: c for off, c in split[k]}

            cols = map(col_of, range(size))
        return SparseMatrix.from_columns(cols, d ** n)

    def degeneracy_matrix(self, i, n):
        """Matrix of degeneracy i from degree n+1 to degree n: the counit
        applied to factor i of each basis tuple."""
        if not 0 <= i <= n:
            raise IndexError(f"degeneracy index {i} out of range at degree {n}")
        H = self.hopf
        d = H.dim
        low = d ** (n - i)
        counit = [H.counit_basis(k) for k in range(d)]

        def col_of(j):
            head, tail = divmod(j, low)
            prefix, k = divmod(head, d)
            return {prefix * low + tail: counit[k]}

        return SparseMatrix.from_columns(map(col_of, range(d ** (n + 1))),
                                         d ** n)

    def cyclic_matrix(self, n):
        """Matrix of tau_n: the column of (k, k_2, ..., k_n) multiplies the
        legs of Delta^(n-1) S~(e_k) slotwise by e_k2, ..., e_kn and 1, one
        structure constant at a time."""
        if n == 0:
            return SparseMatrix.identity(1)
        H = self.hopf
        d = H.dim
        times = [[list(H.mul_basis(a, b).items()) for b in range(d)]
                 for a in range(d)]
        unit = H.unit_element()
        times_unit = [list(H.mul({a: 1}, unit).items()) for a in range(d)]

        def columns():
            for k in range(d):
                legs = self._twisted_legs(k, n).items()
                for rest in itertools.product(range(d), repeat=n - 1):
                    col = {}
                    for leg, c in legs:
                        partial = [(0, c)]
                        for a, b in zip(leg, rest):
                            partial = [(idx * d + m, pc * mc)
                                       for idx, pc in partial
                                       for m, mc in times[a][b]]
                        last = times_unit[leg[-1]]
                        for idx, pc in partial:
                            vec_add_into(
                                col, {idx * d + m: mc for m, mc in last}, pc)
                    yield col

        return SparseMatrix.from_columns(columns(), d ** n)


def iterated_comul(H, elem, n):
    """Delta^(n-1) of an element, as a degree-n tensor (Delta^0 = id)."""
    t = {(k,): c for k, c in elem.items()}
    for _ in range(n - 1):
        out = {}
        for key, c in t.items():
            head = key[:-1]
            vec_add_into(out, {head + pair: d for pair, d
                               in H.comul_basis(key[-1]).items()}, c)
        t = out
    return t


class CochainCyclicModule(TensorBasis):
    """The cyclic module of multilinear forms on a finite algebra.

    Cochains of degree n are coefficient tensors on (n+1)-tuples of basis
    indices.  Faces multiply consecutive arguments (the last one wraps
    around), degeneracies insert the unit, the cyclic operator rotates the
    arguments.
    """

    extra_factors = 1

    def __init__(self, algebra):
        self.algebra = algebra
        self.base = algebra.dim
        self._rev = algebra.reverse_product_table()

    def face(self, i, n, phi):
        """From cochains on n-tuples to cochains on (n+1)-tuples, 0 <= i <= n."""
        if not 1 <= n or not 0 <= i <= n:
            raise IndexError(f"face index {i} out of range at degree {n}")
        out = {}
        for key, c in phi.items():
            if i < n:
                image = {key[:i] + (a, b) + key[i + 1:]: d
                         for a, b, d in self._rev[key[i]]}
            else:
                image = {(b,) + key[1:] + (a,): d
                         for a, b, d in self._rev[key[0]]}
            vec_add_into(out, image, c)
        return out

    def degeneracy(self, i, n, phi):
        """Insert the algebra unit as argument i+1; degree n+1 to n."""
        if not 0 <= i <= n:
            raise IndexError(f"degeneracy index {i} out of range at degree {n}")
        unit = self.algebra.unit
        out = {}
        for key, c in phi.items():
            cu = unit.get(key[i + 1])
            if cu:
                d = c * cu
                short = key[:i + 1] + key[i + 2:]
                w = out.get(short)
                s = d if w is None else w + d
                if s:
                    out[short] = s
                else:
                    out.pop(short, None)
        return out

    def cyclic(self, n, phi):
        """Rotate arguments: the new last argument moves to the front."""
        return {key[1:] + (key[0],): c for key, c in phi.items()}

    operator_matrix = TensorBasis.operator_matrix  # traced per class


# ---------------------------------------------------------------------------
# relation suites


def _relation_instances(N_max):
    """All relation instances whose operators stay within degree N_max,
    grouped by (relation_id, degree) in sorted order.

    Each group is ((relation_id, degree), [(index_tuple, lhs_word,
    rhs_word), ...]) where words are generator sequences applied right to
    left, each generator a tag ('d'|'s'|'t', index, degree).
    """
    grouped = {}

    def add(rel, n, idx, lhs, rhs):
        grouped.setdefault((rel, n), []).append((idx, lhs, rhs))

    for n in range(2, N_max + 1):
        for j in range(1, n + 1):
            for i in range(j):
                add("dd", n, (i, j),
                    [("d", j, n), ("d", i, n - 1)],
                    [("d", i, n), ("d", j - 1, n - 1)])
    for s in range(2, N_max + 1):
        for i in range(s - 1):
            for j in range(i, s - 1):
                add("ss", s, (i, j),
                    [("s", j, s - 2), ("s", i, s - 1)],
                    [("s", i, s - 2), ("s", j + 1, s - 1)])
    for s in range(0, N_max):
        for i in range(s + 2):
            for j in range(s + 1):
                lhs = [("s", j, s), ("d", i, s + 1)]
                if i < j:
                    rhs = [("d", i, s), ("s", j - 1, s - 1)]
                elif i in (j, j + 1):
                    rhs = []
                else:
                    rhs = [("d", i - 1, s), ("s", j, s - 1)]
                add("sd", s, (i, j), lhs, rhs)
    for n in range(1, N_max + 1):
        for i in range(1, n + 1):
            add("td", n, (i,),
                [("t", 0, n), ("d", i, n)],
                [("d", i - 1, n), ("t", 0, n - 1)])
        add("td0", n, (0,), [("t", 0, n), ("d", 0, n)], [("d", n, n)])
    for n in range(0, N_max):
        for i in range(1, n + 1):
            add("ts", n, (i,),
                [("t", 0, n), ("s", i, n)],
                [("s", i - 1, n), ("t", 0, n + 1)])
        add("ts0", n, (0,), [("t", 0, n), ("s", 0, n)],
            [("s", n, n), ("t", 0, n + 1), ("t", 0, n + 1)])
    for n in range(0, N_max + 1):
        add("tpow", n, (), [("t", 0, n)] * (n + 1), [])
    return sorted(grouped.items())


def word_source_degree(word, default):
    """Degree on which a generator word acts (rightmost generator first)."""
    if not word:
        return default
    kind, _, deg = word[-1]
    if kind == "d":
        return deg - 1
    if kind == "s":
        return deg + 1
    return deg


def apply_generator(module, gen, t):
    kind, i, n = gen
    if kind == "d":
        return module.face(i, n, t)
    if kind == "s":
        return module.degeneracy(i, n, t)
    if kind == "t":
        return module.cyclic(n, t)
    raise ValueError(f"unknown generator {gen!r}")


def apply_word(module, word, t):
    for gen in reversed(word):
        t = apply_generator(module, gen, t)
    return t


def relation_suite(module, N_max, samples=None, title=None):
    """Verify every simplicial and cyclic relation with operators of degree
    <= N_max, as exact equalities on basis tensors (or supplied samples).

    ``samples``: optional callable degree -> list of tensors; defaults to the
    module's full basis (finite-dimensional case).
    """
    report = CheckReport(title or "cyclic-relations",
                         meta={"max-degree": N_max})
    get_samples = samples or module.samples
    for (rel, n), items in _relation_instances(N_max):
        cases = ((idx, t, apply_word(module, lhs, t),
                  apply_word(module, rhs, t))
                 for idx, lhs, rhs in items
                 for t in get_samples(word_source_degree(lhs, n)))
        report.add(f"{rel} n={n}", *first_failure(
            cases, lambda case: vec_eq(case[2], case[3]),
            lambda case: (case[0], sorted(case[1]), sorted(case[2].items()),
                          sorted(case[3].items()))))
    return report


def check_cyclic_power_formula(module, n, j, tensors):
    """tau_n^j computed by iteration equals the closed rotation formula."""
    def agrees(t):
        lhs = t
        for _ in range(j):
            lhs = module.cyclic(n, lhs)
        return vec_eq(lhs, module.cyclic_power_formula(j, n, t))

    return first_failure(tensors, agrees, lambda t: (n, j, sorted(t)))
