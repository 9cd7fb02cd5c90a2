"""Cyclic-module operators on tensor powers of a Hopf algebra and on algebra
cochain spaces; ``relations`` checks the relations of Lambda among them.

Tensor elements are sparse maps from tuples of basis keys to scalars;
degree 0 is the ground field with the single basis key ().

The elementwise operators (face, degeneracy, cyclic) are the specification:
they act on any tensor, so they serve the symbolic U(g) modules, the
relation suites and the checkers, and ``operator_matrix`` turns any of them
into a matrix one basis tensor at a time, which makes them the test oracle.
A module of H is built from its character delta alone, which holds H as
``delta.hopf``.  Every module indexes basis tensors through one base,
``TensorBasis``, keyed by the number of tensor factors (n for H^(x)n, n + 1
for cochains) and by the indices a factor may take, its ``digits``.  It
also holds the one degeneracy: sigma_i contracts factor i +
``extra_factors`` against the functional a module holds as
``contraction``, the counit of H, or on cochains the coefficients of the
unit, which inserts 1 as argument i + 1.
tau is a recursion on the degree, elementwise as on matrices: tau_1 e_k =
S~(e_k), and since Delta^(n-1) = (id^(n-2) (x) Delta) Delta^(n-2) splits
the last leg (``iterated_comul``), tau_n(x (x) e_s) is tau_(n-1)(x) with
each last factor e_a replaced by Delta(e_a)(e_s (x) 1).  ``cyclic`` is
linear in a cache: ``tau_image`` builds the image of each basis tuple, and
of each prefix the recursion passes through, once from the image of its
prefix; each table Delta(e_a)(e_s (x) 1) and each product e_p e_s is
formed once per module (none at a unit e_s, as e_p 1 = e_p); a call adds
the cached images into a fresh dict.  ``relations.relation_suite`` drives
``tau_image`` on its own columns.  The closed form of tau_n^j
(``cyclic_power_formula``: Delta^(n-1) S~ of one factor multiplied
slotwise against the others) stays at every j, j = 1 included, as the
oracle of the recursion.
For a finite H the matrices are assembled straight from the structure
constants instead, each by recursion on the degree.  b is the cobar
differential of the coalgebra H: ``cobar_matrix`` builds b_1 = 0 and
b_(m+1) = b_m (x) 1 + (-1)^m 1^(x)(m-1) (x) D, where D(e_s) = Delta(e_s) -
1 (x) e_s - e_s (x) 1 is the one d x d table (``TensorBasis.cobar_table``),
read, like the eigenvalues ``coinner`` of phi_delta, through ``full`` at a
module's digits.  ``cyclic_matrix`` runs the recursion of tau on
matrices: it reads the legs of S~(e_k) at degree 1, and from there on
each tau_m comes from tau_(m-1) through the same tables Delta(e_a)(e_s
(x) 1), on indices.  ``extra_degeneracy_columns`` reads s =
sigma_n tau_(n+1) off tau_n: a column of tau_n with its last factor
multiplied by the last factor of the source tuple.  Both matrix
recursions map the last factor of a column of tau through a table indexed
by that factor, in one kernel, ``last_factor_images``, which
``tau_image`` mirrors on tuple keys.  b keeps its own loop:
b_(m+1)(x (x) e_s) = b_m(x) (x) e_s + (-1)^m x (x) D(e_s) is not a map of
the last factor alone.  The cohomology matrices are built from these.
``NormalizedModule`` runs the same recursions on the normalized complex
(ker eps)^(x)n of a rebased module, whose digits leave out one index; its
``inclusion`` writes a tensor of N back in the basis of H.
``invariant_index`` lists the basis tuples on which the co-inner
automorphism phi_delta is 1, read off the eigenvalue of each digit, and
``invariant_part`` restricts a matrix to them (see ``cohomology``).

The matrices and the elementwise operators read the same structure tables
and character, whose scalars are canonical (see ``fields``): on an integral
presentation every matrix entry is an ``int``.

Degree-0 conventions: both faces out of degree 0 are the unit map, the
degeneracy into degree 0 is the counit, and the cyclic operator in degree 0
is the identity.  These are exactly what the (b, B)-machinery needs.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .hopf import coinner_eigenvalues, linear, rebased, vec_add_into
from .linalg import SparseMatrix


class TensorBasis:
    """Basis index arithmetic shared by the cyclic modules of a finite
    algebra: a basis tensor of degree n is a tuple of n + ``extra_factors``
    of the ``base`` indices in ``digits``, listed in lexicographic order,
    and its index reads their positions in ``digits`` in base ``base``, the
    first factor most significant.  ``full`` is the cyclic module of the
    whole presentation (a module of H itself, or a NormalizedModule's
    rebased module); the rows B is formed on, the cobar table D and the
    eigenvalues of phi_delta are all read through it at ``digits``."""

    extra_factors = 0

    def space_dim(self, n):
        return self.base ** (n + self.extra_factors)

    def basis_keys(self, n):
        """Basis tuples of degree n in lexicographic order."""
        return itertools.product(self.digits,
                                 repeat=n + self.extra_factors)

    @cached_property
    def _positions(self):
        """The position of each digit in ``digits``."""
        return {k: i for i, k in enumerate(self.digits)}

    def key_index(self, key):
        idx, positions = 0, self._positions
        base = len(positions)
        for k in key:
            idx = idx * base + positions[k]
        return idx

    def key_of_index(self, idx, n):
        base, digits, out = self.base, self.digits, []
        for _ in range(n + self.extra_factors):
            idx, r = divmod(idx, base)
            out.append(digits[r])
        return tuple(reversed(out))

    def full_index(self, n):
        """The index in ``full`` of each basis tuple of degree n, in order."""
        d, full = self.full.base, [0]
        for _ in range(n + self.extra_factors):
            full = [j * d + k for j in full for k in self.digits]
        return full

    def restricted(self, cols, src, tgt):
        """The RestrictedMatrix from degree src to degree tgt with the given
        columns, dicts on the rows of ``full`` at degree tgt."""
        return on_rows(cols, self.full_index(tgt),
                       lambda j: self.key_of_index(j, src))

    def invariant_index(self, n):
        """The indices of the degree-n basis tuples on which phi_delta is 1,
        in order: those whose product of the digits' ``coinner`` values is
        1.  None when every value is 1 or none is known, as nothing is then
        dropped.  The values generate a finite group of roots of unity;
        each digit adds its value to a tuple's group label through the
        group's product table, so no scalar is multiplied per tuple."""
        values = self.coinner
        if values is None or all(c == 1 for c in values):
            return None
        group = [1]
        for g in group:  # grows while it is read, to the group's order
            for h in (g * c for c in values):
                if h not in group:
                    group.append(h)
        table = [[group.index(g * c) for c in values] for g in group]
        labels = [0]
        for _ in range(n + self.extra_factors):
            labels = [label for g in labels for label in table[g]]
        return [j for j, label in enumerate(labels) if not label]

    def invariant_part(self, matrix, src, tgt):
        """matrix, from degree src to degree tgt, on the basis tuples of
        ``invariant_index`` at both degrees, as a RestrictedMatrix whose
        ``outside`` is the first kept source tuple with an entry at a
        dropped row; matrix itself, neither restricted nor copied, when no
        tuple is dropped."""
        sources = self.invariant_index(src)
        if sources is None:
            return matrix
        return on_rows((matrix.cols[j] for j in sources),
                       sources if tgt == src else self.invariant_index(tgt),
                       lambda j: self.key_of_index(sources[j], src))

    def samples(self, n):
        return [{key: 1} for key in self.basis_keys(n)]

    def degeneracy(self, i, n, t):
        """Degeneracy from degree n+1 to degree n, 0 <= i <= n: factor
        i + ``extra_factors`` of each basis tuple is contracted against
        ``self.contraction``, the counit of H on H^(x)n; on cochains the
        unit's coefficients, which inserts 1 as argument i + 1."""
        if not 0 <= i <= n:
            raise IndexError(f"degeneracy index {i} out of range at degree {n}")
        contraction = self.contraction
        k = i + self.extra_factors
        out = {}
        for key, c in t.items():
            e = contraction(key[k])
            if e:
                d = c * e
                short = key[:k] + key[k + 1:]
                w = out.get(short)
                s = d if w is None else w + d
                if s:
                    out[short] = s
                else:
                    out.pop(short, None)
        return out

    def operator_matrix(self, op, src_degree, tgt_degree):
        """Assemble the exact matrix of an elementwise operator; columns are
        basis tuples of the source degree in lexicographic order."""
        cols = []
        for key in self.basis_keys(src_degree):
            image = op({key: 1})
            cols.append({self.key_index(k): v for k, v in image.items()})
        return SparseMatrix.from_columns(cols, self.space_dim(tgt_degree))

    @cached_property
    def coinner(self):
        """The eigenvalue of phi_delta at each digit, or None where it is
        not known to be diagonal (``hopf.coinner_eigenvalues``)."""
        values = coinner_eigenvalues(self.full.delta)
        return None if values is None else [values[k] for k in self.digits]

    def cobar_table(self):
        """D(e_s) = Delta(e_s) - 1 (x) e_s - e_s (x) 1 in ``full.hopf`` for
        each s in ``digits``, as (``key_index((a, b))``, c) pairs for c e_a
        (x) e_b.  ValueError names a term with a factor outside the digits,
        which on a NormalizedModule only a broken counit axiom leaves."""
        H = self.full.hopf
        unit = H.unit_element()
        table = []
        for s in self.digits:
            row = dict(H.comul_basis(s))
            vec_add_into(row, {(u, s): c for u, c in unit.items()}, -1)
            vec_add_into(row, {(s, u): c for u, c in unit.items()}, -1)
            for (a, b), c in row.items():
                if a not in self.digits or b not in self.digits:
                    raise ValueError(
                        f"the counit axiom fails on {H.name} at basis index "
                        f"{s}: D(e_{s}) keeps the term "
                        f"{H.field.format(c)} e_{a} (x) e_{b}")
            table.append([(self.key_index(ab), c) for ab, c in row.items()])
        return table

    def cobar_matrix(self, n):
        """b_n from degree n-1 to degree n, for a module whose
        ``cobar_table()`` lists each D(e_s) as (a base + b, c) pairs for
        c e_a (x) e_b: b_1 = 0 and b_(m+1)(x (x) e_s) = b_m(x) (x) e_s +
        (-1)^m x (x) D(e_s), as faces 0..m-1 act on x alone and faces m and
        m + 1 give (-1)^m x (x) (Delta(e_s) - e_s (x) 1), while the last
        term (-1)^m x (x) 1 (x) e_s of b_m(x) (x) e_s is cancelled in D."""
        base = self.base
        table = self.cobar_table()
        cols = [{}]
        for m in range(1, n):
            sign = 1 if m % 2 == 0 else -1
            rows = [[(off, sign * c) for off, c in row] for row in table]
            prev, cols = cols, []
            for j, col in enumerate(prev):
                head = j * base * base
                for s, row in enumerate(rows):
                    out = {r * base + s: v for r, v in col.items()}
                    for off, c in row:
                        r = head + off
                        w = out.get(r)
                        x = c if w is None else w + c
                        if x:
                            out[r] = x
                        else:
                            del out[r]
                    cols.append(out)
        return SparseMatrix.from_columns(cols, self.space_dim(n))


class HopfCyclicModule(TensorBasis):
    """The cyclic module {H^(x)n} of a Hopf algebra with character delta.

    Works for finite-dimensional algebras (basis keys are ints, matrices
    available) and for rule-based ones such as U(g) (basis keys are PBW
    exponent tuples, element-level operations only).
    """

    def __init__(self, delta):
        self.hopf = delta.hopf
        self.delta = delta
        self.contraction = self.hopf.counit_basis
        unit = self.hopf.unit_element()
        # the basis key of the unit, where the unit is one basis element
        self._unit = next(iter(unit)) if list(unit.values()) == [1] else None
        self._legs = {}
        self._images = {}  # basis tuple -> its image under tau
        self._tables = {}  # (a, s) -> Delta(e_a)(e_s (x) 1)
        self._products = {}  # (p, s) -> e_p e_s

    # -- elementwise operators

    def face(self, i, n, t):
        """Face operator from degree n-1 to degree n, 0 <= i <= n."""
        if not 1 <= n or not 0 <= i <= n:
            raise IndexError(f"face index {i} out of range at degree {n}")
        H = self.hopf
        unit = H.unit_element()
        out = {}
        for key, c in t.items():
            if i == 0:
                image = {(u,) + key: cu for u, cu in unit.items()}
            elif i == n:
                image = {key + (u,): cu for u, cu in unit.items()}
            else:
                image = {key[:i - 1] + pair + key[i:]: d
                         for pair, d in H.comul_basis(key[i - 1]).items()}
            vec_add_into(out, image, c)
        return out

    degeneracy = TensorBasis.degeneracy  # traced per class

    def cyclic(self, n, t):
        """tau_n, by recursion on the degree (``tau_image``).  Identity in
        degree 0.  Linear in t: the image of each basis tuple, and of each
        prefix the recursion passes through, is built once and read from
        the module's cache."""
        if n == 0:
            return dict(t)
        out = {}
        for key, c in t.items():
            vec_add_into(out, self._tau(key), c)
        return out

    def _tau(self, key):
        image = self._images.get(key)
        if image is None:
            prefix = self._tau(key[:-1]).items() if len(key) > 1 else ()
            image = self._images[key] = self.tau_image(key, prefix)
        return image

    def tau_image(self, key, prefix):
        """tau_n of the basis tuple key, n = len(key) >= 1, as a fresh dict,
        given ``prefix``, the items of tau_(n-1) of key[:-1].  tau_1 e_k =
        S~(e_k) (prefix unused).  Since Delta^(n-1) = (id^(n-2) (x) Delta)
        Delta^(n-2), tau_n(x (x) e_s) is tau_(n-1)(x) with each last factor
        e_a replaced by Delta(e_a)(e_s (x) 1); the last factor of
        tau_(n-1)(x) is its last leg times 1, so this rests on the unit
        law, as the closed form does.  Each table Delta(e_a)(e_s (x) 1) is
        built once per module (``_last_factor_table``)."""
        if len(key) == 1:
            return dict(self._twisted_legs(key[0], 1))
        s, tables, out = key[-1], self._tables, {}
        for k, v in prefix:
            a = k[-1]
            table = tables.get((a, s))
            if table is None:
                table = tables[a, s] = self._last_factor_table(a, s)
            head = k[:-1]
            for tail, c in table:
                r = head + tail
                w = out.get(r)
                x = v * c if w is None else w + v * c
                if x:
                    out[r] = x
                else:
                    del out[r]
        return out

    def _last_factor_table(self, a, s):
        """Delta(e_a)(e_s (x) 1) = sum e_a(1) e_s (x) e_a(2) as (pair, c)
        items; Delta(e_a) itself when e_s is the unit."""
        coproduct = self.hopf.comul_basis(a)
        if s == self._unit:
            return list(coproduct.items())
        out = {}
        for (p, q), c in coproduct.items():
            vec_add_into(out, {(m, q): mc for m, mc in self._product(p, s)},
                         c)
        return list(out.items())

    def _product(self, p, s):
        """e_p e_s as items, formed with one ``H.mul`` per module."""
        prod = self._products.get((p, s))
        if prod is None:
            prod = self._products[p, s] = list(
                self.hopf.mul({p: 1}, {s: 1}).items())
        return prod

    def cyclic_power_formula(self, j, n, t):
        """tau_n^j for 1 <= j <= n+1 in closed form: Delta^(n-1) S~ of the
        j-th factor of h^1 (x) ... (x) h^n (x) 1, multiplied slotwise against
        the factors after it followed by those before it.  Identity in
        degree 0.  Nothing is cached but the legs and products it reads: it
        is the oracle of the recursion ``cyclic``."""
        if not 1 <= j <= n + 1:
            raise IndexError(f"power {j} out of range at degree {n}")
        if n == 0:
            return dict(t)
        out = {}
        for key, c in t.items():
            vec_add_into(out, self._tau_image(j, n, key), c)
        return out

    def _tau_image(self, j, n, key):
        """tau_n^j of the basis tuple ``key`` in closed form.  The factors
        are the keys of the tuple followed by None, the unit.  A slot whose
        factor is the unit keeps its leg, as e_k 1 = e_k, so the trailing
        (x) 1 and a tensor's unit factors cost no product.  This rests on
        the unit law, as the recursion does: U(g) holds it by construction,
        a ``FiniteAlgebra`` refuses to be built without it and
        ``check_hopf_axioms`` reports it."""
        ext = list(key) + [None]
        first, slots = ext[j - 1], ext[j:] + ext[:j - 1]
        unit = self._unit
        image = {}
        for h, ch in (self.hopf.unit_element() if first is None
                      else {first: 1}).items():
            for leg, lc in self._twisted_legs(h, n).items():
                partial = [((), ch * lc)]
                for k, s in zip(leg, slots):
                    if s is None or s == unit:
                        partial = [(pk + (k,), pc) for pk, pc in partial]
                        continue
                    partial = [(pk + (m,), pc * mc) for pk, pc in partial
                               for m, mc in self._product(k, s)]
                    if not partial:
                        break
                for pk, pc in partial:
                    w = image.get(pk)
                    x = pc if w is None else w + pc
                    if x:
                        image[pk] = x
                    else:
                        image.pop(pk, None)
        return image

    def _twisted_legs(self, k, n):
        """Delta^(n-1) S~(e_k) as a degree-n tensor, computed once per (k, n)
        for the closed form; the recursions of ``cyclic`` and
        ``cyclic_matrix`` read it at n = 1 only."""
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
        if self.hopf.dim is None:
            raise ValueError(f"{self.hopf.name} has no finite basis; "
                             f"pass samples=")
        return self.hopf.dim

    digits = property(lambda self: range(self.base))

    operator_matrix = TensorBasis.operator_matrix

    # B_matrix, cobar_table and coinner read full on every module of H
    full = property(lambda self: self)

    # -- matrices assembled from the structure constants (finite H only);
    # columns are generated one at a time, basis tuples in lexicographic
    # order, and a tuple's index has its first factor most significant

    def extra_degeneracy_columns(self, tau, sources):
        """s = sigma_n tau_(n+1) at the basis indices sources of degree
        n + 1, as fresh dicts, given tau, the matrix of tau_n.  sigma_n
        takes the counit of the last leg of Delta^n S~(h^1), so s of the
        tuple (x, t) is tau_n e_x with its last factor e_a replaced by
        e_a e_t (exact by the unit axiom).  At n = 0 (one row; at d = 1 the
        two agree) s = eps S~ = delta, read here as the product e_0 e_t.
        Consecutive sources with the same x share one split of tau_n e_x."""
        H, d = self.hopf, self.base
        if tau.nrows == 1:
            prod = [[[(0, v)] if v else []] for v in self.delta.values]
        else:
            prod = [[list(H.mul_basis(a, t).items()) for a in range(d)]
                    for t in range(d)]
        return last_factor_images(
            ((tau.cols[x], [prod[j % d] for j in js])
             for x, js in itertools.groupby(sources, lambda j: j // d)),
            d, d)

    def cyclic_matrix(self, n):
        """Matrix of tau_n, by recursion on the degree.

        tau_1 e_k = S~(e_k) 1.  Since Delta^(m-1) = (id^(m-2) (x) Delta)
        Delta^(m-2), tau_m of the basis tuple (x, s) is tau_(m-1) e_x with
        its last factor e_a replaced by Delta(e_a)(e_s (x) 1), phi[s][a],
        the table of the elementwise tau (``_last_factor_table``) on
        indices; the unit axiom e_a 1 = e_a, checked by
        ``check_hopf_axioms``, makes this exact.  Only tau_(m-1) is held
        while tau_m is built."""
        if n == 0:
            return SparseMatrix.identity(1)
        H = self.hopf
        d = self.base
        unit = H.unit_element()
        cols = [H.mul({a: c for (a,), c in self._twisted_legs(k, 1).items()},
                      unit) for k in range(d)]
        phi = [[[(m * d + q, c) for (m, q), c in self._last_factor_table(a, s)]
                for a in range(d)] for s in range(d)]
        for _ in range(2, n + 1):
            cols = list(last_factor_images(((col, phi) for col in cols),
                                           d, d * d))
        return SparseMatrix.from_columns(cols, d ** n)


def last_factor_images(pairs, d, width):
    """(id (x) T) col for each table T of each pair (col, tables), in order:
    col is a sparse column over basis tuples in base d, and T[a] lists the
    (offset, c) pairs, offsets below width, that replace a last factor e_a.
    Each column is split into its head and last factor once."""
    for col, tables in pairs:
        split = [(r // d * width, v, r % d) for r, v in col.items()]
        for table in tables:
            out = {}
            for head, v, a in split:
                for off, c in table[a]:
                    r = head + off
                    w = out.get(r)
                    x = v * c if w is None else w + v * c
                    if x:
                        out[r] = x
                    else:
                        del out[r]
            yield out


def iterated_comul(H, elem, n):
    """Delta^(n-1) of an element, as a degree-n tensor (Delta^0 = id)."""
    def split_last(key):
        return {key[:-1] + pair: d
                for pair, d in H.comul_basis(key[-1]).items()}

    t = {(k,): c for k, c in elem.items()}
    for _ in range(n - 1):
        t = linear(split_last, t)
    return t


class RestrictedMatrix(SparseMatrix):
    """A matrix on a subset of the rows of the columns it was made from.
    ``outside`` is the basis tuple of its first column with an entry at a
    row not kept, or None."""

    __slots__ = ("outside",)


def on_rows(cols, rows, key_of):
    """The RestrictedMatrix of the columns cols read on rows, the list of
    the row indices kept, in order; key_of(j) names column j as
    ``outside``.  An entry at a row not kept is left out of the matrix, and
    ``outside`` reports it."""
    index = {r: i for i, r in enumerate(rows)}
    outside, kept = None, []
    for j, col in enumerate(cols):
        try:
            kept.append({index[r]: v for r, v in col.items()})
        except KeyError:
            kept.append({index[r]: v for r, v in col.items() if r in index})
            if outside is None:
                outside = key_of(j)
    matrix = RestrictedMatrix.from_columns(kept, len(rows))
    matrix.outside = outside
    return matrix


class NormalizedModule(TensorBasis):
    """The normalized sub-mixed complex N^n = (ker eps)^(x)n of the cyclic
    module of a finite H with character delta.  It has the same HH and HC
    as the whole module (Loday, Cyclic Homology, 2.1 and 2.5).

    It is read in the rebased presentation of ``hopf.rebased``, where N^n
    is spanned by the basis tuples with no index p; ``full`` is the cyclic
    module of that presentation, and N's digits are every index but p.
    Its b is ``cobar_matrix`` on N's own index, with D(f_s) = Delta(f_s) -
    f_p (x) f_s - f_s (x) f_p, which the counit axiom keeps inside N.  Its
    B is formed on the columns of N with the rebased rows, and
    ``restricted`` carries each column to the rows of N, setting an entry
    outside N aside as the matrix's ``outside`` witness.
    """

    def __init__(self, delta):
        rebased_delta, self.p = rebased(delta)
        self.full = HopfCyclicModule(rebased_delta)
        self.digits = [k for k in range(delta.hopf.dim) if k != self.p]
        self.base = len(self.digits)
        self.cobar_table()  # refuses a broken counit here
        H = delta.hopf
        self._iota = {k: list(vec_add_into({k: 1}, H.unit,
                                           -H.counit[k]).items())
                      for k in self.digits}

    def inclusion(self, vec):
        """iota, N^n -> H^(x)n: the tensor vec over N's basis tuples in the
        basis of the given H, each factor f_k = e_k - eps(e_k) 1."""
        def image(key):
            out = {(): 1}
            for k in key:
                out = {head + (e,): c * v for head, c in out.items()
                       for e, v in self._iota[k]}
            return out

        return linear(image, vec)


class CochainCyclicModule(TensorBasis):
    """The cyclic module of multilinear forms on a finite algebra.

    Cochains of degree n are coefficient tensors on (n+1)-tuples of basis
    indices.  Faces multiply consecutive arguments (the last one wraps
    around), degeneracies insert the unit, the cyclic operator rotates the
    arguments.
    """

    extra_factors = 1
    coinner = None

    def __init__(self, algebra):
        self.algebra = algebra
        self.base = algebra.dim
        self.digits = range(self.base)
        self.contraction = algebra.unit.get
        self._rev = algebra.reverse_product_table()

    def face(self, i, n, phi):
        """From cochains on n-tuples to cochains on (n+1)-tuples, 0 <= i <= n."""
        if not 1 <= n or not 0 <= i <= n:
            raise IndexError(f"face index {i} out of range at degree {n}")

        def image(key):
            if i < n:
                return {key[:i] + (a, b) + key[i + 1:]: d
                        for a, b, d in self._rev[key[i]]}
            return {(b,) + key[1:] + (a,): d for a, b, d in self._rev[key[0]]}

        return linear(image, phi)

    degeneracy = TensorBasis.degeneracy  # traced per class

    def cyclic(self, n, phi):
        """Rotate arguments: the new last argument moves to the front."""
        return {key[1:] + (key[0],): c for key, c in phi.items()}

    operator_matrix = TensorBasis.operator_matrix  # traced per class
