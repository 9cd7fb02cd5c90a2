"""The relations of Connes' cyclic category Lambda among faces,
degeneracies and tau, checked on a cyclic module.

A generator is a tag ('d'|'s'|'t', index, degree): the face, degeneracy or
cyclic operator of a module, applied by ``apply_generator``; a word is a
list of tags applied right to left.  ``_relation_instances`` lists every
instance of the simplicial and cyclic relations up to a degree, which
``lambda_cat`` also checks on the normal forms of Lambda's morphisms.

``relation_suite`` numbers each basis key as it is first reached and forms
each generator's image of each numbered key once, from the elementwise
operator, as a column on the key numbers.  On a module of H, tau_n's
column at x (x) e_s is ``HopfCyclicModule.tau_image`` of the suite's own
column of tau_(n-1) at x, so the recursion of tau reads no image from the
module's cache and none is held twice.  Every word is then a right-to-left
chain of sparse products of those columns, ``linalg.combine``.
"""

from __future__ import annotations

from .cyclic_ops import HopfCyclicModule
from .hopf import vec_eq
from .linalg import combine
from .reports import CheckReport, first_failure


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


class _Lazy(dict):
    """A dict whose missing value at j is ``build(j)``, stored on first
    read."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, j):
        value = self[j] = self.build(j)
        return value


def relation_suite(module, N_max, samples=None):
    """Verify every simplicial and cyclic relation with operators of degree
    <= N_max, as exact equalities on basis tensors (or supplied samples).

    ``samples``: optional callable degree -> list of tensors; defaults to the
    module's full basis (finite-dimensional case).

    Words are products of generator columns (see the module docstring); a
    sample {key: 1} reads its first column as it is.  Every vector is kept
    free of zeros, so the two sides agree exactly when they are equal
    dicts.  The witness of a failure is recomputed elementwise.
    """
    report = CheckReport("cyclic-relations", meta={"max-degree": N_max})
    get_samples = samples or module.samples
    numbers, keys = {}, []

    def number(key):
        """Keys are numbered in the order they are first reached."""
        j = numbers.get(key)
        if j is None:
            j = numbers[key] = len(keys)
            keys.append(key)
        return j

    def vector(t):
        """t on key numbers, zeros dropped."""
        out = {}
        for key, c in t.items():
            if c:
                j = numbers.get(key)
                out[number(key) if j is None else j] = c
        return out

    def tau_column(prev, j):
        """tau_n of key j through ``tau_image``, from prev, this suite's
        own columns of tau_(n-1) (None at n = 1)."""
        key = keys[j]
        prefix = () if prev is None else (
            (keys[i], v) for i, v in prev[number(key[:-1])].items())
        return vector(module.tau_image(key, prefix))

    # taus[n]: tau_n's columns, each read from taus[n - 1] and none from
    # columns, which holds them, so that no reference cycle keeps them
    taus = [None]
    if isinstance(module, HopfCyclicModule):
        for _ in range(N_max):
            taus.append(_Lazy(lambda j, prev=taus[-1]: tau_column(prev, j)))

    def generator_columns(gen):
        kind, _, n = gen
        if kind == "t" and 0 < n < len(taus):
            return taus[n]
        return _Lazy(lambda j: vector(
            apply_generator(module, gen, {keys[j]: 1})))

    def numbered_samples(m):
        out = []
        for t in get_samples(m):
            vec = vector(t)
            j = next(iter(vec), None)
            out.append((t, vec, j if vec == {j: 1} else None))
        return out

    columns = _Lazy(generator_columns)
    sampled = _Lazy(numbered_samples)

    def evaluate(word, vec, single):
        """word: the columns of its generators, rightmost first."""
        if word and single is not None:
            vec, word = word[0][single], word[1:]
        for cols in word:
            vec = combine(cols, vec)
        return vec

    def cases(items, n):
        for idx, lhs, rhs in items:
            left = [columns[gen] for gen in reversed(lhs)]
            right = [columns[gen] for gen in reversed(rhs)]
            for t, vec, single in sampled[word_source_degree(lhs, n)]:
                yield (idx, lhs, rhs, t, evaluate(left, vec, single),
                       evaluate(right, vec, single))

    def witness(case):
        idx, lhs, rhs, t, _, _ = case
        return (idx, sorted(t), sorted(apply_word(module, lhs, t).items()),
                sorted(apply_word(module, rhs, t).items()))

    for (rel, n), items in _relation_instances(N_max):
        report.add(f"{rel} n={n}", *first_failure(
            cases(items, n), lambda case: case[4] == case[5], witness))
    return report


def check_cyclic_power_formula(module, n, j, tensors):
    """tau_n^j, the recursion ``cyclic`` iterated j times, equals the
    closed form ``cyclic_power_formula``, at j = 1 too."""
    def agrees(t):
        lhs = t
        for _ in range(j):
            lhs = module.cyclic(n, lhs)
        return vec_eq(lhs, module.cyclic_power_formula(j, n, t))

    return first_failure(tensors, agrees, lambda t: (n, j, sorted(t)))
