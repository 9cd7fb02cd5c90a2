"""Normal forms for morphisms of the cyclic category.

A morphism between objects of sizes n and m is a nondecreasing staircase
map f: Z -> Z with f(x + n) = f(x) + m, taken modulo the translation
action; the representative with 0 <= f(0) < m is the unique normal form,
so the word problem reduces to comparing value lists.
"""

from __future__ import annotations

from .relations import _relation_instances, apply_word, word_source_degree
from .reports import CheckReport, first_failure

MAX_WORD_LENGTH = 6


class LambdaMorphism:
    """Staircase normal form: sizes plus the values f(0), ..., f(n-1)."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source, target, values):
        if source < 1 or target < 1:
            raise ValueError("object sizes must be >= 1")
        values = list(values)
        if len(values) != source:
            raise ValueError("need one value per source period point")
        for a, b in zip(values, values[1:]):
            if b < a:
                raise ValueError("staircase values must be nondecreasing")
        if values[-1] > values[0] + target:
            raise ValueError("staircase exceeds one period")
        shift = (values[0] % target) - values[0]
        self.source = source
        self.target = target
        self.values = tuple(v + shift for v in values)

    def __call__(self, x):
        q, r = divmod(x, self.source)
        return self.values[r] + q * self.target

    def __eq__(self, other):
        return (isinstance(other, LambdaMorphism)
                and self.source == other.source and self.target == other.target
                and self.values == other.values)

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __repr__(self):
        return f"LambdaMorphism({self.source}->{self.target}, {list(self.values)})"

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError(
                f"cannot compose {self.source}->{self.target} after "
                f"{other.source}->{other.target}")
        return LambdaMorphism(other.source, self.target,
                              [self(other(x)) for x in range(other.source)])

    def is_simplicial(self):
        """True when the normal form restricts to a monotone map of finite
        ordinals (all principal values inside one period)."""
        return self.values[-1] < self.target


def identity_morphism(size):
    return LambdaMorphism(size, size, range(size))


def face_morphism(n, i):
    """The injection [n-1] -> [n] missing i, as sizes n -> n+1."""
    if not 0 <= i <= n:
        raise ValueError("face index out of range")
    return LambdaMorphism(n, n + 1, [x if x < i else x + 1 for x in range(n)])


def degeneracy_morphism(n, j):
    """The surjection [n+1] -> [n] collapsing j and j+1, sizes n+2 -> n+1."""
    if not 0 <= j <= n:
        raise ValueError("degeneracy index out of range")
    return LambdaMorphism(n + 2, n + 1,
                          [x if x <= j else x - 1 for x in range(n + 2)])


def cyclic_morphism(n):
    """The cyclic generator on [n], sizes n+1 -> n+1 (x -> x - 1)."""
    return LambdaMorphism(n + 1, n + 1, [x - 1 for x in range(n + 1)])


def generator_morphism(gen):
    kind, i, n = gen
    if kind == "d":
        return face_morphism(n, i)
    if kind == "s":
        return degeneracy_morphism(n, i)
    if kind == "t":
        return cyclic_morphism(n)
    raise ValueError(f"unknown generator {gen!r}")


def compose_word(word, source_degree):
    """Normal form of a generator word (rightmost generator acts first) that
    acts on ``source_degree``, which names the identity when it is empty."""
    if not word:
        return identity_morphism(source_degree + 1)
    out = generator_morphism(word[-1])
    for gen in reversed(word[:-1]):
        out = generator_morphism(gen).compose(out)
    return out


def decompose(f):
    """Canonical word for a morphism: faces, then degeneracies, then a
    cyclic power (rightmost first).  Raises ValueError when the word does
    not compose back to f."""
    n = f.source
    tau, rest = cyclic_morphism(n - 1), f  # rest = f after tau^k
    for k in range(n):
        if rest.is_simplicial():
            word = _decompose_simplicial(rest) + [("t", 0, n - 1)] * ((n - k) % n)
            break
        rest = rest.compose(tau)
    else:
        raise ValueError(f"no cyclic factorization found for {f!r}")
    if compose_word(word, source_degree=n - 1) != f:
        raise ValueError(f"decomposition {word!r} does not recompose {f!r}")
    return word


def _decompose_simplicial(f):
    """Epi-mono word for a monotone map of finite ordinals."""
    n, m = f.source, f.target
    values = list(f.values)
    word = []
    # surjection part: collapse duplicated positions, largest index first
    dups = [j for j in range(n - 1) if values[j] == values[j + 1]]
    image = set(values)
    mid = len(image)  # size of the intermediate object
    for rank, j in enumerate(dups):
        # after removing earlier duplicates, position shifts down by rank
        word.append(("s", j - rank, n - 2 - rank))
    word.reverse()
    # injection part: insert the missing values, smallest first; the face
    # sizes climb from the intermediate object up to the target
    missing = [v for v in range(m) if v not in image]
    inj = []
    size = mid
    for v in missing:
        inj.append(("d", v, size))
        size += 1
    inj.reverse()
    return inj + word


def morphism_relation_suite(N_max):
    """Check the simplicial and cyclic relations directly in normal forms."""
    report = CheckReport("lambda-normal-form-relations",
                         meta={"max-degree": N_max})

    def normal_forms(n, idx, lhs, rhs):
        src = word_source_degree(lhs, n)
        return (idx, compose_word(lhs, source_degree=src),
                compose_word(rhs, source_degree=src))

    for (rel, n), items in _relation_instances(N_max):
        report.add(f"{rel} n={n}", *first_failure(
            (normal_forms(n, *item) for item in items),
            lambda case: case[1] == case[2],
            lambda case: (case[0], case[1].values, case[2].values)))
    return report


def random_word(rng, max_degree, degree=None):
    """A random composable generator word of 1 to MAX_WORD_LENGTH generators
    staying within max_degree.  Returns (source_degree, word); pass
    ``degree`` to pin the source."""
    if degree is None:
        degree = rng.randrange(0, max_degree + 1)
    word = []
    current = degree
    for _ in range(rng.randrange(1, MAX_WORD_LENGTH + 1)):
        choices = []
        if current + 1 <= max_degree:
            choices.append("d")
        if current >= 1:
            choices.append("s")
        choices.append("t")
        kind = rng.choice(choices)
        if kind == "d":
            n = current + 1
            word.insert(0, ("d", rng.randrange(0, n + 1), n))
            current = n
        elif kind == "s":
            n = current - 1
            word.insert(0, ("s", rng.randrange(0, n + 1), n))
            current = n
        else:
            word.insert(0, ("t", 0, current))
    return degree, word


def check_functoriality(module, rng, max_degree, words_per_degree=200):
    """Equal normal forms must give equal operators on the module.

    Every random word's operator is compared against the operator of the
    canonical decomposition of its normal form; words whose normal forms
    collide are thereby compared with each other too.
    """
    def cases():
        for start in range(max_degree + 1):
            for _ in range(words_per_degree):
                degree, word = random_word(rng, max_degree, degree=start)
                canon = decompose(compose_word(word, source_degree=degree))
                for t in module.samples(degree):
                    yield word, canon, t

    def agree(case):
        word, canon, t = case
        return apply_word(module, word, t) == apply_word(module, canon, t)

    ok, witness = first_failure(
        cases(), agree, lambda case: (case[0], case[1], sorted(case[2])))
    if not ok:
        return False, witness
    return True, (max_degree + 1) * words_per_degree
