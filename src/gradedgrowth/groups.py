"""Group oracles with canonical normal forms, Cayley-ball BFS and dead ends.

Every group is presented through the same small interface: an identity
normal form, a generator table from symbols to elements (single characters;
uppercase is the formal inverse of the lowercase letter, involutions are
self-paired), the product `mul` and the inverse `inv`.  `mul` is the only
statement of each group law, and a step by a generator is `mul` by its
element: the free group cancels or appends the generator's letter, the
lamplighter toggles each of its lamps under the cursor, and a
rewriting-backed group shifts its normal form onto g's, which is already an
irreducible reduction stack.  Word lengths always come from BFS over the
generator elements in declaration order, so every group flows through one
deterministic code path; closed formulas appear only in tests.  A ball is
one table of word lengths, filled in BFS discovery order, which is its
enumeration.  Dead ends are read off the same BFS: each product g*s out of
the ball's interior is computed once, and `is_dead_end` stays as the
reference check for a single element.

Element representations are typed per family: integer vectors for free
abelian groups, integer triples for the discrete Heisenberg group,
(sorted lamp tuple, position) pairs for the lamplighter, reduced words for
free groups, small integers or tuples for finite built-ins (Q8 is a
Cayley table), and shortlex normal-form strings for rewriting-backed groups.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from . import budgets
from .errors import ContractError, OutOfRangeError, ResourceBudgetError

Element = Any  # per-oracle concrete type; always hashable and immutable


class GroupOracle(ABC):
    """Uniform interface: identity, generator table, products and inverses."""

    name: str = "group"
    generators: dict[str, Element]  # symbol -> element, in declaration order
    order: int | None = None  # None for infinite groups
    lower_central_ranks: tuple[int, ...] | None = None  # if each layer is free abelian

    @property
    @abstractmethod
    def identity(self) -> Element: ...

    @abstractmethod
    def mul(self, g: Element, h: Element) -> Element: ...

    @abstractmethod
    def inv(self, g: Element) -> Element: ...

    @property
    def generator_symbols(self) -> tuple[str, ...]:
        return tuple(self.generators)

    def multiply(self, g: Element, s: str) -> Element:
        """Right-multiply a normal form by one generator symbol: `mul` by
        its element."""
        try:
            h = self.generators[s]
        except KeyError:
            raise ContractError(f"unknown generator symbol {s!r} for {self.name}") from None
        return self.mul(g, h)

    def normalize(self, word: Iterable[str]) -> Element:
        g = self.identity
        for s in word:
            g = self.multiply(g, s)
        return g

    def elements(self) -> Iterator[Element]:
        raise ContractError(f"{self.name} has no finite enumeration")

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name}>"


def _symbol_pairs(letters: Iterable[str]) -> tuple[str, ...]:
    out = []
    for c in letters:
        out.append(c)
        out.append(c.upper())
    return tuple(out)


def _unit(d: int, i: int, value: int) -> tuple:
    """The vector of length d with `value` at position i and 0 elsewhere."""
    return tuple(value if j == i else 0 for j in range(d))


class FreeGroup(GroupOracle):
    """Free group of rank k; normal forms are freely reduced words."""

    def __init__(self, k: int):
        if not 1 <= k <= 26:
            raise ContractError("free rank must be between 1 and 26")
        self.k = k
        self.name = f"free{k}"
        self.generators = {s: s for s in _symbol_pairs("abcdefghijklmnopqrstuvwxyz"[:k])}

    @property
    def identity(self) -> str:
        return ""

    def mul(self, g: str, h: str) -> str:
        i = len(g)
        j = 0
        while i > 0 and j < len(h) and g[i - 1] == h[j].swapcase():
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inv(self, g: str) -> str:
        return g[::-1].swapcase()


class FreeAbelian(GroupOracle):
    """Z^d with generators +-e_i; normal forms are integer vectors."""

    def __init__(self, d: int):
        if not 1 <= d <= 26:
            raise ContractError("rank must be between 1 and 26")
        self.d = d
        self.lower_central_ranks = (d,)
        self.name = "z" if d == 1 else f"z{d}"
        self.generators = {}
        for i, c in enumerate("abcdefghijklmnopqrstuvwxyz"[:d]):
            self.generators[c] = _unit(d, i, 1)
            self.generators[c.upper()] = _unit(d, i, -1)

    @property
    def identity(self) -> tuple:
        return (0,) * self.d

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        return tuple(-a for a in g)


class Heisenberg(GroupOracle):
    """Discrete Heisenberg group; (a, b, c) * (a', b', c') = (a+a', b+b', c+c'+a*b')."""

    name = "heisenberg"
    lower_central_ranks = (2, 1)
    generators = {"x": (1, 0, 0), "X": (-1, 0, 0), "y": (0, 1, 0), "Y": (0, -1, 0)}

    @property
    def identity(self):
        return (0, 0, 0)

    def mul(self, g, h):
        a, b, c = g
        d, e, f = h
        return (a + d, b + e, c + f + a * e)

    def inv(self, g):
        a, b, c = g
        return (-a, -b, -c + a * b)


class Lamplighter(GroupOracle):
    """Z2 wr Z with generators {t, t^-1, a}; a flips the lamp at the cursor.

    Normal form: (sorted tuple of lit lamp positions, cursor position).
    """

    name = "lamplighter"
    generators = {"t": ((), 1), "T": ((), -1), "a": ((0,), 0)}

    @property
    def identity(self):
        return ((), 0)

    def mul(self, g, h):
        """Toggle each lamp of h, shifted by g's cursor; add the cursors.

        A zero shift or move keeps g's own cursor object: CPython caches no
        int below -5, and a new one in each such product is 1.3 MB more
        peak memory in the radius-19 ball."""
        lit, p = g
        lamps, q = h
        if lamps:  # skips the loop's set-up on a cursor move
            for x in lamps:
                lit = _toggle(lit, x + p if x else p)
        return (lit, p + q if q else p)

    def inv(self, g):
        lamps, p = g
        return (tuple(sorted(x - p for x in lamps)), -p)


def _toggle(lamps: tuple, pos: int) -> tuple:
    i = bisect_left(lamps, pos)
    if i < len(lamps) and lamps[i] == pos:
        return lamps[:i] + lamps[i + 1 :]
    return lamps[:i] + (pos,) + lamps[i:]


class Cyclic(GroupOracle):
    """Z/n; elements are residues 0..n-1, generator symbol s (S for inverse)."""

    def __init__(self, n: int):
        if n < 2:
            raise ContractError("cyclic order must be >= 2")
        self.n = n
        self.order = n
        self.name = f"c{n}"
        self.generators = {"s": 1} if n == 2 else {"s": 1, "S": n - 1}

    @property
    def identity(self):
        return 0

    def mul(self, g, h):
        return (g + h) % self.n

    def inv(self, g):
        return (-g) % self.n

    def elements(self):
        return iter(range(self.n))


class AbelianProduct(GroupOracle):
    """Direct product of cyclic groups; one generator per factor."""

    def __init__(self, orders: tuple[int, ...], name: str | None = None):
        if not 1 <= len(orders) <= 26 or any(n < 2 for n in orders):
            raise ContractError("need 1 to 26 factors, each of order >= 2")
        self.orders = tuple(orders)
        self.order = 1
        for n in orders:
            self.order *= n
        self.name = name or "x".join(f"c{n}" for n in orders)
        d = len(orders)
        self.generators = {}
        for i, (c, n) in enumerate(zip("abcdefghijklmnopqrstuvwxyz", orders)):
            self.generators[c] = _unit(d, i, 1)
            if n > 2:
                self.generators[c.upper()] = _unit(d, i, n - 1)

    @property
    def identity(self):
        return (0,) * len(self.orders)

    def mul(self, g, h):
        return tuple((a + b) % n for a, b, n in zip(g, h, self.orders))

    def inv(self, g):
        return tuple((-a) % n for a, n in zip(g, self.orders))

    def elements(self):
        return itertools.product(*(range(n) for n in self.orders))


class Dihedral(GroupOracle):
    """Dihedral group of order 2n; elements (i, f) meaning r^i s^f."""

    def __init__(self, n: int):
        if n < 2:
            raise ContractError("dihedral parameter must be >= 2")
        self.n = n
        self.order = 2 * n
        self.name = f"d{n}"
        self.generators = ({"r": (1, 0), "R": (n - 1, 0), "f": (0, 1)} if n > 2
                           else {"r": (1, 0), "f": (0, 1)})

    @property
    def identity(self):
        return (0, 0)

    def mul(self, g, h):
        i, fl = g
        j, fm = h
        return ((i + (j if fl == 0 else -j)) % self.n, fl ^ fm)

    def inv(self, g):
        i, fl = g
        return ((-i) % self.n if fl == 0 else i, fl)

    def elements(self):
        return ((i, f) for f in (0, 1) for i in range(self.n))


class HeisenbergMod(GroupOracle):
    """Heisenberg group over Z/m (order m^3)."""

    def __init__(self, m: int):
        if m < 2:
            raise ContractError("modulus must be >= 2")
        self.m = m
        self.order = m**3
        self.name = f"heisenberg_mod_{m}"
        self.generators = {"x": (1, 0, 0), "X": (m - 1, 0, 0),
                           "y": (0, 1, 0), "Y": (0, m - 1, 0)}

    @property
    def identity(self):
        return (0, 0, 0)

    def mul(self, g, h):
        a, b, c = g
        d, e, f = h
        m = self.m
        return ((a + d) % m, (b + e) % m, (c + f + a * e) % m)

    def inv(self, g):
        a, b, c = g
        m = self.m
        return ((-a) % m, (-b) % m, (-c + a * b) % m)

    def elements(self):
        m = self.m
        return itertools.product(range(m), range(m), range(m))


class ZdMod(AbelianProduct):
    """(Z/m)^d, the finite quotient of Z^d by (mZ)^d."""

    def __init__(self, d: int, m: int):
        if d < 1 or m < 2:
            raise ContractError("need d >= 1 and m >= 2")
        super().__init__((m,) * d, name=f"z{d}_mod_{m}")
        self.d = d
        self.m = m


class CayleyTable(GroupOracle):
    """Finite group given by an explicit multiplication table on 0..n-1."""

    def __init__(self, table: list[list[int]], generators: dict[str, int],
                 name: str = "cayley", identity: int = 0):
        self.table = [tuple(row) for row in table]
        n = len(table)
        if any(len(row) != n for row in table):
            raise ContractError("multiplication table must be square")
        self.order = n
        self.name = name
        self._identity = identity
        self.generators = dict(generators)
        indices = [x for row in self.table for x in row] + list(self.generators.values())
        if not all(type(x) is int and 0 <= x < n for x in indices + [identity]):
            raise ContractError("table entries, generators and identity must be row indices")
        self._inverse = [None] * n
        for g in range(n):
            for h in range(n):
                if self.table[g][h] == identity and self.table[h][g] == identity:
                    self._inverse[g] = h
        if any(v is None for v in self._inverse):
            raise ContractError("table has a non-invertible row: not a group")

    @property
    def identity(self):
        return self._identity

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self._inverse[g]

    def elements(self):
        return iter(range(self.order))


def quaternion8() -> CayleyTable:
    """Q8 = {+-1, +-i, +-j, +-k} as a Cayley table: element 2u + s is
    (-1)**s times the unit u of 1, i, j, k, multiplied by ij = k, jk = i,
    ki = j and i^2 = j^2 = k^2 = -1."""
    cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}  # ij = k, jk = i, ki = j

    def product(g: int, h: int) -> int:
        u, v, sign = g // 2, h // 2, (g ^ h) % 2
        if not u * v:
            return 2 * (u + v) + sign
        if u == v:
            return 1 - sign
        if (u, v) in cyclic:
            return 2 * cyclic[u, v] + sign
        return 2 * cyclic[v, u] + 1 - sign  # ji = -k, kj = -i, ik = -j

    table = [[product(g, h) for h in range(8)] for g in range(8)]
    return CayleyTable(table, {"i": 2, "I": 3, "j": 4, "J": 5}, name="q8")


# ---------------------------------------------------------------------------
# word-metric balls


@dataclass(frozen=True)
class WordMetricBall:
    """Exact word lengths on a ball, one table in BFS discovery order.

    `dead_ends` holds the elements of length <= radius - 1 with no longer
    neighbour, in enumeration order, as the BFS found them.
    """

    oracle: GroupOracle
    radius: int
    lengths: dict = field(repr=False)
    dead_ends: tuple = field(repr=False)

    @property
    def elements(self) -> list:
        """Enumeration order: spheres concatenated, each in BFS discovery order."""
        return list(self.lengths)

    @property
    def by_sphere(self) -> list[list]:
        """The elements of each length 0..radius, in enumeration order."""
        spheres = [[] for _ in range(self.radius + 1)]
        for g, n in self.lengths.items():
            spheres[n].append(g)
        return spheres

    def __contains__(self, g) -> bool:
        return g in self.lengths

    def __len__(self) -> int:
        return len(self.lengths)

    def word_length(self, g) -> int:
        try:
            return self.lengths[g]
        except KeyError:
            raise OutOfRangeError(
                f"element outside the radius-{self.radius} ball of {self.oracle.name}"
            ) from None

    def sphere_sizes(self) -> list[int]:
        return [len(s) for s in self.by_sphere]

    def excess(self, g, h, gh) -> int:
        """len(g) + len(h) - len(gh), the power of lambda in the twisted
        product d_g * d_h."""
        e = self.word_length(g) + self.word_length(h) - self.word_length(gh)
        if e < 0:
            raise ContractError("length function violated the triangle inequality")
        return e


def ball(oracle: GroupOracle, radius: int) -> WordMetricBall:
    """BFS ball of the word metric; generator order fixes the enumeration.

    Round r expands each element g of length r - 1 once; g is a dead end
    when none of its products g*s, s a generator element, is new or already
    has length r.
    """
    if radius < 0:
        raise ContractError("radius must be >= 0")
    cap = budgets.ball_cap()
    e = oracle.identity
    lengths = {e: 0}
    dead_ends = []
    frontier = [e]
    gens = tuple(oracle.generators.values())
    mul = oracle.mul
    length_of = lengths.get
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            dead = True
            for s in gens:
                gs = mul(g, s)
                n = length_of(gs)
                if n is None:
                    lengths[gs] = r
                    nxt.append(gs)
                    dead = False
                    if len(lengths) > cap:
                        raise ResourceBudgetError(
                            f"ball of {oracle.name} exceeded cap of {cap} elements"
                        )
                elif n == r:
                    dead = False
            if dead:
                dead_ends.append(g)
        if not nxt:
            break
        frontier = nxt
    return WordMetricBall(oracle, radius, lengths, tuple(dead_ends))


def is_dead_end(oracle: GroupOracle, b: WordMetricBall, g) -> bool:
    """True iff no generator moves g further from the identity."""
    n = b.word_length(g)
    if b.radius < n + 1:
        raise OutOfRangeError("ball radius must exceed the element's length")
    for s in oracle.generators.values():
        if b.word_length(oracle.mul(g, s)) > n:
            return False
    return True


def find_dead_ends(oracle: GroupOracle, radius: int) -> list:
    """All dead ends of length <= radius-1, in (length, enumeration) order."""
    if radius < 1:
        raise ContractError("radius must be >= 1")
    return list(ball(oracle, radius).dead_ends)


# ---------------------------------------------------------------------------
# the dead-end family in the (3,3,k) triangle groups


def _invert_word(w: str) -> str:
    return w[::-1].swapcase()


def _word_power(w: str, e: int) -> str:
    if e >= 0:
        return w * e
    return _invert_word(w) * (-e)


def triangle_dead_end_family(k: int, n: int) -> str:
    """The n-th member of the standard dead-end family in T(3,3,k).

    Even k: index 2m gives ((xy)^{k/2} (yx)^{k/2})^m and index 2m+1 appends
    one more (xy)^{k/2} block.  Odd k: index n gives ((xy)^{(k-1)/2} x)^n.
    Negative indices are the formal inverses along the same axis.
    """
    if k < 3:
        raise ContractError("triangle parameter k must be >= 3")
    if n == 0:
        raise ContractError("index n must be nonzero")
    if k % 2 == 0:
        half = "xy" * (k // 2)
        block = half + "yx" * (k // 2)
        m, rem = divmod(n, 2)
        if rem == 0:
            return _word_power(block, m)
        return _word_power(block, m) + half
    return _word_power("xy" * ((k - 1) // 2) + "x", n)
