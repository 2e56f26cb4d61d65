"""Shortlex string rewriting with Knuth-Bendix completion.

Backs finitely presented groups (triangle groups T(3,3,k), dihedral and
cyclic presentations, ...) with canonical normal forms.  The alphabet is the
generator letters plus their formal uppercase inverses; the reduction order
is shortlex with symbol precedence = declaration order.  Free-reduction and
inverse rules are seeded automatically, orientation ties cannot occur
(distinct words have distinct shortlex keys), and critical pairs are
processed FIFO so completion is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ContractError
from .groups import GroupOracle, _symbol_pairs

DEFAULT_MAX_RULES = 5000
DEFAULT_MAX_LHS_LEN = 20


def alphabet_for(generators: Iterable[str], inverse_letters: bool = True) -> tuple[str, ...]:
    out = []
    for g in generators:
        if len(g) != 1 or not g.isalpha() or not g.islower():
            raise ContractError(f"generators must be single lowercase letters, got {g!r}")
        if g in out:
            raise ContractError(f"duplicate generator {g!r}")
        out.append(g)
        if inverse_letters:
            out.append(g.upper())
    return tuple(out)


def parse_word(word: str, alphabet: tuple[str, ...]) -> str:
    for c in word:
        if c not in alphabet:
            raise ContractError(f"symbol {c!r} not in alphabet {''.join(alphabet)}")
    return word


def _shortlex_key(word: str, prec: dict[str, int]):
    return (len(word), tuple(prec[c] for c in word))


@dataclass(frozen=True)
class RewritingSystem:
    alphabet: tuple[str, ...]
    rules: tuple[tuple[str, str], ...]
    complete: bool
    status: str  # "complete" or "incomplete(<reason>)"
    generators: tuple[str, ...]
    relators: tuple[str, ...]
    # fast-reduction tables, derived from rules
    _rule_map: dict = field(repr=False, hash=False, compare=False)
    _lhs_lens: tuple[int, ...] = field(repr=False, hash=False, compare=False)

    @staticmethod
    def _build(alphabet, rules, complete, status, generators, relators):
        rule_map = dict(rules)
        lens = tuple(sorted({len(l) for l, _ in rules}, reverse=True))
        return RewritingSystem(alphabet, tuple(rules), complete, status,
                               tuple(generators), tuple(relators), rule_map, lens)

    def reduce(self, word: str, prefix: str = "") -> str:
        """Unique normal form of prefix + word when complete; some irreducible
        descendant else.

        Stack-based: symbols are shifted in one at a time and rule left sides
        are only ever matched against a suffix of the stack.  This is sound
        because the stack below the newest symbol is already irreducible.
        The stack starts as `prefix`, which must be irreducible: then no
        rule fires while its letters are shifted, so starting from it gives
        the same result as shifting it in, without the work.
        """
        rule_map = self._rule_map
        lens = self._lhs_lens
        out = prefix
        rest = list(reversed(word))
        while rest:
            out += rest.pop()
            for L in lens:
                if len(out) >= L:
                    rhs = rule_map.get(out[-L:])
                    if rhs is not None:
                        # pull the replacement symbols back through the stack
                        out = out[:-L]
                        rest.extend(reversed(rhs))
                        break
        return out


def _slow_reduce(word: str, rules: list[tuple[str, str]]) -> str:
    # used during completion while the rule list is still in flux
    changed = True
    while changed:
        changed = False
        for l, r in rules:
            i = word.find(l)
            if i >= 0:
                word = word[:i] + r + word[i + len(l):]
                changed = True
                break
    return word


def _overlaps(l1: str, r1: str, l2: str, r2: str) -> Iterator[tuple[str, str]]:
    """Critical pairs from overlapping l1 against l2 (l1's suffix = l2's prefix,
    and l2 occurring inside l1)."""
    for t in range(1, min(len(l1), len(l2))):
        if l1.endswith(l2[:t]):
            yield r1 + l2[t:], l1[: len(l1) - t] + r2
    if len(l2) <= len(l1):
        start = 0
        while True:
            i = l1.find(l2, start)
            if i < 0:
                break
            if not (i == 0 and len(l2) == len(l1)):  # skip identical-position self
                yield r1, l1[:i] + r2 + l1[i + len(l2):]
            start = i + 1


def knuth_bendix(generators: Iterable[str], relators: Iterable[str],
                 max_rules: int = DEFAULT_MAX_RULES,
                 max_len: int = DEFAULT_MAX_LHS_LEN,
                 inverse_letters: bool = True) -> RewritingSystem:
    """Complete a group presentation into a rewriting system.

    With inverse_letters (the default) the alphabet carries a formal
    uppercase inverse per generator and free-reduction rules are seeded.
    With inverse_letters=False the alphabet is the bare generator letters;
    every generator must then occur as a pure-power relator (torsion), which
    makes inverses positive words and keeps completions finite where the
    formal-inverse alphabet provably diverges (e.g. the (3,3,k) triangle
    presentations).

    Pending equations are processed smallest-first (shortlex of the pair);
    deterministic, and keeps rule growth tame where naive FIFO diverges.
    Budget exhaustion (too many rules, or a persistent equation whose
    oriented left side exceeds max_len) is a status, not an exception.
    """
    if max_rules <= 0 or max_len <= 0:
        raise ContractError("budgets must be positive")
    generators = tuple(generators)
    relators = tuple(relators)
    alphabet = alphabet_for(generators, inverse_letters)
    prec = {c: i for i, c in enumerate(alphabet)}
    if not inverse_letters:
        for g in generators:
            if not any(set(rel) == {g} for rel in relators):
                raise ContractError(
                    f"monoid alphabet needs a torsion relator for generator {g!r}"
                )

    rules: list[tuple[str, str]] = []
    pending: list[tuple[int, str, str]] = []
    seen: set[tuple[str, str]] = set()

    def push(u: str, v: str, force: bool = False):
        if u == v or (not force and (u, v) in seen):
            return
        seen.add((u, v))
        heapq.heappush(pending, (len(u) + len(v), u, v))

    if inverse_letters:
        for g in generators:
            push(g + g.upper(), "")
            push(g.upper() + g, "")
    for rel in relators:
        push(parse_word(rel, alphabet), "")

    status = "complete"
    deferred_overflow = False

    def orient(u: str, v: str) -> tuple[str, str] | None:
        ku, kv = _shortlex_key(u, prec), _shortlex_key(v, prec)
        if ku == kv:
            return None
        return (u, v) if ku > kv else (v, u)

    while pending:
        if len(rules) >= max_rules:
            status = "incomplete(rule budget exhausted)"
            break
        _, u, v = heapq.heappop(pending)
        u = _slow_reduce(u, rules)
        v = _slow_reduce(v, rules)
        oriented = orient(u, v)
        if oriented is None:
            continue
        l, r = oriented
        if len(l) > max_len:
            deferred_overflow = True
            continue
        # interreduce: rules whose lhs the new rule rewrites go back to pending
        kept = []
        for L, R in rules:
            if l in L:
                push(L, R, force=True)  # requeue removed rule as an equation
            elif l in R:
                kept.append((L, _slow_reduce(R, [(l, r)])))
            else:
                kept.append((L, R))
        rules = kept
        rules.append((l, r))
        for L, R in rules[:-1]:
            for pair in _overlaps(l, r, L, R):
                push(*pair)
            for pair in _overlaps(L, R, l, r):
                push(*pair)
        for pair in _overlaps(l, r, l, r):
            push(*pair)

    if status == "complete" and deferred_overflow:
        status = "incomplete(left-side length budget exhausted)"
    complete = status == "complete"
    return RewritingSystem._build(alphabet, rules, complete, status, generators, relators)


def confluence_check(system: RewritingSystem,
                     max_len: int | None = None) -> tuple[bool, list[tuple[str, str]]]:
    """Exhaustively overlap all rule pairs; True iff every critical pair
    joins AND the presentation's defining equations (free reduction and the
    relators) reduce to the empty word, so a True verdict really means the
    system decides the presented group's word problem."""
    unresolved = []
    rules = list(system.rules)
    for l1, r1 in rules:
        for l2, r2 in rules:
            for a, b in _overlaps(l1, r1, l2, r2):
                if max_len is not None and max(len(a), len(b)) > max_len:
                    continue
                if system.reduce(a) != system.reduce(b):
                    unresolved.append((a, b))
    for g in system.generators:
        up = g.upper()
        if up in system.alphabet:
            for w in (g + up, up + g):
                if system.reduce(w) != "":
                    unresolved.append((w, ""))
    for rel in system.relators:
        if system.reduce(rel) != "":
            unresolved.append((rel, ""))
    return (not unresolved), unresolved


def reduce_word(system: RewritingSystem, word: str) -> str:
    return system.reduce(parse_word(word, system.alphabet))


class RewritingGroup(GroupOracle):
    """Group oracle backed by a completed rewriting system.

    Normal forms are the shortlex-irreducible words.  Word lengths are still
    measured by BFS (normal-form length is not trusted as a geodesic length).
    The exposed generator symbols are always the lowercase letters with their
    uppercase inverse partners; in monoid mode (no inverse letters in the
    alphabet) an uppercase symbol acts as the positive word letter**(order-1).
    """

    def __init__(self, generators: Iterable[str], relators: Iterable[str],
                 name: str | None = None,
                 max_rules: int = DEFAULT_MAX_RULES,
                 max_len: int = DEFAULT_MAX_LHS_LEN,
                 inverse_letters: bool = True):
        system = knuth_bendix(generators, relators, max_rules, max_len,
                              inverse_letters=inverse_letters)
        if not system.complete:
            raise ContractError(
                f"presentation did not complete within budget: {system.status}"
            )
        self.system = system
        self.inverse_letters = inverse_letters
        self.name = name or "presented(" + ",".join(system.relators) + ")"
        self.generators = {}
        for c in _symbol_pairs(system.generators):
            word = c
            if c not in system.alphabet:
                word = c.lower() * (_letter_order(system, c.lower()) - 1)
            self.generators[c] = system.reduce(word)

    @property
    def identity(self) -> str:
        return ""

    def mul(self, g: str, h: str) -> str:
        """The normal form of g h.  g is a normal form (irreducible), so it
        is taken as the reduction stack as it stands, and only the letters
        of h are shifted through it."""
        return self.system.reduce(h, g)

    def inv(self, g: str) -> str:
        return self.system.reduce("".join(self.generators[c.swapcase()] for c in reversed(g)))


def _letter_order(system: RewritingSystem, letter: str) -> int:
    w = letter
    for n in range(1, 1000):
        if system.reduce(w) == "":
            return n
        w += letter
    raise ContractError(f"generator {letter!r} has no small torsion order")


def triangle_group(k: int, **kw) -> RewritingGroup:
    """T(3,3,k) = <x, y | x^3, y^3, (xy)^k>, completed over the bare
    monoid alphabet (the torsion relators make inverses positive words;
    the formal-inverse alphabet has no finite shortlex completion here)."""
    if k < 2:
        raise ContractError("k must be >= 2")
    return RewritingGroup("xy", ["xxx", "yyy", "xy" * k], name=f"t33{k}",
                          inverse_letters=False, **kw)
