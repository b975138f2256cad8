"""Complete deterministic finite automata and their fundamental algorithms.

States and symbols are opaque string tokens at the API surface; internally
every automaton is stored as a dense transition table indexed by position so
that searches over many small automata stay cheap.

``_triple_bfs`` is the package's product search for languages: equivalence,
reachable configurations, the oracle and the language checks of ``verify``
run A, A1 and A2 in parallel through it.  It keeps no BFS parents: a
reported word comes from a second search.  ``_pair_states`` is the search
for the state kinds: it walks the (A1, A2) pairs, seen in one dict per A1
state, and keeps one state of A per pair, plus the others that meet it.
This bottom layer imports nothing above it: ``minimize`` is in ``partitions``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InputError

# A StateMap sends every (reachable) state of one DFA to a state of another.
StateMap = dict[str, str]

Word = str | Iterable[str]


@dataclass(frozen=True)
class Dfa:
    """A complete DFA: total transition table, one initial state, accepting set.

    ``table[i][a]`` is the index of the successor of state ``i`` under the
    ``a``-th alphabet symbol.  The table must be total; partial automata are
    rejected rather than silently completed with a sink, because state counts
    are the complexity measure everything else in this package reports.
    """

    name: str
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self):
        n, s = len(self.states), len(self.alphabet)
        if n == 0:
            raise InputError("automaton needs at least one state")
        if len(set(self.states)) != n:
            raise InputError("state names are not pairwise distinct")
        if len(set(self.alphabet)) != s:
            raise InputError("alphabet symbols are not pairwise distinct")
        if len(self.table) != n or any(len(row) != s for row in self.table):
            raise InputError("transition table shape does not match states and alphabet")
        for row in self.table:
            for target in row:
                if not 0 <= target < n:
                    raise InputError(f"transition target index {target} out of range")
        if not 0 <= self.initial < n:
            raise InputError("initial state is not a state of the automaton")
        if not all(0 <= i < n for i in self.accepting):
            raise InputError("accepting set is not a subset of the states")

    @classmethod
    def build(
        cls,
        name: str,
        states: Iterable[str],
        alphabet: Iterable[str],
        delta: Mapping[tuple[str, str], str],
        initial: str,
        accepting: Iterable[str],
    ) -> "Dfa":
        """Construct from named components, checking totality of ``delta``."""
        states = tuple(states)
        alphabet = tuple(alphabet)
        sidx = {q: i for i, q in enumerate(states)}
        aidx = {a: i for i, a in enumerate(alphabet)}
        if len(sidx) != len(states):
            raise InputError("state names are not pairwise distinct")
        if len(aidx) != len(alphabet):
            raise InputError("alphabet symbols are not pairwise distinct")
        rows = [[-1] * len(alphabet) for _ in states]
        for (q, a), target in delta.items():
            if q not in sidx:
                raise InputError(f"transition from unknown state {q!r}")
            if a not in aidx:
                raise InputError(f"transition on unknown symbol {a!r}")
            if target not in sidx:
                raise InputError(f"transition to unknown state {target!r}")
            rows[sidx[q]][aidx[a]] = sidx[target]
        for q in states:
            for a in alphabet:
                if rows[sidx[q]][aidx[a]] == -1:
                    raise InputError(f"missing transition for ({q!r}, {a!r})")
        if initial not in sidx:
            raise InputError(f"initial state {initial!r} is not a state")
        acc = set()
        for q in accepting:
            if q not in sidx:
                raise InputError(f"accepting state {q!r} is not a state")
            acc.add(sidx[q])
        return cls(
            name=name,
            states=states,
            alphabet=alphabet,
            table=tuple(tuple(row) for row in rows),
            initial=sidx[initial],
            accepting=frozenset(acc),
        )

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def initial_state(self) -> str:
        return self.states[self.initial]

    @functools.cached_property
    def _state_index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @functools.cached_property
    def _symbol_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    def state_index(self, q: str) -> int:
        try:
            return self._state_index[q]
        except KeyError:
            raise InputError(f"unknown state {q!r}") from None

    def symbol_index(self, a: str) -> int:
        try:
            return self._symbol_index[a]
        except KeyError:
            raise InputError(f"symbol {a!r} is not in the alphabet") from None

    def fingerprint(self) -> str:
        """Stable identity of the transition structure (name excluded), kept."""
        return self._fingerprint

    @functools.cached_property
    def _fingerprint(self) -> str:
        payload = (self.states, self.alphabet, self.table, self.initial, sorted(self.accepting))
        return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def run(dfa: Dfa, word: Word) -> str:
    """State reached from the initial state after reading ``word``."""
    i = dfa.initial
    for a in map(dfa.symbol_index, word):
        i = dfa.table[i][a]
    return dfa.states[i]


def accepts(dfa: Dfa, word: Word) -> bool:
    return dfa.state_index(run(dfa, word)) in dfa.accepting


def reachable_indexes(dfa: Dfa) -> list[int]:
    """Indexes of states reachable from the initial state, in BFS order."""
    seen = [False] * dfa.n
    seen[dfa.initial] = True
    order = [dfa.initial]
    for i in order:  # ``order`` grows while this loop runs
        for j in dfa.table[i]:
            if not seen[j]:
                seen[j] = True
                order.append(j)
    return order


def trim(dfa: Dfa) -> Dfa:
    """Restriction to the reachable states, original state order preserved."""
    keep = sorted(reachable_indexes(dfa))
    if len(keep) == dfa.n:
        return dfa
    remap = {old: new for new, old in enumerate(keep)}
    return Dfa(
        name=dfa.name,
        states=tuple(dfa.states[i] for i in keep),
        alphabet=dfa.alphabet,
        table=tuple(tuple(remap[dfa.table[i][a]] for a in range(len(dfa.alphabet))) for i in keep),
        initial=remap[dfa.initial],
        accepting=frozenset(remap[i] for i in dfa.accepting if i in remap),
    )


def _require_same_alphabet(a: Dfa, b: Dfa) -> list[int]:
    """Column remap of b onto a's alphabet order; error on a set mismatch."""
    if set(a.alphabet) != set(b.alphabet):
        raise InputError(
            f"alphabet mismatch: {sorted(a.alphabet)} vs {sorted(b.alphabet)}"
        )
    return [b.symbol_index(sym) for sym in a.alphabet]


def _distinct_names(names: tuple[str, ...]) -> tuple[str, ...]:
    """``names`` in order, each one already taken prefixed with ``_`` until
    it is free; returned as given when none collide."""
    if len(set(names)) == len(names):
        return names
    taken: dict[str, None] = {}  # insertion-ordered
    for q in names:
        while q in taken:
            q = "_" + q
        taken[q] = None
    return tuple(taken)


def parallel_connection(a1: Dfa, a2: Dfa, name: str | None = None) -> Dfa:
    """Product automaton accepting the intersection of the two languages.

    The state set is the full Cartesian product, pair (p, q) named ``p.q``
    and made distinct by :func:`_distinct_names`; accepting pairs are those
    accepting on both sides.
    """
    cols2 = _require_same_alphabet(a1, a2)
    syms = range(len(a1.alphabet))
    n2 = a2.n
    states = _distinct_names(tuple(f"{p}.{q}" for p in a1.states for q in a2.states))
    table = tuple(
        tuple(a1.table[i][a] * n2 + a2.table[j][cols2[a]] for a in syms)
        for i in range(a1.n)
        for j in range(n2)
    )
    accepting = frozenset(i * n2 + j for i in a1.accepting for j in a2.accepting)
    return Dfa(
        name=name if name is not None else f"{a1.name}_x_{a2.name}",
        states=states,
        alphabet=a1.alphabet,
        table=table,
        initial=a1.initial * n2 + a2.initial,
        accepting=accepting,
    )


def _columns(a: Dfa, a1: Dfa, a2: Dfa) -> list[tuple[tuple[int, ...], ...]]:
    """One (A, A1, A2) successor column per symbol of A: the tables transposed."""
    cols1 = _require_same_alphabet(a, a1)
    cols2 = _require_same_alphabet(a, a2)
    t1, t2 = list(zip(*a1.table)), list(zip(*a2.table))
    return list(zip(zip(*a.table), (t1[c] for c in cols1), (t2[c] for c in cols2)))


def _triple_bfs(a: Dfa, a1: Dfa, a2: Dfa):
    """Joint configurations reachable by a common word, in BFS visit order,
    and ``word_to(triple)``, the word on which the BFS first reaches it.
    Only a seen set is kept: ``word_to`` searches again with parents and
    stops at the triple, so only callers that report a word pay for them."""
    columns = _columns(a, a1, a2)
    start = (a.initial, a1.initial, a2.initial)
    seen = {start}
    order = [start]
    for i, j, k in order:  # ``order`` grows while this loop runs
        for ca, c1, c2 in columns:
            nxt = (ca[i], c1[j], c2[k])
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)

    def word_to(triple: tuple[int, int, int]) -> tuple[str, ...]:
        parents, visit = {start: None}, [start]
        for cur in visit:
            if triple in parents:
                break
            i, j, k = cur
            for s, (ca, c1, c2) in enumerate(columns):
                nxt = (ca[i], c1[j], c2[k])
                if nxt not in parents:
                    parents[nxt] = (cur, s)
                    visit.append(nxt)
        word: list[str] = []
        while parents[triple] is not None:
            triple, s = parents[triple]
            word.append(a.alphabet[s])
        return tuple(reversed(word))

    return order, word_to


def _pair_states(a: Dfa, a1: Dfa, a2: Dfa):
    """The (A1, A2) pairs reachable by a common word, in BFS order, as the
    parallel lists ``js``, ``ks`` and ``firsts`` (A's state on the pair's
    shortlex-least word: taking symbols in A's order, the BFS reaches each
    pair where ``_triple_bfs`` first meets it), and ``more[(j, k)]``, every
    state of A met by a pair that meets two or more.  The seen set is one dict
    per A1 state keyed by A2 state, ``seen[j][k]`` the first state: memory
    O(n1 + |pairs|), no int made per pair.  On the benchmark's 882000 padded
    pairs: 0.36-0.49 s, 64 MB traced (one dict keyed ``j * n2 + k``: 0.46-0.62
    s, 91 MB).  Rejected there: a dense n1 x n2 list (0.37-0.41 s, but n1 * n2
    slots whatever is reachable, 800 MB at 10^4 states), a BFS by levels with
    ``map`` (0.70-0.88 s) and successor tuples zipped per pair (0.57-0.63 s)."""
    columns = _columns(a, a1, a2)
    seen: list[dict[int, int]] = [{} for _ in range(a1.n)]
    seen[a1.initial][a2.initial] = a.initial
    js, ks, firsts = [a1.initial], [a2.initial], [a.initial]
    more: dict[tuple[int, int], set[int]] = {}
    extra = []  # configurations (state, j, k) off the first states, to close over

    def meet(i: int, j: int, k: int) -> None:
        states = more.get((j, k))
        if states is None:
            if i != seen[j][k]:
                more[j, k] = {seen[j][k], i}
                extra.append((i, j, k))
        elif i not in states:
            states.add(i)
            extra.append((i, j, k))

    for j, k, i in zip(js, ks, firsts):  # the three lists grow while this loop runs
        for ca, c1, c2 in columns:
            row, k2 = seen[c1[j]], c2[k]
            f = row.get(k2)
            if f is None:
                row[k2] = ca[i]
                js.append(c1[j])
                ks.append(k2)
                firsts.append(ca[i])
            elif f != ca[i]:
                meet(ca[i], c1[j], k2)
    for i, j, k in extra:  # ``extra`` grows while this loop runs
        for ca, c1, c2 in columns:
            meet(ca[i], c1[j], c2[k])
    return js, ks, firsts, more


def difference_witness(a: Dfa, b: Dfa) -> tuple[str, ...] | None:
    """Shortest-first word accepted by exactly one of the two, or None."""
    # The third run repeats the second, so the visit order is that of the
    # pair product and the first differing triple ends a shortest word.
    order, word_to = _triple_bfs(a, b, b)
    for triple in order:
        i, j, _ = triple
        if (i in a.accepting) != (j in b.accepting):
            return word_to(triple)
    return None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """True iff the two automata accept the same language."""
    return difference_witness(a, b) is None


def reachable_triples(a: Dfa, a1: Dfa, a2: Dfa) -> frozenset[tuple[str, str, str]]:
    """All (state, state, state) configurations jointly reached by some word."""
    order, _ = _triple_bfs(a, a1, a2)
    return frozenset((a.states[i], a1.states[j], a2.states[k]) for i, j, k in order)


def canonical_form(dfa: Dfa, sort_alphabet: bool = False) -> Dfa:
    """Reachable part renumbered by BFS from the initial state.

    Two automata have equal canonical tables, initial, and accepting sets iff
    their reachable parts are isomorphic (over the same alphabet order).
    """
    alphabet = tuple(sorted(dfa.alphabet)) if sort_alphabet else dfa.alphabet
    cols = [dfa.symbol_index(a) for a in alphabet]
    order: list[int] = [dfa.initial]
    number = {dfa.initial: 0}
    for i in order:  # ``order`` grows while this loop runs
        for c in cols:
            j = dfa.table[i][c]
            if j not in number:
                number[j] = len(number)
                order.append(j)
    table = tuple(tuple(number[dfa.table[i][c]] for c in cols) for i in order)
    return Dfa(
        name=dfa.name,
        states=tuple(f"s{k}" for k in range(len(order))),
        alphabet=alphabet,
        table=table,
        initial=0,
        accepting=frozenset(number[i] for i in dfa.accepting if i in number),
    )


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """True iff the reachable parts are isomorphic (state names ignored)."""
    if set(a.alphabet) != set(b.alphabet):
        return False
    ca = canonical_form(a, sort_alphabet=True)
    cb = canonical_form(b, sort_alphabet=True)
    return (ca.table, ca.initial, ca.accepting) == (cb.table, cb.initial, cb.accepting)
