"""Independent, exhaustive ground truth at desk scale.

Partitions are enumerated one by one, so ``brute_sp_partitions`` can
cross-check the constructive lattice.  The candidate pair search certifies
that no small decomposition exists: it enumerates the first automaton of a
pair whole, fills in the second one's transition table an entry at a time,
and cuts a branch as soon as the joint run through the entries set so far
shows a conflict.  ``wai`` runs as ``si`` on the minimal automaton, and
``ai`` computes the first automaton's accepting set instead of enumerating it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .automata import Dfa, _triple_bfs
from .decompositions import Decomposition, DecompositionKind, _as_kind, _require_reachable, verify
from .errors import BudgetError, InputError
from .partitions import Partition, is_sp, minimize

# Direct partition enumeration is capped by the Bell numbers; B(9) = 21147.
_BRUTE_STATE_LIMIT = 9

# Refuse candidate searches whose estimated size exceeds this bound.
FEASIBILITY_BOUND = 10**8


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0, .., n-1}, by restricted-growth labelings."""
    if n == 0:
        yield Partition(())
        return
    labels = [0] * n

    def extend(i: int, used: int) -> Iterator[Partition]:
        if i == n:
            yield Partition.from_assignment(labels)
            return
        for lab in range(used + 1):
            labels[i] = lab
            yield from extend(i + 1, max(used, lab + 1))

    yield from extend(1, 1)


def brute_sp_partitions(dfa: Dfa) -> frozenset[Partition]:
    """All substitution-property partitions, by filtering every partition."""
    if dfa.n > _BRUTE_STATE_LIMIT:
        raise InputError(
            f"brute-force partition enumeration is capped at {_BRUTE_STATE_LIMIT} states"
        )
    return frozenset(pi for pi in all_partitions(dfa.n) if is_sp(dfa, pi))


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the candidate pair search.

    With ``canonical_only`` the search enumerates one representative per
    isomorphism class: reachable candidates whose states are numbered in
    breadth-first discovery order from the initial state.
    """

    max_states_1: int
    max_states_2: int
    canonical_only: bool = True

    def __post_init__(self):
        if self.max_states_1 < 1 or self.max_states_2 < 1:
            raise InputError("budget caps must be at least 1")


@dataclass(frozen=True)
class ExhaustionCertificate:
    """Proof of work: every candidate pair within the budget was refused.

    ``candidates_examined`` is the size of the space covered, the candidate
    pairs within the effective caps; ``nodes_visited`` is the search's own
    work, the partial second-automaton tables it set an entry of, summed
    over one search per initial state the second automaton may take.
    """

    kind: DecompositionKind
    dfa_fingerprint: str
    budget: SearchBudget
    effective_max_1: int
    effective_max_2: int
    candidates_examined: int
    estimate: int
    nodes_visited: int


def estimate_search_space(
    alphabet_size: int,
    budget: SearchBudget,
    kind: "DecompositionKind | str" = DecompositionKind.WAI,
) -> int:
    """Upper bound on the number of candidate pairs the budget allows: the
    pair count over all ``k**(s*k)`` transition tables of each size k."""
    return _pair_count(
        budget.max_states_1,
        budget.max_states_2,
        budget.canonical_only,
        _as_kind(kind),
        lambda k: k ** (alphabet_size * k),
    )


def _pair_count(m1: int, m2: int, canonical_only: bool, kind: DecompositionKind, tables) -> int:
    """Candidate pairs of up to m1 and m2 states.  Per side and size k this
    counts ``tables(k)`` transition tables, times k initial states (dropped
    under ``canonical_only``, which pins the initial state), times ``2**k``
    accepting sets for the ``ai`` kind only; a cap of 0 counts nothing."""

    def side(m: int) -> int:
        return sum(
            tables(k)
            * (1 if canonical_only else k)
            * (2**k if kind is DecompositionKind.AI else 1)
            for k in range(1, m + 1)
        )

    return side(m1) * side(m2)


@functools.lru_cache(maxsize=None)
def _choices(k: int, s: int, canonical_only: bool, p: int, seen: int) -> tuple[int, ...]:
    """Values entry ``p`` of a flat k-state table may take such that the
    table can still be completed; ``seen`` is the number of states the
    prefix names, counting state 0.

    Under ``canonical_only`` the breadth-first search from state 0 must
    discover the states in index order: row ``p // s`` is filled only once
    its state is seen, an entry names a seen state or the next one, and
    every state is seen in the end.  A prefix of length q naming t states
    can be completed, each further entry naming the next state, iff t == k
    when q == k*s and q // s < t before that.
    """
    if not canonical_only:
        return tuple(range(k))
    need = k if p + 1 == k * s else (p + 1) // s + 1
    return tuple(v for v in range(min(seen + 1, k)) if max(seen, v + 1) >= need)


@functools.lru_cache(maxsize=None)
def _table_count(k: int, s: int, canonical_only: bool, p: int = 0, seen: int = 1) -> int:
    """Number of tables ``_table_walk`` yields below a prefix of length p."""
    if p == k * s:
        return int(not canonical_only or seen == k)
    return sum(
        _table_count(k, s, canonical_only, p + 1, max(seen, v + 1))
        for v in _choices(k, s, canonical_only, p, seen)
    )


def _table_walk(
    k: int, s: int, canonical_only: bool, search: "_PairSearch | None" = None
) -> Iterator[list[int]]:
    """Flat row-major transition tables of k states over s symbols, in
    ``itertools.product(range(k), repeat=k * s)`` order.

    A ``search``, if given, hears of each entry as it is set (``assign``
    returning False cuts the subtree below it), and every ``assign`` is
    followed by one ``retract``.  The yielded list is reused; copy it to keep it.
    """
    flat = [0] * (k * s)

    def extend(p: int, seen: int) -> Iterator[list[int]]:
        if p == len(flat):
            yield flat
            return
        for v in _choices(k, s, canonical_only, p, seen):
            flat[p] = v
            if search is None or search.assign(p, v):
                yield from extend(p + 1, max(seen, v + 1))
            if search is not None:
                search.retract()

    return extend(0, 1) if _table_count(k, s, canonical_only) else iter(())


def _rows(flat: list[int], k: int, s: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(flat[i * s : (i + 1) * s]) for i in range(k))


def _candidate(alphabet: tuple[str, ...], table, initial: int, accepting) -> Dfa:
    k = len(table)
    return Dfa(
        name=f"cand{k}",
        states=tuple(f"s{i}" for i in range(k)),
        alphabet=alphabet,
        table=table,
        initial=initial,
        accepting=frozenset(accepting),
    )


def candidate_automata(
    k: int, alphabet: tuple[str, ...], canonical_only: bool = True
) -> Iterator[Dfa]:
    """All k-state candidates over ``alphabet`` with empty accepting sets,
    in deterministic order: table, then initial state."""
    for flat in _table_walk(k, len(alphabet), canonical_only):
        table = _rows(flat, k, len(alphabet))
        for initial in (0,) if canonical_only else range(k):
            yield _candidate(alphabet, table, initial, ())


class _PairSearch:
    """Triples (A, a1, a2) reachable through the a2 entries set so far.

    ``a1`` is whole; ``a2`` has l states and starts at ``root``.  The run
    fails at its first conflict: under ``si`` one pair (j, k) reaches two
    states of A; under ``ai`` one k, paired with accepting j's, meets
    accepting and rejecting states of A.  ``wai`` is ``si`` on the minimal
    automaton, and under ``ai`` a1 accepts the forced set, which holds every
    j paired with an accepting state of A, so no run fails before the first
    entry.  Setting an entry only adds triples, so a failed run stays failed
    below it.  ``assign`` pushes a copy of the top state closed over the new
    entry, False at a conflict; ``retract`` pops it.
    """

    def __init__(self, ai: bool, a: Dfa, a1: Dfa, l: int, root: int):
        self.ai = ai
        self.rows = a.table
        self.rows1 = a1.table
        self.final = [i in a.accepting for i in range(a.n)]
        self.final1 = [j in a1.accepting for j in range(a1.n)]
        self.s = len(a.alphabet)
        self.flat = [0] * (l * self.s)
        self.nodes = 0
        # conflict key -> first value, (i, j) pairs reached per a2 state k
        self.states = [({}, [set() for _ in range(l)])]
        self._close(self.states[0], [(a.initial, a1.initial, root)], -1)

    def assign(self, p: int, v: int) -> bool:
        self.nodes += 1
        self.flat[p] = v
        label, reached = self.states[-1]
        state = (dict(label), [set(x) for x in reached])
        self.states.append(state)
        k, u = divmod(p, self.s)
        rows, rows1 = self.rows, self.rows1
        return self._close(state, [(rows[i][u], rows1[j][u], v) for i, j in reached[k]], p)

    def retract(self) -> None:
        self.states.pop()

    def _close(self, state, work: list[tuple[int, int, int]], p: int) -> bool:
        """Add to ``state`` the triples in ``work`` and all they reach by entries <= p."""
        rows, rows1, flat, s = self.rows, self.rows1, self.flat, self.s
        final, final1, ai = self.final, self.final1, self.ai
        label, reached = state
        while work:
            i, j, k = work.pop()
            if (i, j) in reached[k]:
                continue
            if not ai:
                key, value = (j, k), i
            elif final1[j]:
                key, value = k, final[i]
            else:
                key = None
            if key is not None and label.setdefault(key, value) != value:
                return False
            reached[k].add((i, j))
            base = k * s
            for u in range(min(s, p - base + 1)):
                work.append((rows[i][u], rows1[j][u], flat[base + u]))
        return True

    def solution(self) -> frozenset[int]:
        """For ai, the least accepting set the run allows: the k's that meet
        an accepting j and an accepting i; empty otherwise."""
        label = self.states[-1][0]
        return frozenset(k for k, value in label.items() if value) if self.ai else frozenset()


def _forced_accepting(a: Dfa, a1: Dfa) -> Dfa:
    """``a1`` accepting F1*, the states that words of L(a) reach."""
    order, _ = _triple_bfs(a, a1, a1)
    accepting = {j for i, j, _ in order if i in a.accepting}
    return _candidate(a.alphabet, a1.table, a1.initial, accepting)


def certify_undecomposable(
    kind: "DecompositionKind | str", dfa: Dfa, budget: SearchBudget
) -> Decomposition | ExhaustionCertificate:
    """Search every candidate pair within the budget for a decomposition.

    Budget caps are clamped below the automaton's state count, since only
    pairs of strictly smaller automata are of interest.  Returns the first
    verifying pair in the enumeration order (sizes lexicographically, then
    table, initial state and accepting set in mask order), or a certificate
    that the whole space was examined.

    The first automaton is enumerated whole.  The second one's table is set
    an entry at a time, in the same order, while ``_PairSearch`` follows the
    triples reachable through the entries set so far, and a branch is cut at
    the kind's first conflict.  This finds exactly the enumerator's first
    pair: the triples reachable through a prefix are reachable in every
    completion of it, so a conflict of the prefix is a conflict of all of
    them, and the leaves are reached in table order.  At a complete table
    the triples are the pair's reachable ones, so a run without conflict
    verifies.  One search per initial state of the second automaton (state
    0 under ``canonical_only``) stops at its first table, and the least
    (table, initial state) is the enumerator's first pair.

    Two exact reductions keep that answer.  ``wai`` is ``si`` on the minimal
    automaton M: words that reach one pair but two states of M are told
    apart by a suffix (Myhill-Nerode), which is a wai conflict, and L(M) =
    L(A).  Under ``ai`` every valid F1 contains F1*, the a1 states that words
    of L(A) reach, and F1* is valid whenever some F1 is, since L(A) lies in
    L(a1 with F1*) & L(a2), which lies in L(a1 with F1) & L(a2).  So F1* is
    the least valid F1 in mask order.
    """
    kind = _as_kind(kind)
    if kind not in (DecompositionKind.AI, DecompositionKind.SI, DecompositionKind.WAI):
        raise InputError("undecomposability search supports the ai, si and wai kinds")
    _require_reachable(dfa, kind)
    eff1 = min(budget.max_states_1, dfa.n - 1)
    eff2 = min(budget.max_states_2, dfa.n - 1)
    s = len(dfa.alphabet)
    canonical = budget.canonical_only
    estimate = _pair_count(eff1, eff2, canonical, kind, lambda k: k ** (s * k))
    if estimate > FEASIBILITY_BOUND:
        raise BudgetError(
            f"estimated candidate count {estimate} exceeds the feasibility "
            f"bound {FEASIBILITY_BOUND}",
            estimate=estimate,
        )
    ai = kind is DecompositionKind.AI
    target = minimize(dfa)[0] if kind is DecompositionKind.WAI else dfa
    nodes = 0
    for k in range(1, eff1 + 1):
        firsts = [
            _forced_accepting(dfa, a1) if ai else a1
            for a1 in candidate_automata(k, dfa.alphabet, canonical)
        ]
        for l in range(1, eff2 + 1):
            for a1 in firsts:
                finds = []
                for root in range(1 if canonical else l):
                    search = _PairSearch(ai, target, a1, l, root)
                    flat = next(_table_walk(l, s, canonical, search), None)
                    nodes += search.nodes
                    if flat is not None:
                        finds.append((_rows(flat, l, s), root, search.solution()))
                if finds:
                    table, initial, accepting = min(finds)
                    a2 = _candidate(dfa.alphabet, table, initial, accepting)
                    result = verify(kind, dfa, a1, a2)
                    if not result:
                        raise RuntimeError(f"search found a pair that verify refuses: {result}")
                    return result

    return ExhaustionCertificate(
        kind=kind,
        dfa_fingerprint=dfa.fingerprint(),
        budget=budget,
        effective_max_1=eff1,
        effective_max_2=eff2,
        candidates_examined=_pair_count(
            eff1, eff2, canonical, kind, lambda k: _table_count(k, s, canonical)
        ),
        estimate=estimate,
        nodes_visited=nodes,
    )
