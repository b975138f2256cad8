"""Independent, exhaustive ground truth at desk scale.

Partitions are enumerated one by one, so ``brute_sp_partitions`` can
cross-check the constructive lattice.  The candidate pair search certifies
that no small decomposition exists: it enumerates the first automaton of a
pair whole, fills in the second one's transition table an entry at a time,
and cuts a branch as soon as the joint run through the entries set so far
shows a conflict.  ``ai`` and ``wai`` search the minimal automaton, ``wai``
as ``si``; ``ai`` computes the first automaton's accepting set instead of
enumerating it; size and first-factor bounds skip what cannot hold the first
pair, the fan already at the prefix of the first automaton's table where it
fails; a kept one is searched from its rows and pair index, and becomes a
``Dfa`` only in the pair that is verified; and all candidates, every initial
state included, are walked only to name a pair that the canonical candidates
have shown to exist.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .automata import Dfa
from .decompositions import Decomposition, DecompositionKind, _as_kind, _require_reachable, verify
from .errors import BudgetError, InputError
from .partitions import Partition, _hopcroft, is_sp, minimize

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
    pairs within the effective caps; ``nodes_visited`` is the canonical
    search's own work, the partial second-automaton tables it set an entry
    of, in either mode, since a valid pair exists only if a canonical one
    does.  The exact reductions of ``certify_undecomposable`` skip work
    without changing the answer, so ``nodes_visited`` is the only field they
    change.
    """

    kind: DecompositionKind
    dfa_fingerprint: str
    budget: SearchBudget
    effective_max_1: int
    effective_max_2: int
    candidates_examined: int
    estimate: int
    nodes_visited: int


def _caps(dfa: Dfa, budget: SearchBudget) -> tuple[int, int]:
    """The budget's caps clamped below the automaton's state count, since only
    pairs of strictly smaller automata are of interest; 0 for one state."""
    return min(budget.max_states_1, dfa.n - 1), min(budget.max_states_2, dfa.n - 1)


def estimate_search_space(
    dfa: Dfa,
    budget: SearchBudget,
    kind: "DecompositionKind | str" = DecompositionKind.WAI,
) -> int:
    """Upper bound on the number of candidate pairs the search for ``dfa``
    may examine: the pair count within the clamped caps over all
    ``k**(s*k)`` transition tables of each size k, 0 if a cap clamps to 0."""
    s = len(dfa.alphabet)
    return _pair_count(
        *_caps(dfa, budget), budget.canonical_only, _as_kind(kind), lambda k: k ** (s * k)
    )


def _count_text(count: int) -> str:
    """``count`` in decimal, or, past Python's limit on the digits of an
    integer string conversion, the largest power of two it reaches."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2**{count.bit_length() - 1}"


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


def _table_walk(k: int, s: int, canonical_only: bool) -> Iterator[list[int]]:
    """Flat row-major transition tables of k states over s symbols, in
    ``itertools.product(range(k), repeat=k * s)`` order.  The yielded list
    is reused; copy it to keep it."""
    flat = [0] * (k * s)

    def extend(p: int, seen: int) -> Iterator[list[int]]:
        if p == len(flat):
            yield flat
            return
        for v in _choices(k, s, canonical_only, p, seen):
            flat[p] = v
            yield from extend(p + 1, max(seen, v + 1))

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
    """The second automata that pair with one kept first automaton a1, given
    as its table ``rows``, its ``initial`` state and, under ai, its forced
    accepting set F1*; ``least_l`` is the least second size it may pair with.

    ``first`` walks an l-state table of a2 an entry at a time, in
    ``_table_walk`` order, and follows the triples (a, a1, a2) reachable
    through the entries set so far.  ``a`` is A under ``si`` and the minimal
    automaton under ``ai`` and ``wai`` (which is ``si`` there).  The run
    fails at its first conflict: under ``si`` one pair (j, k) reaches two
    states of ``a``; under ``ai`` one k, paired with accepting j's, meets
    accepting and rejecting states of ``a``.  Under ``ai`` a1 accepts the
    forced set, which holds every j paired with an accepting state of ``a``,
    so no run fails before the first entry.  Setting an entry only adds
    triples, so a failed run stays failed below it, and the walk cuts the
    subtree there.  ``nodes`` counts the entries set, over every walk.

    Each level of the walk keeps its own state, one list of bit sets:
    ``reached[k]`` holds the pairs (i, j) reached with a2 state k.  A pair's
    bit is ``index[pair]``, its position among the (a, a1) pairs reachable by
    a common word in breadth-first visit order, since no run meets any other
    pair; the initial pair is bit 0.  Every conflict is two pairs at one k,
    so each pair's conflicts are one mask, ``clash[b]``: under ``si`` the
    pairs of its j with another i, under ``ai`` (for an accepting j) the
    pairs of accepting j's whose i differs on acceptance.  The tables are built at
    the first walk, so a first automaton that every l skips never pays for them.
    """

    def __init__(self, ai: bool, a: Dfa, rows, initial: int, accepting, least_l: int, index):
        self.ai, self.a, self.rows, self.initial = ai, a, rows, initial
        self.accepting, self.least_l, self.index = accepting, least_l, index
        self.nodes = 0

    @functools.cached_property
    def _tables(self) -> tuple[list[list[int]], list[int], int]:
        """``step[u][b]``, the pair that pair b moves to by symbol u;
        ``clash``; and the pairs of an accepting i and j, under ai."""
        a, rows, index, accepting = self.a, self.rows, self.index, self.accepting
        step = [
            [index[a.table[i][u], rows[j][u]] for i, j in index]
            for u in range(len(a.alphabet))
        ]
        if self.ai:
            # the pairs with an accepting j, by whether i is accepting
            by_final = [0, 0]
            for (i, j), b in index.items():
                if j in accepting:
                    by_final[i in a.accepting] |= 1 << b
            clash = [by_final[i not in a.accepting] if j in accepting else 0 for i, j in index]
            return step, clash, by_final[1]
        column = [0] * len(rows)
        for (_, j), b in index.items():
            column[j] |= 1 << b
        return step, [column[j] & ~(1 << b) for (_, j), b in index.items()], 0

    def first(self, l: int, root: int, canonical_only: bool):
        """``(rows, root, accepting)`` for the first l-state table whose run
        from initial state ``root`` has no conflict, None if none has.  Under
        ai ``accepting`` is the least accepting set the run allows: the k's
        that meet an accepting j and an accepting i; empty otherwise."""
        step, clash, accepted = self._tables
        s = len(step)
        flat = [0] * (l * s)

        def close(reached: list[int], work: list[tuple[int, int]], p: int) -> bool:
            """Add to ``reached`` the (pair, k) in ``work`` and all they reach by entries <= p."""
            while work:
                b, k = work.pop()
                here = reached[k]
                if here >> b & 1:
                    continue
                if here & clash[b]:
                    return False
                reached[k] = here | 1 << b
                base = k * s
                for u in range(min(s, p - base + 1)):
                    work.append((step[u][b], flat[base + u]))
            return True

        def extend(p: int, seen: int, reached: list[int]) -> list[int] | None:
            if p == len(flat):
                return reached
            k, u = divmod(p, s)
            moved = []  # the pairs that those reached with k move to by u
            x = reached[k]
            while x:
                low = x & -x
                moved.append(step[u][low.bit_length() - 1])
                x ^= low
            for v in _choices(l, s, canonical_only, p, seen):
                self.nodes += 1
                flat[p] = v
                child = reached[:]
                if close(child, [(b, v) for b in moved], p):
                    found = extend(p + 1, max(seen, v + 1), child)
                    if found is not None:
                        return found
            return None

        start = [0] * l
        start[root] = 1  # the initial pair
        reached = extend(0, 1, start)
        if reached is None:
            return None
        accepting = frozenset(k for k, here in enumerate(reached) if here & accepted)
        return _rows(flat, l, s), root, accepting


def _first_factors(
    ai: bool, m: Dfa, alphabet: tuple[str, ...], k: int, max_l: int, canonical_only: bool
) -> list[_PairSearch]:
    """The ``_PairSearch`` of each k-state first automaton, in the order of
    ``candidate_automata``, that neither the fan nor, under ai, the minimal
    first factor skips at every l up to ``max_l``.

    The first automaton's table is set an entry at a time over ``_choices``,
    as ``_PairSearch.first`` sets the second one's, once per initial state.
    ``reach[j]`` is the bit set of the states of M that words take to a1
    state j through the entries set so far.  Setting entry (j, u) to v
    moves the states at j by u into v, and the states new at v move on
    through the entries already set.  Setting an entry only adds states, so
    once an a1 state meets more than ``max_l`` states of M, its fan exceeds
    ``max_l`` in every completion of the prefix, and the walk cuts the
    subtree there.  A complete table is kept as its rows; its fan, the
    most states at one a1 state, is the least l it pairs with.  One
    breadth-first search over M's table and the rows gives the search's
    pair index: the (M, a1) pairs reachable by a common word, numbered in
    visit order.  Under ai the reached sets give F1*, and a1 with F1* is
    minimal iff its reachable states carry k distinct ``_hopcroft`` labels:
    unreachable states cannot change which reachable states are
    equivalent, so this is ``minimize``'s answer with or without them.
    """
    s = len(alphabet)
    flat = [0] * (k * s)
    into = [[1 << row[u] for row in m.table] for u in range(s)]
    final = sum(1 << i for i in m.accepting)
    kept: list[_PairSearch] = []

    def move(states: int, u: int) -> int:
        """The states of M that ``states`` move to by symbol u."""
        moved, step = 0, into[u]
        while states:
            low = states & -states
            moved |= step[low.bit_length() - 1]
            states ^= low
        return moved

    def close(reach: list[int], j: int, states: int, p: int) -> bool:
        """Add ``states`` at a1 state j to ``reach``, and all they reach by
        entries <= p; False once an a1 state meets more than max_l."""
        work = [(j, states)]
        while work:
            j, states = work.pop()
            here = reach[j]
            states &= ~here
            if states:
                here |= states
                if here.bit_count() > max_l:
                    return False
                reach[j] = here
                base = j * s
                for u in range(min(s, p - base + 1)):
                    work.append((flat[base + u], move(states, u)))
        return True

    def keep(reach: list[int], initial: int) -> None:
        rows = _rows(flat, k, s)
        accepting = ()
        if ai:
            accepting = {j for j, here in enumerate(reach) if here & final}  # F1*
            labels = _hopcroft(rows, accepting)
            if len({labels[j] for j, here in enumerate(reach) if here}) < k:
                return  # a1 with F1* is not minimal
        order = [(m.initial, initial)]
        index = {order[0]: 0}
        for i, j in order:  # ``order`` grows while this loop runs
            for pair in zip(m.table[i], rows[j]):
                if pair not in index:
                    index[pair] = len(order)
                    order.append(pair)
        fan = max(here.bit_count() for here in reach)
        kept.append(_PairSearch(ai, m, rows, initial, accepting, fan, index))

    def extend(p: int, seen: int, reach: list[int], initial: int) -> None:
        if p == len(flat):
            keep(reach, initial)
            return
        j, u = divmod(p, s)
        moved = move(reach[j], u)
        for v in _choices(k, s, canonical_only, p, seen):
            flat[p] = v
            child = reach
            if moved:
                child = reach[:]
                if not close(child, v, moved, p):
                    continue
            extend(p + 1, max(seen, v + 1), child, initial)

    if _table_count(k, s, canonical_only):
        for initial in range(1 if canonical_only else k):
            start = [0] * k
            start[initial] = 1 << m.initial
            extend(0, 1, start, initial)
    # tables in walk order, which is the rows' order, then initial states
    kept.sort(key=lambda search: (search.rows, search.initial))
    return kept


def _first_pair(
    kind: DecompositionKind, dfa: Dfa, m: Dfa, sizes: list[tuple[int, int]], canonical_only: bool
) -> tuple[Decomposition | None, int]:
    """The first verifying pair among the candidates the mode walks at
    ``sizes``, a list of (k, l) in lexicographic order, or None if there is
    none; and the entries set over the sizes searched through.

    ``_first_factors`` sets the first automaton's table an entry at a time,
    cuts it where the fan fails, and keeps a complete one as the rows and
    pair index of its ``_PairSearch``.  The second one's table is set an
    entry at a time, in the same order, while the search follows the
    triples reachable through the entries set so far, and a branch is cut
    at the kind's first conflict.  This finds exactly the
    enumerator's first pair: the triples reachable through a prefix are
    reachable in every completion of it, so a conflict of the prefix is a
    conflict of all of them, and the leaves are reached in table order.  At
    a complete table the triples are the pair's reachable ones, so a run
    without conflict verifies.  One search per initial state of the second
    automaton (state 0 under ``canonical_only``) stops at its first table,
    and the least (table, initial state) is the enumerator's first pair;
    only that pair's two automata are built as ``Dfa``s, to be verified.
    The fan and the minimal first factor of ``certify_undecomposable`` skip
    first automata.
    """
    ai = kind is DecompositionKind.AI
    nodes = 0
    for k, at_k in itertools.groupby(sizes, key=lambda size: size[0]):
        ls = [l for _, l in at_k]
        firsts = _first_factors(ai, m, dfa.alphabet, k, ls[-1], canonical_only)
        for l in ls:
            for search in firsts:
                if l < search.least_l:
                    continue
                roots = range(1 if canonical_only else l)
                finds = [f for f in (search.first(l, root, canonical_only) for root in roots) if f]
                if finds:
                    table, initial, accepting = min(finds)
                    a1 = _candidate(dfa.alphabet, search.rows, search.initial, search.accepting)
                    a2 = _candidate(dfa.alphabet, table, initial, accepting)
                    result = verify(kind, dfa, a1, a2)
                    if not result:
                        raise RuntimeError(f"search found a pair that verify refuses: {result}")
                    return result, nodes
        nodes += sum(search.nodes for search in firsts)
    return None, nodes


def certify_undecomposable(
    kind: "DecompositionKind | str", dfa: Dfa, budget: SearchBudget
) -> Decomposition | ExhaustionCertificate:
    """Search every candidate pair within the budget for a decomposition.

    Budget caps are clamped below the automaton's state count, since only
    pairs of strictly smaller automata are of interest.  Returns the first
    verifying pair in the enumeration order (sizes lexicographically, then
    table, initial state and accepting set in mask order), or a certificate
    that the whole space was examined.

    Both modes search the canonical candidates, and all candidates are
    walked only to name a find.  Trimming both factors of a valid pair to
    their reachable states and numbering each in breadth-first order keeps
    the pair valid, since ai reads only the factors' languages and si and
    wai only the reachable triples, and gives a canonical pair no larger in
    either size.  So the budget holds a valid pair iff it holds a canonical
    one, and its first pair has the first canonical pair's sizes (k*, l*):
    a valid pair at sizes before (k*, l*) would trim to a canonical pair at
    sizes no larger in either coordinate, so also before (k*, l*), and the
    canonical first pair is itself a candidate at (k*, l*).  Under
    ``canonical_only=False`` a find is named by a second search of all
    candidates at (k*, l*) alone, and a certificate's ``nodes_visited`` is
    the canonical search's.

    Six exact reductions keep that answer; they change only the
    certificate's ``nodes_visited``.  Two of them narrow what is searched:

    - ``wai`` is ``si`` on the minimal automaton M: words that reach one pair
      but two states of M are told apart by a suffix (Myhill-Nerode), which
      is a wai conflict, and L(M) = L(A).  ``ai`` searches M as well, since
      its conflicts, F1* and least accepting sets read only words and L(A).
    - Under ``ai`` every valid F1 contains F1*, the a1 states that words of
      L(A) reach, and F1* is valid whenever some F1 is, since L(A) lies in
      L(a1 with F1*) & L(a2), which lies in L(a1 with F1) & L(a2).  So F1* is
      the least valid F1 in mask order.

    The other four skip a size pair (k, l) or a first automaton at some l.
    Each skips only where no valid pair exists or where a valid pair implies
    one earlier in the enumeration, so the first valid pair is never skipped:

    - Symmetric sizes: ai, si and wai do not depend on the order of the
      factors, so a valid pair at (k, l) with l < k, swapped, is a valid
      pair at (l, k), which comes first when k is within the second cap.
    - Size product: the reachable pairs map onto every state of A under si
      and of M under wai, and under ai their product automaton recognizes
      L(A), so it has at least as many states as M.  So k * l is at least n
      (si) or the states of M (wai, ai).
    - Fan (ai, si, wai): if the words that take a1 to state j take A (M
      under wai and ai) to f states, each of those needs an a2 state of its
      own.  Under si and wai a pair (j, k) reaches one state.  Under ai two
      words that reach one pair (j, k) reach one state of the product, which
      recognizes L(M), so no suffix tells them apart and, by Myhill-Nerode,
      they reach one state of M: ai implies wai, which is si on M.  An a1
      is skipped at every l below its largest f.  Setting an entry of a1's
      table only adds reachable pairs, so a prefix of the table whose fan
      already exceeds the largest l skips every completion of it.
    - Minimal first factor (ai): if (a1 with F1*) minimizes to k' < k states,
      the minimal automaton, numbered as a candidate of size k', accepts the
      same language, so it is valid with every a2 that a1 is valid with, at
      (k', l).
    """
    kind = _as_kind(kind)
    if kind not in (DecompositionKind.AI, DecompositionKind.SI, DecompositionKind.WAI):
        raise InputError("undecomposability search supports the ai, si and wai kinds")
    _require_reachable(dfa, kind)
    eff1, eff2 = _caps(dfa, budget)
    s = len(dfa.alphabet)
    canonical = budget.canonical_only
    estimate = estimate_search_space(dfa, budget, kind)
    if estimate > FEASIBILITY_BOUND:
        raise BudgetError(
            f"estimated candidate count {_count_text(estimate)} exceeds the feasibility "
            f"bound {FEASIBILITY_BOUND}",
            estimate=estimate,
        )
    # M for wai and ai; si reads A's states, so it is not minimized
    m = dfa if kind is DecompositionKind.SI else minimize(dfa)[0]
    sizes = [
        (k, l)
        for k in range(1, eff1 + 1)
        for l in range(1, eff2 + 1)
        if not (l < k <= eff2 or k * l < m.n)  # symmetric sizes, size product
    ]
    found, nodes = _first_pair(kind, dfa, m, sizes, True)
    if found is not None and not canonical:
        found, _ = _first_pair(kind, dfa, m, [(found.a1.n, found.a2.n)], False)
    if found is not None:
        return found
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
