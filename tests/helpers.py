"""Independent brute-force helpers for the test suite.

These deliberately avoid the package's own algorithms: partitions are plain
frozensets of frozensets, language checks enumerate words, and state
distinguishability walks the transition monoid.  Where a test compares the
implementation against "the oracle", the oracle lives here.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque

from hypothesis import strategies as st

from dfadecomp import (
    BudgetError,
    Decomposition,
    DecompositionKind,
    Dfa,
    ExhaustionCertificate,
    InputError,
    ParseError,
    Partition,
    SearchBudget,
    SpLattice,
    accepts,
    estimate_search_space,
    leq,
    meet,
    minimize,
    separates_finals,
    verify,
)
from dfadecomp.automata import _require_same_alphabet, _triple_bfs, reachable_indexes, trim
from dfadecomp.decompositions import Refusal, _as_kind, _require_reachable
from dfadecomp.oracle import FEASIBILITY_BOUND, _candidate, candidate_automata
from dfadecomp.partitions import quotient
from dfadecomp.textio import _token_lines

Block = frozenset[int]
FsPartition = frozenset[Block]


@st.composite
def dfas(draw, alphabet="ab"):
    """Automata of 1-5 states over ``alphabet`` ({a, b} unless given),
    unreachable states allowed."""
    n = draw(st.integers(1, 5))
    table = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in alphabet) for _ in range(n)
    )
    acc = frozenset(i for i in range(n) if draw(st.booleans()))
    initial = draw(st.integers(0, n - 1))
    return Dfa("h", tuple(f"q{i}" for i in range(n)), tuple(alphabet), table, initial, acc)


def length_counter(p: int, accepting, name: str, alphabet=("a", "b")) -> Dfa:
    """Counter of word length modulo p, accepting the given residues."""
    return Dfa(name, tuple(f"c{i}" for i in range(p)), tuple(alphabet),
               tuple(((i + 1) % p,) * len(alphabet) for i in range(p)), 0, frozenset(accepting))


PLUS_NAMED_DOC = """dfa ab
alphabet y z
states a b a+b
initial a
accepting a+b
trans a y b
trans a z a+b
trans b y b
trans b z a+b
trans a+b y a+b
trans a+b z a
end
"""
"""A document whose states a and b merge into a block that quotient names
``a+b``, beside a state already named ``a+b``."""


def words_up_to(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def language(dfa: Dfa, max_len: int) -> frozenset[tuple[str, ...]]:
    return frozenset(w for w in words_up_to(dfa.alphabet, max_len) if accepts(dfa, w))


def agree_up_to(a: Dfa, b: Dfa, max_len: int) -> bool:
    """Whether a and b agree on every word of length at most max_len, walked
    length by length over the state pairs those words reach."""
    layer = {(a.initial, b.initial)}
    for _ in range(max_len + 1):
        if any((i in a.accepting) != (j in b.accepting) for i, j in layer):
            return False
        layer = {
            (a.table[i][a.symbol_index(sym)], b.table[j][b.symbol_index(sym)])
            for i, j in layer
            for sym in a.alphabet
        }
    return True


def fs(pi: Partition) -> FsPartition:
    return frozenset(frozenset(b) for b in pi.blocks)


def fs_meet(x: FsPartition, y: FsPartition) -> FsPartition:
    return frozenset(b1 & b2 for b1 in x for b2 in y if b1 & b2)


def fs_join(x: FsPartition, y: FsPartition) -> FsPartition:
    blocks = [set(b) for b in x | y]
    merged = True
    while merged:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] & blocks[j]:
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    merged = True
                    break
            if merged:
                break
    out = set()
    for b in blocks:
        out.add(frozenset(b))
    return frozenset(out)


def joins_by_closure(n: int, irreducibles) -> dict[FsPartition, set[FsPartition]]:
    """The join closure of ``irreducibles`` from the partition of ``n``
    singletons, joining every element with every irreducible: each element
    -> its joins with them that are strictly coarser than it."""
    generators = [fs(pi) for pi in irreducibles]
    above: dict[FsPartition, set[FsPartition]] = {}
    pending = [frozenset(frozenset({i}) for i in range(n))]
    while pending:
        x = pending.pop()
        if x not in above:
            above[x] = {fs_join(x, j) for j in generators} - {x}
            pending.extend(above[x])
    return above


def fs_refines(x: FsPartition, y: FsPartition) -> bool:
    return all(any(bx <= by for by in y) for bx in x)


def fs_is_sp(dfa: Dfa, x: FsPartition) -> bool:
    """Substitution property straight from its pairwise definition."""
    def block_of(i: int) -> Block:
        for b in x:
            if i in b:
                return b
        raise AssertionError("not a partition of the state set")

    for p in range(dfa.n):
        for q in range(dfa.n):
            if block_of(p) != block_of(q):
                continue
            for a in range(len(dfa.alphabet)):
                if block_of(dfa.table[p][a]) != block_of(dfa.table[q][a]):
                    return False
    return True


def all_fs_partitions(n: int):
    """Every partition of range(n), grown element by element."""
    parts: list[list[list[int]]] = [[]]
    for element in range(n):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append([b + [element] if j == i else b for j, b in enumerate(p)])
            grown.append(p + [[element]])
        parts = grown
    for p in parts:
        yield frozenset(frozenset(b) for b in p)


def distinguishable_pairs(dfa: Dfa) -> set[frozenset[int]]:
    """State pairs told apart by some word, via the transition monoid."""
    identity = tuple(range(dfa.n))
    seen = {identity}
    queue = deque([identity])
    separated: set[frozenset[int]] = set()
    while queue:
        image = queue.popleft()
        bits = tuple(1 if i in dfa.accepting else 0 for i in image)
        for p in range(dfa.n):
            for q in range(p + 1, dfa.n):
                if bits[p] != bits[q]:
                    separated.add(frozenset((p, q)))
        for a in range(len(dfa.alphabet)):
            nxt = tuple(dfa.table[i][a] for i in image)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return separated


def is_minimal(dfa: Dfa) -> bool:
    """Reachability plus pairwise distinguishability, independently checked."""
    reached = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        i = queue.popleft()
        for j in dfa.table[i]:
            if j not in reached:
                reached.add(j)
                queue.append(j)
    if len(reached) != dfa.n:
        return False
    separated = distinguishable_pairs(dfa)
    return all(
        frozenset((p, q)) in separated
        for p in range(dfa.n)
        for q in range(p + 1, dfa.n)
    )


def identity(n: int) -> Dfa:
    """n states that one letter fixes: every partition is S.P. (Bell(n) of them)."""
    states = tuple(f"s{i}" for i in range(n))
    return Dfa(f"id{n}", states, ("a",), tuple((i,) for i in range(n)), 0, frozenset({0}))


def hub(n: int) -> Dfa:
    """States 0..n-1, initial and accepting 0.  Symbol e_j (j >= 1) sends 0 to
    j and every other state to 0; c_p (p >= 3) sends p to 2 and every other
    state to 1.  Every state is reachable.  Its lattice is the bottom, the top
    and the Bell(n-2) partitions that keep 0 alone and merge 1 with 2; it has
    no sb or asb entry."""
    symbols = tuple(f"e{j}" for j in range(1, n)) + tuple(f"c{p}" for p in range(3, n))
    table = tuple(
        tuple(j if i == 0 else 0 for j in range(1, n))
        + tuple(2 if i == p else 1 for p in range(3, n))
        for i in range(n)
    )
    return Dfa(f"hub{n}", tuple(f"s{i}" for i in range(n)), symbols, table, 0, frozenset({0}))


def reset(n: int) -> Dfa:
    """n states and n symbols; c_j sends every state to j.  Every partition is
    S.P. (Bell(n) of them), and the atom of a pair merges that pair alone."""
    states = tuple(f"s{i}" for i in range(n))
    symbols = tuple(f"c{j}" for j in range(n))
    return Dfa(f"reset{n}", states, symbols, (tuple(range(n)),) * n, 0, frozenset({0}))


def one_state(alphabet=("a", "b"), accepting=True) -> Dfa:
    return Dfa(
        name="one",
        states=("s",),
        alphabet=tuple(alphabet),
        table=(tuple(0 for _ in alphabet),),
        initial=0,
        accepting=frozenset({0} if accepting else ()),
    )


def exhaustive_separation_exists(x: FsPartition, y: FsPartition, finals: frozenset[int]) -> bool:
    """Plain double subset search over the block families."""
    xs = sorted(x, key=sorted)
    ys = sorted(y, key=sorted)
    for r in range(len(xs) + 1):
        for picks1 in itertools.combinations(xs, r):
            u1 = set().union(*picks1) if picks1 else set()
            for s in range(len(ys) + 1):
                for picks2 in itertools.combinations(ys, s):
                    u2 = set().union(*picks2) if picks2 else set()
                    if u1 & u2 == finals:
                        return True
    return False


def scan_condition(kind: DecompositionKind, a: Dfa):
    """The emission conditions on Partition objects, through the public
    lattice operations rather than the label vectors the library reads."""
    bottom = Partition.singletons(a.n)
    finals = frozenset(a.accepting)
    acc = Partition(b for b in (sorted(finals), sorted(set(range(a.n)) - finals)) if b)
    return {
        DecompositionKind.SB: lambda x, y: meet(x, y) == bottom,
        DecompositionKind.ASB: lambda x, y: meet(x, y) == bottom
        and separates_finals(x, y, finals) is not None,
        DecompositionKind.AI: lambda x, y: separates_finals(x, y, finals) is not None,
        DecompositionKind.WAI: lambda x, y: leq(meet(x, y), acc),
    }[kind]


def redundant_by_scan(a: Dfa, d: Decomposition, lattice: SpLattice) -> bool:
    """Redundancy by scanning every coarser pair of lattice elements: O(|L|^2)
    ``leq`` calls per decomposition."""
    p1, p2 = d.source_partitions
    condition = scan_condition(d.kind, a)
    coarser1 = [x for x in lattice.elements if leq(p1, x)]
    coarser2 = [y for y in lattice.elements if leq(p2, y)]
    return any(
        condition(x, y) for x in coarser1 for y in coarser2 if (x, y) != (p1, p2)
    )


def distributive_by_triples(lattice: SpLattice) -> bool:
    """Meet distributes over join across all O(|L|^3) element triples, with
    the frozenset meet and join memoized per pair."""
    elements = [fs(pi) for pi in lattice.elements]
    meet_, join_ = functools.cache(fs_meet), functools.cache(fs_join)
    return all(
        meet_(x, join_(y, z)) == join_(meet_(x, y), meet_(x, z))
        for x in elements
        for y in elements
        for z in elements
    )


def is_bfs_canonical(flat: tuple[int, ...], k: int, s: int) -> bool:
    """True iff BFS from state 0 discovers states exactly in index order."""
    seen = [False] * k
    seen[0] = True
    next_id = 1
    for i in range(k):
        if not seen[i]:
            return False
        base = i * s
        for a in range(s):
            j = flat[base + a]
            if not seen[j]:
                if j != next_id:
                    return False
                seen[j] = True
                next_id += 1
    return next_id == k


def candidates_by_product(
    k: int, alphabet: tuple[str, ...], canonical_only: bool, accepting_subsets: bool
):
    """Every k-state candidate: all ``itertools.product`` tables, filtered
    after the fact, then initial state, then accepting set."""
    s = len(alphabet)
    states = tuple(f"s{i}" for i in range(k))
    acc_masks = range(1 << k) if accepting_subsets else (0,)
    for flat in itertools.product(range(k), repeat=k * s):
        if canonical_only and not is_bfs_canonical(flat, k, s):
            continue
        table = tuple(tuple(flat[i * s : (i + 1) * s]) for i in range(k))
        for initial in (0,) if canonical_only else range(k):
            for mask in acc_masks:
                yield Dfa(
                    name=f"cand{k}",
                    states=states,
                    alphabet=alphabet,
                    table=table,
                    initial=initial,
                    accepting=frozenset(i for i in range(k) if mask >> i & 1),
                )


def certify_by_enumeration(kind, dfa: Dfa, budget: SearchBudget):
    """The candidate pair search by brute force: one full ``verify`` per
    pair, in enumeration order.  Returns the first verifying pair, or a
    certificate whose ``nodes_visited`` is the number of pairs verified."""
    kind = DecompositionKind(kind)
    if kind not in (DecompositionKind.AI, DecompositionKind.SI, DecompositionKind.WAI):
        raise InputError("undecomposability search supports the ai, si and wai kinds")
    if kind is not DecompositionKind.AI and len(reachable_indexes(dfa)) != dfa.n:
        raise InputError(f"{kind.value} certification requires a trimmed automaton")
    eff1 = min(budget.max_states_1, dfa.n - 1)
    eff2 = min(budget.max_states_2, dfa.n - 1)
    estimate = estimate_search_space(dfa, budget, kind)
    if estimate > FEASIBILITY_BOUND:
        raise BudgetError("estimate exceeds the feasibility bound", estimate=estimate)
    by_size = {
        k: list(
            candidates_by_product(
                k, dfa.alphabet, budget.canonical_only, kind is DecompositionKind.AI
            )
        )
        for k in range(1, max(eff1, eff2) + 1)
    }
    examined = 0
    for k in range(1, eff1 + 1):
        for l in range(1, eff2 + 1):
            for a1 in by_size[k]:
                for a2 in by_size[l]:
                    examined += 1
                    result = verify(kind, dfa, a1, a2)
                    if result:
                        return result
    return ExhaustionCertificate(
        kind=kind,
        dfa_fingerprint=dfa.fingerprint(),
        budget=budget,
        effective_max_1=max(eff1, 0),
        effective_max_2=max(eff2, 0),
        candidates_examined=examined,
        estimate=estimate,
        nodes_visited=examined,
    )


def first_factors_by_route(
    ai: bool, m: Dfa, alphabet: tuple[str, ...], k: int, max_l: int, canonical_only: bool
):
    """``oracle._first_factors`` as its earlier route: a ``Dfa`` per
    candidate, ``_triple_bfs(m, a1, a1)``, the fan from a ``Counter``, the
    least l under every kind, and, under ai, ``minimize`` of a1 with its
    forced accepting set F1*."""
    kept = []
    for a1 in candidate_automata(k, alphabet, canonical_only):
        order, _ = _triple_bfs(m, a1, a1)
        if ai:
            forced = {j for i, j, _ in order if i in m.accepting}
            a1 = _candidate(alphabet, a1.table, a1.initial, forced)
            if minimize(a1)[0].n < k:
                continue
        least_l = max(Counter(j for _, j, _ in order).values())
        if least_l <= max_l:
            kept.append((least_l, a1, [(i, j) for i, j, _ in order]))
    return kept


def triple_bfs_with_parents(a: Dfa, a1: Dfa, a2: Dfa):
    """The product search with a BFS parent recorded for every triple: the
    visit order, and each triple's (first parent, symbol index) or None."""
    cols1 = _require_same_alphabet(a, a1)
    cols2 = _require_same_alphabet(a, a2)
    syms = range(len(a.alphabet))
    start = (a.initial, a1.initial, a2.initial)
    parents = {start: None}
    order = [start]
    for cur in order:
        i, j, k = cur
        for s in syms:
            nxt = (a.table[i][s], a1.table[j][cols1[s]], a2.table[k][cols2[s]])
            if nxt not in parents:
                parents[nxt] = (cur, s)
                order.append(nxt)
    return order, parents


def word_by_parents(parents, triple, alphabet) -> tuple[str, ...]:
    """The word spelled by the parent chain from the start to ``triple``."""
    word: list[str] = []
    cursor = triple
    while parents[cursor] is not None:
        cursor, s = parents[cursor]
        word.append(alphabet[s])
    return tuple(reversed(word))


def verify_by_pair_sets(kind, a: Dfa, a1: Dfa, a2: Dfa):
    """``verify`` by collecting, for every reachable pair, the set of states
    it reaches, then scanning those sets for a clash and for injectivity."""
    kind = _as_kind(kind)
    _require_reachable(a, kind)
    order, parents = triple_bfs_with_parents(a, a1, a2)

    if kind in (DecompositionKind.AI, DecompositionKind.ASB):
        for triple in order:
            i, j, k = triple
            if (i in a.accepting) != (j in a1.accepting and k in a2.accepting):
                word = word_by_parents(parents, triple, a.alphabet)
                return Refusal(
                    f"languages differ on word {''.join(word) or '(empty)'!r}", word
                )
        if kind is DecompositionKind.AI:
            return Decomposition(kind, a1, a2, None)

    pair_states: dict[tuple[int, int], set[int]] = {}
    for i, j, k in order:
        pair_states.setdefault((j, k), set()).add(i)

    if kind is DecompositionKind.WAI:
        relation = set()
        for (j, k), states in pair_states.items():
            flags = {i in a.accepting for i in states}
            if len(flags) == 2:
                return Refusal(
                    "reachable pair maps to states disagreeing on acceptance",
                    ((a1.states[j], a2.states[k]), tuple(sorted(a.states[i] for i in states))),
                )
            if flags == {True}:
                relation.add((a1.states[j], a2.states[k]))
        return Decomposition(kind, a1, a2, frozenset(relation))

    beta: dict[tuple[str, str], str] = {}
    for (j, k), states in pair_states.items():
        if len(states) > 1:
            return Refusal(
                "reachable pair corresponds to more than one state",
                ((a1.states[j], a2.states[k]), tuple(sorted(a.states[i] for i in states))),
            )
        beta[(a1.states[j], a2.states[k])] = a.states[next(iter(states))]
    if kind is DecompositionKind.SI:
        return Decomposition(kind, a1, a2, beta)

    alpha: dict[str, tuple[str, str]] = {}
    for pair, state in beta.items():
        if state in alpha:
            return Refusal(
                "state is reached through two distinct pairs; the embedding "
                "cannot be injective",
                (state, alpha[state], pair),
            )
        alpha[state] = pair
    return Decomposition(kind, a1, a2, alpha)


def minimize_by_signatures(dfa: Dfa):
    """``minimize`` with Moore rounds that number each (block, successor
    blocks) signature through a table of their own."""
    base = trim(dfa)
    n = base.n
    syms = range(len(base.alphabet))
    block = [1 if i in base.accepting else 0 for i in range(n)]
    while True:
        signatures = {}
        new_block = [0] * n
        for i in range(n):
            sig = (block[i], tuple(block[base.table[i][a]] for a in syms))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[i] = signatures[sig]
        if new_block == block:
            break
        block = new_block
    pi = Partition.from_assignment(block)
    accepting = {pi.block_index[i] for i in base.accepting}
    result = quotient(base, pi, accepting, name=dfa.name + "_min")
    mapping = {base.states[i]: result.states[pi.block_index[i]] for i in range(n)}
    return result, mapping


def _document_by_build(lines, start: int):
    """One document read the earlier way: names collected into a ``delta``
    dict, totality checked on that dict, and the table built by ``Dfa.build``."""

    def need(pos, keyword):
        if pos >= len(lines):
            last = lines[-1][0] if lines else None
            raise ParseError(f"unexpected end of input, expected '{keyword}' line", last)
        lineno, tokens = lines[pos]
        if tokens[0] != keyword:
            raise ParseError(f"expected '{keyword}' line, found {tokens[0]!r}", lineno)
        return lineno, tokens

    pos = start
    lineno, tokens = need(pos, "dfa")
    if len(tokens) != 2:
        raise ParseError("'dfa' line takes exactly one name", lineno)
    name = tokens[1]
    pos += 1
    lineno, tokens = need(pos, "alphabet")
    if len(tokens) < 2:
        raise ParseError("'alphabet' line needs at least one symbol", lineno)
    alphabet = tokens[1:]
    if len(set(alphabet)) != len(alphabet):
        raise ParseError("duplicate symbol in alphabet", lineno)
    pos += 1
    lineno, tokens = need(pos, "states")
    if len(tokens) < 2:
        raise ParseError("'states' line needs at least one state", lineno)
    states = tokens[1:]
    if len(set(states)) != len(states):
        raise ParseError("duplicate state name", lineno)
    pos += 1
    lineno, tokens = need(pos, "initial")
    if len(tokens) != 2:
        raise ParseError("'initial' line takes exactly one state", lineno)
    initial = tokens[1]
    if initial not in states:
        raise ParseError(f"initial state {initial!r} is not a listed state", lineno)
    pos += 1
    lineno, tokens = need(pos, "accepting")
    accepting = tokens[1:]
    for q in accepting:
        if q not in states:
            raise ParseError(f"accepting state {q!r} is not a listed state", lineno)
    pos += 1
    delta = {}
    end_line = None
    while pos < len(lines):
        lineno, tokens = lines[pos]
        if tokens[0] == "end":
            if len(tokens) != 1:
                raise ParseError("'end' line takes no arguments", lineno)
            end_line = lineno
            pos += 1
            break
        if tokens[0] != "trans":
            raise ParseError(f"expected 'trans' or 'end' line, found {tokens[0]!r}", lineno)
        if len(tokens) != 4:
            raise ParseError("'trans' line takes: state symbol state", lineno)
        _, src, sym, dst = tokens
        if src not in states:
            raise ParseError(f"transition from unknown state {src!r}", lineno)
        if sym not in alphabet:
            raise ParseError(f"transition on unknown symbol {sym!r}", lineno)
        if dst not in states:
            raise ParseError(f"transition to unknown state {dst!r}", lineno)
        if (src, sym) in delta:
            raise ParseError(f"duplicate transition for ({src!r}, {sym!r})", lineno)
        delta[(src, sym)] = dst
        pos += 1
    else:
        raise ParseError("missing 'end' line", lines[-1][0])
    for q in states:
        for a in alphabet:
            if (q, a) not in delta:
                raise ParseError(
                    f"automaton is not complete: missing transition for ({q!r}, {a!r})",
                    end_line,
                )
    return Dfa.build(name, states, alphabet, delta, initial, accepting), pos


def parse_by_build(text: str, many: bool = False):
    """``parse_dfa`` (or ``parse_dfas`` with ``many``) through ``Dfa.build``,
    as the reader worked before it filled the table itself."""
    lines = _token_lines(text)
    if not lines:
        raise ParseError("empty input")
    out = []
    pos = 0
    while pos < len(lines):
        dfa, pos = _document_by_build(lines, pos)
        out.append(dfa)
        if not many and pos != len(lines):
            raise ParseError("trailing content after 'end'", lines[pos][0])
    return out if many else out[0]
