"""Partitions of a DFA's state set and the lattice of those with the
substitution property.

A partition is identified by its leader vector, which names each state's
block by its least state: the form that a union-find hanging larger roots
under smaller ones resolves to, so the lattice algorithms never renumber.
Equality and hashing use it, and every :class:`Partition` is filled from it,
with its blocks in canonical form (members sorted, blocks sorted by least
member) and ``block_index`` giving each state's block position.  All
functions here work on state indexes; name formatting lives in
:mod:`dfadecomp.textio`.  ``minimize`` is the ``quotient`` by the Moore
partition, which Hopcroft's algorithm finds in O(|Σ|·n log n).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable

from .automata import Dfa, StateMap, _distinct_names, trim
from .errors import InputError

# A leader vector: state i lies in the block whose least state is
# leaders[i], so leaders[i] <= i and leaders[leaders[i]] == leaders[i].
Leaders = tuple[int, ...]


def _union(root: list[int], i: int, j: int) -> bool:
    """Merge the classes of i and j in a union-find forest, hanging the larger
    root under the smaller; False if they were one class already.  Paths are
    halved on the way up, which keeps every parent smaller than its child."""
    while root[i] != i:
        root[i] = root[root[i]]
        i = root[i]
    while root[j] != j:
        root[j] = root[root[j]]
        j = root[j]
    if i == j:
        return False
    if i < j:
        root[j] = i
    else:
        root[i] = j
    return True


def _resolve(root: list[int]) -> list[int]:
    """Point every entry at its root, in place.  Each parent is smaller than
    its child, so one ascending pass suffices."""
    for k in range(len(root)):
        root[k] = root[root[k]]
    return root


def _leaders(labels: Iterable[Hashable]) -> Leaders:
    """The leader vector of any labelling: each state names the least state
    that carries its label."""
    first: dict[Hashable, int] = {}
    return tuple([first.setdefault(lab, i) for i, lab in enumerate(labels)])


def _merges(y: Leaders) -> list[tuple[int, int]]:
    """The (state, leader) pairs of y's states that lead no block: merging
    them into any partition joins it with y."""
    return [(i, yi) for i, yi in enumerate(y) if yi != i]


def _join(x: Leaders, merges: Iterable[tuple[int, int]]) -> Leaders:
    """x joined with the partition of ``merges`` (``_merges(y)`` for y): x is
    already a resolved union-find forest, so each pair is merged into it."""
    root = list(x)
    for i, yi in merges:
        _union(root, i, yi)
    return tuple(_resolve(root))


def _key(x: Leaders, marked: Iterable[int] = ()) -> int:
    """``P | S << n*n``, the layout of ``SpLattice.keys``, for x on n states:
    P has bit ``p*n + t`` per pair p < t x merges, so P(x ∧ y) = P(x) & P(y)
    and x ≤ y iff P(x) & ~P(y) == 0; S, bit i per state in a marked block."""
    n = len(x)
    members = [0] * n  # block leader -> its states as a bit set
    for i, lab in enumerate(x):
        members[lab] |= 1 << i
    # Row i of the pair bits holds the block-mates of i above i.
    pairs = sum((members[lab] >> i + 1) << (i * n + i + 1) for i, lab in enumerate(x))
    return pairs | sum(members[lab] for lab in {x[i] for i in marked}) << n * n


def _leq(x: Leaders, y: Leaders) -> bool:
    """True iff x refines y, any labelling: each state has its x leader's y label."""
    return all(y[i] == y[xi] for i, xi in enumerate(x))


class Partition:
    """A partition of {0, .., n-1}: its leader vector and canonical blocks."""

    __slots__ = ("leaders", "blocks", "block_index")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        members = [(i, k) for k, block in enumerate(blocks) for i in set(block)]
        label = dict(members)  # member -> position of its block in ``blocks``
        n = len(label)
        if n < len(members) or not all(i in label for i in range(n)):
            raise InputError("blocks do not partition the index range exactly")
        pi = Partition._from_leaders(_leaders(map(label.__getitem__, range(n))))
        self.leaders, self.blocks, self.block_index = pi.leaders, pi.blocks, pi.block_index

    @classmethod
    def _from_leaders(cls, leaders: Leaders) -> "Partition":
        """The partition of a leader vector, built without re-sorting: blocks
        come in the order of their leaders, their least members."""
        blocks: dict[int, list[int]] = {}
        for i, lead in enumerate(leaders):
            blocks.setdefault(lead, []).append(i)
        position = {lead: k for k, lead in enumerate(blocks)}
        pi = cls.__new__(cls)
        pi.leaders = leaders
        pi.blocks = tuple(map(tuple, blocks.values()))
        pi.block_index = tuple(map(position.__getitem__, leaders))
        return pi

    @classmethod
    def from_assignment(cls, labels: Iterable[int]) -> "Partition":
        return cls._from_leaders(_leaders(labels))

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition._from_leaders(tuple(range(n)))

    @staticmethod
    def whole(n: int) -> "Partition":
        return Partition._from_leaders((0,) * n)

    @property
    def n(self) -> int:
        return len(self.block_index)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def is_trivial(self) -> bool:
        """True for the all-singletons and the one-block partition."""
        return self.num_blocks == self.n or self.num_blocks == 1

    def same_block(self, i: int, j: int) -> bool:
        return self.block_index[i] == self.block_index[j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.leaders == other.leaders

    def __hash__(self) -> int:
        return hash(self.leaders)

    def __repr__(self) -> str:
        inner = "|".join(",".join(str(i) for i in b) for b in self.blocks)
        return f"Partition({{{inner}}})"


def _check_same_ground(p1: Partition, p2: Partition) -> int:
    if p1.n != p2.n:
        raise InputError(f"partitions are over different sets ({p1.n} vs {p2.n} elements)")
    return p1.n


def meet(p1: Partition, p2: Partition) -> Partition:
    """Coarsest common refinement: blocks are the nonempty block intersections."""
    _check_same_ground(p1, p2)
    return Partition._from_leaders(_leaders(zip(p1.leaders, p2.leaders)))


def join(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening, via union-find over both block structures."""
    _check_same_ground(p1, p2)
    return Partition._from_leaders(_join(p1.leaders, _merges(p2.leaders)))


def leq(p1: Partition, p2: Partition) -> bool:
    """True iff p1 refines p2 (every block of p1 sits inside a block of p2)."""
    _check_same_ground(p1, p2)
    return _leq(p1.leaders, p2.leaders)


def is_sp(dfa: Dfa, pi: Partition) -> bool:
    """Substitution property: states sharing a block have co-block successors
    under every symbol, that is each state's successors share blocks with
    its leader's."""
    x, rows = pi.leaders, dfa.table
    if len(x) != dfa.n:
        raise InputError("partition does not cover the automaton's state set")
    return all(x[p] == x[q] for i, y in enumerate(x) if i != y for p, q in zip(rows[i], rows[y]))


def min_sp_merging(dfa: Dfa, p: str, t: str) -> Partition:
    """Finest substitution-property partition putting ``p`` and ``t`` in one block.

    Closure by union-find: whenever two merged states disagree on a successor
    block, the successors are merged as well, until stable.
    """
    return Partition._from_leaders(
        _min_sp_merging_labels(dfa, dfa.state_index(p), dfa.state_index(t))
    )


def _min_sp_merging_labels(dfa: Dfa, p: int, t: int) -> Leaders:
    root = list(range(dfa.n))
    pending = [(p, t)]
    while pending:
        x, y = pending.pop()
        if _union(root, x, y):
            pending.extend(zip(dfa.table[x], dfa.table[y]))
    return tuple(_resolve(root))


def _pair_components(dfa: Dfa) -> list[tuple[int, int]]:
    """One state pair p < t from each strongly connected component of the
    graph with an edge from (p, t) to the normalised pair (δ(p, a), δ(t, a))
    for every symbol a on which the two differ.

    Tarjan's algorithm meets each component once, at its root, and the root
    stands for it.  It runs on an explicit stack: a pair graph has n(n-1)/2
    nodes, far more than Python's recursion limit.  A finished pair's
    discovery number is raised past every other, so it no longer lowers a
    low-link.
    """
    n, table = dfa.n, dfa.table

    def successors(v: int) -> list[int]:
        p, t = divmod(v, n)
        return [x * n + y if x < y else y * n + x for x, y in zip(table[p], table[t]) if x != y]

    finished = n * n
    order = [-1] * finished  # discovery number, -1 until visited, ``finished`` once done
    low = [0] * finished
    stack: list[int] = []
    roots = []
    visited = 0
    for root in (p * n + t for p in range(n) for t in range(p + 1, n)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, iter(successors(root)))]
        while path:
            v, pending = path[-1]
            for w in pending:
                if order[w] < 0:
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append((w, iter(successors(w))))
                    break
                low[v] = min(low[v], order[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    roots.append(divmod(v, n))
                    w = -1
                    while w != v:
                        w = stack.pop()
                        order[w] = finished
    return roots


@dataclass(frozen=True)
class SpLattice:
    """Every substitution-property partition of one DFA, with its irreducibles.

    ``elements`` run from the finest partition to the coarsest, and ``index``
    maps each element to its position there, built when first read.
    ``irreducibles`` are the join-irreducible elements, in the same order:
    the atoms, the finest S.P. partitions merging one state pair
    (``min_sp_merging``), that are not the join of the atoms strictly below
    them.  Every element is a join of atoms, and so of irreducibles.
    ``above[i]`` holds the positions of the distinct joins of
    ``elements[i]`` with an irreducible that are strictly coarser than it.
    Every upper cover of the element is among them: if y covers x, some
    irreducible j ≤ y has j ≰ x, and x < x ∨ j ≤ y.  So every strictly
    coarser element lies above one of them.
    ``keys[i]`` is ``_key(elements[i].leaders, accepting states)``.
    """

    dfa_fingerprint: str
    elements: tuple[Partition, ...]
    irreducibles: tuple[Partition, ...]
    above: tuple[tuple[int, ...], ...]
    keys: tuple[int, ...]

    @functools.cached_property
    def index(self) -> dict[Partition, int]:
        return {pi: i for i, pi in enumerate(self.elements)}

    def __contains__(self, pi: Partition) -> bool:
        return pi in self.index

    def nontrivial(self) -> list[Partition]:
        return [pi for pi in self.elements if not pi.is_trivial()]


def sp_lattice(dfa: Dfa, check_meet_closure: bool = True) -> SpLattice:
    """All S.P. partitions of ``dfa``: the atoms of the state pairs, closed
    under join with the join-irreducible ones.

    The atom of the pair (p, t) lies below an S.P. partition x exactly when x
    merges p and t.  If (p, t) reaches (p', t') in the pair graph of
    ``_pair_components``, the atom of (p, t) merges p' and t', so the pairs
    of one strongly connected component share one atom, and one closure per
    component finds them all.  An atom is join-irreducible exactly when the
    atoms strictly below it, joined, do not merge a pair it is the atom of;
    any such pair serves.  Every element is a join of irreducibles, so the
    closure joins x only with the irreducibles it does not already contain.
    Closure under meet is a consequence and is re-verified on the pair masks
    (``SpLattice.keys``) up to 1000 elements.  The check is quadratic: at 877
    elements it costs 2.6 times the rest of the build, at 4140 eleven times.

    Two exact rules spare joins.  The atoms are tested finest first, each
    against the irreducibles found below it until their join merges its pair:
    an atom below j has more blocks, and a reducible one is the join of those
    below it, so the irreducibles below j join to what all atoms below j do.
    Each element x but the bottom was found as y ∨ j' with y before it; for
    an irreducible j ≰ x, x ∨ j = (y ∨ j) ∨ j'.  If y ∨ j came before x, its
    complete row holds x ∨ j; else if y ∨ j merges j''s pair, x ∨ j = y ∨ j.
    """
    n = dfa.n
    merging: dict[Leaders, tuple[int, int]] = {}  # each distinct atom -> a pair it is the atom of
    for p, t in _pair_components(dfa):
        merging.setdefault(_min_sp_merging_labels(dfa, p, t), (p, t))
    bottom = tuple(range(n))
    irreducibles = []  # (atom, its merges, a pair it is the atom of) of each join-irreducible atom
    for j, (p, t) in sorted(merging.items(), key=lambda item: -len(set(item[0]))):
        below = bottom
        for _, a_merges, q, u in irreducibles:
            if j[q] == j[u]:  # j merges a's pair, so a < j
                below = _join(below, a_merges)
                if below[p] == below[t]:
                    break
        else:
            irreducibles.append((j, _merges(j), p, t))
    position = {bottom: 0}
    found = [bottom]
    # For k > 0, made[k] = (y, r', p', t'): found[k] is found[y] ∨ irreducibles[r'],
    # whose pair is (p', t').  joins[k][r] is the position of found[k] ∨ irreducibles[r].
    made = [(0, 0, 0, 0)]
    joins: list[list[int]] = []
    for k, x in enumerate(found):  # ``found`` grows while this loop runs
        y, r_made, p_made, t_made = made[k]
        row = []
        for r, (_, j_merges, p, t) in enumerate(irreducibles):
            if x[p] == x[t]:
                row.append(k)
                continue
            if k:
                z = joins[y][r]
                if z < k:
                    row.append(joins[z][r_made])
                    continue
                if found[z][p_made] == found[z][t_made]:
                    row.append(z)
                    continue
            z = _join(x, j_merges)
            i = position.get(z)
            if i is None:
                i = position[z] = len(found)
                found.append(z)
                made.append((k, r, p, t))
            row.append(i)
        joins.append(row)
    keys = [_key(x, dfa.accepting) for x in found]
    if check_meet_closure and len(found) <= 1000:
        every_pair = _key((0,) * n)  # the one-block partition's key
        merged = {key & every_pair for key in keys}
        if not all(p & q in merged for p, q in itertools.combinations(merged, 2)):
            raise RuntimeError("internal invariant violated: lattice not meet-closed")
    partitions = [Partition._from_leaders(z) for z in found]
    order = sorted(
        range(len(found)), key=lambda k: (-partitions[k].num_blocks, partitions[k].blocks)
    )
    rank = {k: r for r, k in enumerate(order)}
    irreducible = {j for j, _, _, _ in irreducibles}
    elements = tuple(partitions[k] for k in order)
    return SpLattice(
        dfa_fingerprint=dfa.fingerprint(),
        elements=elements,
        irreducibles=tuple(pi for pi in elements if pi.leaders in irreducible),
        above=tuple(tuple(sorted({rank[i] for i in joins[k]} - {rank[k]})) for k in order),
        keys=tuple(keys[k] for k in order),
    )


@dataclass(frozen=True)
class SeparationWitness:
    """Block choices whose union intersection is exactly the accepting set.

    Entries are block positions into the first and second partition.
    """

    blocks_from_1: tuple[int, ...]
    blocks_from_2: tuple[int, ...]


def separates_finals(
    p1: Partition, p2: Partition, finals: Iterable[int]
) -> SeparationWitness | None:
    """Witness that some block unions of p1 and p2 intersect exactly in ``finals``.

    Any witness must pick every block meeting ``finals``, and adding blocks can
    only grow the intersection, so the minimal candidate is decisive: it fails,
    and no witness exists, exactly when a state outside ``finals`` lies in a
    picked block of both partitions.
    """
    n = _check_same_ground(p1, p2)
    fin = frozenset(finals)
    if not all(0 <= i < n for i in fin):
        raise InputError("final states are not a subset of the partitioned set")
    x, y = p1.block_index, p2.block_index
    picks1, picks2 = {x[i] for i in fin}, {y[i] for i in fin}
    if any(x[i] in picks1 and y[i] in picks2 for i in range(n) if i not in fin):
        return None
    return SeparationWitness(tuple(sorted(picks1)), tuple(sorted(picks2)))


def is_distributive(lattice: SpLattice) -> bool:
    """True iff meet distributes over join in the lattice.

    A finite lattice is distributive iff every join-irreducible element j is
    join-prime, that is j is not below the join of all elements not above it
    (Davey & Priestley, *Introduction to Lattices and Order*).  An element
    not above j is the join of the irreducibles below it, none of which is
    above j, so the join of all elements not above j is the join of the
    irreducibles not above j.  This takes O(|irreducibles|^2) joins of
    leader vectors over ``lattice.irreducibles``.
    """
    irreducibles = [(pi.leaders, _merges(pi.leaders)) for pi in lattice.irreducibles]
    bottom = tuple(range(lattice.elements[0].n))
    for j, _ in irreducibles:
        rest = bottom
        for a, a_merges in irreducibles:
            if not _leq(j, a):
                rest = _join(rest, a_merges)
        if _leq(j, rest):
            return False
    return True


def quotient(
    dfa: Dfa,
    pi: Partition,
    accepting_blocks: Iterable[int],
    name: str | None = None,
) -> Dfa:
    """Automaton on the blocks of an S.P. partition.

    ``accepting_blocks`` are block positions into ``pi``.  Blocks are named
    by their members joined with ``+``, made distinct by ``_distinct_names``.
    """
    if not is_sp(dfa, pi):
        raise InputError("partition lacks the substitution property")
    acc = set()
    for b in accepting_blocks:
        if not 0 <= b < pi.num_blocks:
            raise InputError(f"accepting block index {b} out of range")
        acc.add(b)
    names = _distinct_names(tuple("+".join(map(dfa.states.__getitem__, b)) for b in pi.blocks))
    table = tuple(
        tuple(pi.block_index[dfa.table[block[0]][a]] for a in range(len(dfa.alphabet)))
        for block in pi.blocks
    )
    return Dfa(
        name=name if name is not None else f"{dfa.name}_quot",
        states=names,
        alphabet=dfa.alphabet,
        table=table,
        initial=pi.block_index[dfa.initial],
        accepting=frozenset(acc),
    )


def _hopcroft(table, accepting) -> list[int]:
    """A block label per state of a complete transition table (rows of
    successor indexes, one column per symbol): two states carry one label
    iff the same words lead them to ``accepting``.

    These blocks form the Moore partition, the coarsest substitution-property
    partition that refines the accepting/rejecting split.  That partition is
    unique, so any refinement that reaches it gives the same blocks;
    Hopcroft's algorithm ("An n log n algorithm for minimizing states in a
    finite automaton", 1971) finds it in O(|Σ|·n log n).  Each block waiting
    as a splitter cuts every block with some, but not all, states entering
    it on one symbol; a split moves only those states, and queues the
    block's new half if the block is waiting already, its smaller half
    otherwise.
    """
    n = len(table)
    preimages = [[[] for _ in range(n)] for _ in table[0]]
    for i, row in enumerate(table):
        for pre, j in zip(preimages, row):
            pre[j].append(i)
    block = [int(i not in accepting) for i in range(n)]
    members = [set(accepting), set(range(n)).difference(accepting)]
    # Every state enters the whole state set on each symbol, so the accepting
    # and the rejecting states split alike: the smaller set is the only
    # splitter to start with.
    waiting = {int(len(members[1]) < len(members[0]))}
    while waiting:
        splitter = list(members[waiting.pop()])
        for pre in preimages:
            entering: dict[int, list[int]] = {}  # block -> its states entering the splitter
            for j in splitter:
                for i in pre[j]:
                    entering.setdefault(block[i], []).append(i)
            for y, xs in entering.items():
                if len(xs) == len(members[y]):
                    continue
                members[y].difference_update(xs)
                new = len(members)
                members.append(set(xs))
                for i in xs:
                    block[i] = new
                waiting.add(new if y in waiting or len(xs) <= len(members[y]) else y)
    return block


def minimize(dfa: Dfa) -> tuple[Dfa, StateMap]:
    """Minimal DFA for the same language, plus the merging map.

    Unreachable states are removed first; the result is then the quotient
    by the Moore partition, which ``_hopcroft`` finds.  The returned map
    sends every reachable state of the input onto the state of the result
    that simulates it, so ``f(run(dfa, w)) == run(result, w)`` for every
    word ``w``.

    Merged states are named as :func:`quotient` names blocks.
    """
    base = trim(dfa)
    pi = Partition._from_leaders(_leaders(_hopcroft(base.table, base.accepting)))
    accepting = {pi.block_index[i] for i in base.accepting}
    result = quotient(base, pi, accepting, name=dfa.name + "_min")
    mapping: StateMap = {q: result.states[b] for q, b in zip(base.states, pi.block_index)}
    return result, mapping
