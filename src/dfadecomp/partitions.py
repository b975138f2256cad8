"""Partitions of a DFA's state set and the lattice of those with the
substitution property.

A partition is kept in canonical block form (members sorted, blocks sorted by
least member), so equality and hashing are structural.  Its ``block_index`` is
the matching label vector: each state's block position, numbered by first
occurrence.  The lattice algorithms run on these label vectors and build
:class:`Partition` objects only for their results.  All functions here work on
state indexes; name formatting lives in :mod:`dfadecomp.textio`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .automata import Dfa
from .errors import InputError

# A canonical label vector: state i lies in block labels[i], and the labels
# are numbered by first occurrence.
Labels = tuple[int, ...]


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


def _canonical(labels: Iterable[Hashable]) -> Labels:
    """Renumber labels by first occurrence, so equal partitions get equal vectors."""
    seen: dict[Hashable, int] = {}
    return tuple([seen.setdefault(lab, len(seen)) for lab in labels])


def _join_labels(x: Labels, y: Labels) -> Labels:
    """Union the blocks of x that a common block of y links, then renumber."""
    root = list(range(len(x)))
    first: dict[int, int] = {}
    for xi, yi in zip(x, y):
        xj = first.setdefault(yi, xi)
        if xj != xi:
            _union(root, xi, xj)
    return _canonical(map(_resolve(root).__getitem__, x))


def _leq_labels(x: Labels, y: Labels) -> bool:
    """True iff x refines y: every block of x carries a single y label."""
    label_of: dict[int, int] = {}
    return all(label_of.setdefault(xi, yi) == yi for xi, yi in zip(x, y))


class Partition:
    """A partition of {0, .., n-1} in canonical block form."""

    __slots__ = ("blocks", "block_index")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normalized = sorted(tuple(sorted(set(b))) for b in blocks if b)
        cover: list[int] = [i for b in normalized for i in b]
        n = len(cover)
        if sorted(cover) != list(range(n)):
            raise InputError("blocks do not partition the index range exactly")
        self.blocks: tuple[tuple[int, ...], ...] = tuple(normalized)
        index = [0] * n
        for pos, block in enumerate(self.blocks):
            for i in block:
                index[i] = pos
        self.block_index: Labels = tuple(index)

    @classmethod
    def _from_canonical(cls, labels: Labels) -> "Partition":
        """The partition of a canonical label vector, built without re-sorting."""
        blocks: list[list[int]] = []
        for i, lab in enumerate(labels):
            if lab == len(blocks):
                blocks.append([i])
            else:
                blocks[lab].append(i)
        pi = cls.__new__(cls)
        pi.blocks = tuple(map(tuple, blocks))
        pi.block_index = labels
        return pi

    @classmethod
    def from_assignment(cls, labels: Iterable[int]) -> "Partition":
        return cls._from_canonical(_canonical(labels))

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition._from_canonical(tuple(range(n)))

    @staticmethod
    def whole(n: int) -> "Partition":
        return Partition._from_canonical((0,) * n)

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
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

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
    return Partition._from_canonical(_canonical(zip(p1.block_index, p2.block_index)))


def join(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening, via union-find over both block structures."""
    _check_same_ground(p1, p2)
    return Partition._from_canonical(_join_labels(p1.block_index, p2.block_index))


def leq(p1: Partition, p2: Partition) -> bool:
    """True iff p1 refines p2 (every block of p1 sits inside a block of p2)."""
    _check_same_ground(p1, p2)
    return _leq_labels(p1.block_index, p2.block_index)


def is_sp(dfa: Dfa, pi: Partition) -> bool:
    """Substitution property: states sharing a block have co-block successors
    under every symbol."""
    if pi.n != dfa.n:
        raise InputError("partition does not cover the automaton's state set")
    for block in pi.blocks:
        if len(block) == 1:
            continue
        lead = block[0]
        for a in range(len(dfa.alphabet)):
            target = pi.block_index[dfa.table[lead][a]]
            for i in block[1:]:
                if pi.block_index[dfa.table[i][a]] != target:
                    return False
    return True


def min_sp_merging(dfa: Dfa, p: str, t: str) -> Partition:
    """Finest substitution-property partition putting ``p`` and ``t`` in one block.

    Closure by union-find: whenever two merged states disagree on a successor
    block, the successors are merged as well, until stable.
    """
    return Partition._from_canonical(
        _min_sp_merging_labels(dfa, dfa.state_index(p), dfa.state_index(t))
    )


def _min_sp_merging_labels(dfa: Dfa, p: int, t: int) -> Labels:
    root = list(range(dfa.n))
    pending = [(p, t)]
    while pending:
        x, y = pending.pop()
        if _union(root, x, y):
            pending.extend(zip(dfa.table[x], dfa.table[y]))
    return _canonical(_resolve(root))


@dataclass(frozen=True)
class SpLattice:
    """Every substitution-property partition of one DFA, with atom provenance.

    ``elements`` run from the finest partition to the coarsest, and ``index``
    maps each element to its position there.
    ``atoms`` maps each unordered state-name pair to the finest S.P. partition
    merging that pair; every element of the lattice is a join of atoms.
    ``above[i]`` holds the positions of the distinct joins of
    ``elements[i]`` with an atom that are strictly coarser than it: every
    upper cover of the element is among them, and every strictly coarser
    element lies above one of them.
    ``keys[i]`` is ``P | S << n*n`` for ``elements[i]`` over n states: P has
    bit ``p*n + t`` for each pair p < t the element merges, so
    P(x ∧ y) = P(x) & P(y) and x ≤ y iff P(x) & ~P(y) == 0; S has bit i for
    each state whose block meets the accepting set.
    """

    dfa_fingerprint: str
    elements: tuple[Partition, ...]
    atoms: Mapping[tuple[str, str], Partition]
    above: tuple[tuple[int, ...], ...]
    keys: tuple[int, ...]
    index: Mapping[Partition, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {pi: i for i, pi in enumerate(self.elements)})

    def __contains__(self, pi: Partition) -> bool:
        return pi in self.index

    def nontrivial(self) -> list[Partition]:
        return [pi for pi in self.elements if not pi.is_trivial()]


def sp_lattice(dfa: Dfa, check_meet_closure: bool = True) -> SpLattice:
    """All S.P. partitions of ``dfa``: the atoms for every state pair, closed
    under join.

    The atom of the pair (p, t) lies below an S.P. partition x exactly when x
    merges p and t, so the closure joins x only with the atoms it does not
    already contain.  Closure under meet is a consequence and is re-verified
    on the pair masks (``SpLattice.keys``) when the lattice is small enough
    for the quadratic check.
    """
    n = dfa.n
    atoms: dict[tuple[str, str], Partition] = {}
    atom_of: dict[Labels, Partition] = {}
    merging: list[tuple[int, int, Labels]] = []  # one generating pair per distinct atom
    for p in range(n):
        for t in range(p + 1, n):
            labels = _min_sp_merging_labels(dfa, p, t)
            if labels not in atom_of:
                atom_of[labels] = Partition._from_canonical(labels)
                merging.append((p, t, labels))
            atoms[(dfa.states[p], dfa.states[t])] = atom_of[labels]
    bottom = tuple(range(n))
    position = {bottom: 0}
    found = [bottom]
    strictly_above: list[set[int]] = []
    for x in found:  # ``found`` grows while this loop runs; each element is visited once
        ups = set()
        for p, t, atom in merging:
            if x[p] == x[t]:
                continue
            z = _join_labels(x, atom)
            k = position.get(z)
            if k is None:
                k = position[z] = len(found)
                found.append(z)
            ups.add(k)
        strictly_above.append(ups)
    pairs, keys = [], []
    for x in found:
        members = [0] * n  # block label -> its states as a bit set
        for i, lab in enumerate(x):
            members[lab] |= 1 << i
        # Row i of the pair bits holds the block-mates of i above i.
        pairs.append(sum((members[lab] >> i + 1) << (i * n + i + 1) for i, lab in enumerate(x)))
        accepting = sum(members[lab] for lab in {x[i] for i in dfa.accepting})
        keys.append(pairs[-1] | accepting << n * n)
    if check_meet_closure and len(found) <= 1000:
        merged = set(pairs)
        if not all(p & q in merged for p, q in itertools.combinations(pairs, 2)):
            raise RuntimeError("internal invariant violated: lattice not meet-closed")
    partitions = [Partition._from_canonical(z) for z in found]
    order = sorted(
        range(len(found)), key=lambda k: (-partitions[k].num_blocks, partitions[k].blocks)
    )
    rank = {k: r for r, k in enumerate(order)}
    return SpLattice(
        dfa_fingerprint=dfa.fingerprint(),
        elements=tuple(partitions[k] for k in order),
        atoms=atoms,
        above=tuple(tuple(sorted(rank[j] for j in strictly_above[k])) for k in order),
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
    (Davey & Priestley, *Introduction to Lattices and Order*).  Every element
    is a join of atoms, so the join-irreducibles are the distinct atoms that
    are not the join of the atoms strictly below them.  This takes
    O(|atoms| * |L|) joins of label vectors.
    """
    elements = [pi.block_index for pi in lattice.elements]
    atoms = list(dict.fromkeys(pi.block_index for pi in lattice.atoms.values()))
    bottom = elements[0]
    for j in atoms:
        below = bottom
        for a in atoms:
            if a != j and _leq_labels(a, j):
                below = _join_labels(below, a)
        if below == j:
            continue
        rest = bottom
        for x in elements:
            if not _leq_labels(j, x) and not _leq_labels(x, rest):
                rest = _join_labels(rest, x)
                if _leq_labels(j, rest):
                    return False
    return True


def quotient(
    dfa: Dfa,
    pi: Partition,
    accepting_blocks: Iterable[int],
    name: str | None = None,
) -> Dfa:
    """Automaton on the blocks of an S.P. partition.

    ``accepting_blocks`` are block positions into ``pi``.  Block states are
    named by joining their member names with ``+``.
    """
    if not is_sp(dfa, pi):
        raise InputError("partition lacks the substitution property")
    acc = set()
    for b in accepting_blocks:
        if not 0 <= b < pi.num_blocks:
            raise InputError(f"accepting block index {b} out of range")
        acc.add(b)
    names = tuple("+".join(dfa.states[i] for i in block) for block in pi.blocks)
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
