"""Verification and construction of the five solver/advisor decomposition kinds.

A decomposition of an automaton A is a pair (A1, A2) read in parallel:

* ``ai``  -- the pair's language intersection equals L(A);
* ``si``  -- the joint final states determine A's final state (a mapping);
* ``wai`` -- the joint final states determine acceptance only (a relation);
* ``sb``  -- the parallel connection embeds A's transition structure
  (an injective state mapping);
* ``asb`` -- ``sb`` with acceptance carried along blockwise.

Constructive enumeration works over the lattice of substitution-property
partitions; verification works by a joint breadth-first search of the factors
with A, so each returned witness is checked on every reachable configuration.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .automata import Dfa, _pair_states, _triple_bfs, reachable_indexes
from .errors import InputError
from .partitions import (
    Partition,
    SeparationWitness,
    SpLattice,
    _key,
    join,
    meet,
    minimize,
    quotient,
    sp_lattice,
)


class DecompositionKind(str, Enum):
    AI = "ai"
    SI = "si"
    WAI = "wai"
    SB = "sb"
    ASB = "asb"


def _as_kind(kind: "DecompositionKind | str") -> DecompositionKind:
    if isinstance(kind, DecompositionKind):
        return kind
    try:
        return DecompositionKind(str(kind).lower())
    except ValueError:
        raise InputError(f"unknown decomposition kind {kind!r}") from None


@dataclass(frozen=True)
class Refusal:
    """Negative verification outcome; falsy, with the reason attached."""

    reason: str
    detail: object = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class Decomposition:
    """A verified pair (a1, a2) with its kind-specific witness.

    The witness is an injective state mapping for ``sb``/``asb``, a mapping
    from reachable state pairs for ``si``, a relation over state pairs for
    ``wai``, and a :class:`SeparationWitness` or None for ``ai``.
    ``source_partitions`` is set when the pair was built as quotients.
    """

    kind: DecompositionKind
    a1: Dfa
    a2: Dfa
    witness: object
    source_partitions: tuple[Partition, Partition] | None = None


@dataclass(frozen=True)
class ReportEntry:
    """One reported pair of lattice elements.  The flags read only the
    quotients' sizes, the partitions' block counts; ``decomposition`` is
    built the first time it is read, then kept.  Only elements other than
    the bottom and the top are paired, each of 2 to n-1 blocks, so every
    entry is ``nontrivial``: both quotients are smaller than the automaton."""

    source_partitions: tuple[Partition, Partition]
    nontrivial: bool
    perfect: bool
    redundant: bool
    _build: Callable[[Partition, Partition], Decomposition] = field(repr=False, compare=False)

    @functools.cached_property
    def decomposition(self) -> Decomposition:
        return self._build(*self.source_partitions)


# What ``is_redundant`` reads of a decomposition, before one is built.
_Pair = NamedTuple("_Pair", [("kind", DecompositionKind), ("source_partitions", tuple)])


@dataclass(frozen=True)
class DecompositionReport:
    """Canonically ordered enumeration result for one automaton and kind."""

    dfa_fingerprint: str
    kind: DecompositionKind
    entries: tuple[ReportEntry, ...]


def _require_reachable(a: Dfa, kind: DecompositionKind) -> None:
    if kind is not DecompositionKind.AI and len(reachable_indexes(a)) != a.n:
        raise InputError(
            f"{kind.value} decompositions are defined only for automata without unreachable states"
        )


def verify(
    kind: "DecompositionKind | str", a: Dfa, a1: Dfa, a2: Dfa
) -> Decomposition | Refusal:
    """Check whether (a1, a2) decomposes ``a`` in the requested sense.

    Returns a :class:`Decomposition` carrying the witness, or a falsy
    :class:`Refusal` naming a counterexample word or state pair.  The kinds
    ``si``, ``wai``, ``sb`` and ``asb`` are only defined here for automata
    without unreachable states; language-level ``ai`` has no such restriction.
    ``ai`` and the language half of ``asb`` search A with the factors'
    minimal automata; the word of a refusal, the shortlex-least one on which
    the languages differ, comes from a second search that stops at the
    refused triple.  The state kinds search the reachable factor pairs once
    (``_pair_states``, one seen dict per A1 state: O(n1 + |pairs|) memory):
    each pair keeps the first state it reaches, and the refused pair is the
    earliest reached one that meets a second state (for ``wai``, one that
    differs on acceptance); they read its BFS-ordered lists only.
    """
    kind = _as_kind(kind)
    _require_reachable(a, kind)

    if kind in (DecompositionKind.AI, DecompositionKind.ASB):
        # The test reads only L(a1) and L(a2), so it runs on their minimal
        # automata: the first triple to disagree is still met at the
        # shortlex-least word on which L(a) and L(a1) ∩ L(a2) differ.
        m1, m2 = minimize(a1)[0], minimize(a2)[0]
        order, word_to = _triple_bfs(a, m1, m2)
        for triple in order:
            i, j, k = triple
            if (i in a.accepting) != (j in m1.accepting and k in m2.accepting):
                word = word_to(triple)
                return Refusal(
                    f"languages differ on word {''.join(word) or '(empty)'!r}", word
                )
        if kind is DecompositionKind.AI:
            return Decomposition(kind, a1, a2, None)

    # Each reachable pair (j, k) keeps the first state it reaches; one that
    # also meets another state (under wai, of the other acceptance) clashes.
    wai = kind is DecompositionKind.WAI
    acc = a.accepting
    js, ks, firsts, more = _pair_states(a, a1, a2)
    clashing = {p for p, s in more.items() if not wai or not (s <= acc or s.isdisjoint(acc))}

    def named(j: int, k: int) -> tuple[str, str]:
        return a1.states[j], a2.states[k]

    if clashing:
        pair = next(p for p in zip(js, ks) if p in clashing)
        reason = (
            "reachable pair maps to states disagreeing on acceptance"
            if wai
            else "reachable pair corresponds to more than one state"
        )
        return Refusal(reason, (named(*pair), tuple(sorted(a.states[i] for i in more[pair]))))
    if wai:
        relation = frozenset(named(j, k) for j, k, i in zip(js, ks, firsts) if i in acc)
        return Decomposition(kind, a1, a2, relation)
    if kind is DecompositionKind.SI:
        witness = {named(j, k): a.states[i] for j, k, i in zip(js, ks, firsts)}
        return Decomposition(kind, a1, a2, witness)

    # sb and asb also need distinct pairs to reach distinct states.
    position: dict[int, int] = {}  # state -> index of the first pair reaching it
    for n, i in enumerate(firsts):
        earlier = position.setdefault(i, n)
        if earlier != n:
            return Refusal(
                "state is reached through two distinct pairs; the embedding "
                "cannot be injective",
                (a.states[i], named(js[earlier], ks[earlier]), named(js[n], ks[n])),
            )
    return Decomposition(
        kind, a1, a2, {a.states[i]: named(j, k) for j, k, i in zip(js, ks, firsts)}
    )


def _entry_from_partitions(
    a: Dfa, kind: DecompositionKind, pa: Partition, pb: Partition, a1: Dfa, a2: Dfa, pairs: dict
) -> Decomposition:
    """The pair of quotients ``a1``, ``a2`` of ``a`` by (pa, pb) with its
    kind's witness; for ``ai`` that is the blocks the quotients accept.
    Equal state-name pairs across a report's witnesses share one tuple in
    ``pairs`` (grid(3,5) wai: 671 distinct pairs in 48980 relation members)."""
    if kind is DecompositionKind.AI:
        witness = SeparationWitness(tuple(sorted(a1.accepting)), tuple(sorted(a2.accepting)))
    elif kind is DecompositionKind.WAI:
        # Every block pair whose cell holds no rejecting state, empty cells included.
        rejecting = {(pa.block_index[i], pb.block_index[i]) for i in set(range(a.n)) - a.accepting}
        witness = frozenset(
            pairs.setdefault((q1, q2), (q1, q2))
            for i, q1 in enumerate(a1.states)
            for j, q2 in enumerate(a2.states)
            if (i, j) not in rejecting
        )
    else:
        witness = {}
        for i, q in enumerate(a.states):
            pair = a1.states[pa.block_index[i]], a2.states[pb.block_index[i]]
            witness[q] = pairs.setdefault(pair, pair)
    return Decomposition(kind, a1, a2, witness, (pa, pb))


def _emission_condition(kind: DecompositionKind, a: Dfa) -> Callable[[int, int], bool]:
    """The sufficient condition each decompose_* uses to emit a lattice pair,
    read off the pair's ``SpLattice.keys`` as one AND against the kind's mask.

    ``sb`` asks that no state pair be merged by both elements (meet zero),
    ``wai`` that no pair of an accepting and a rejecting state be, ``ai``
    that no rejecting state lie in a block meeting the accepting set in both
    (the minimal pick separates), and ``asb`` both the ``sb`` and the ``ai``
    test.  Also reused by the redundancy check.  Every condition is
    down-closed: if it holds for a pair it holds for every finer pair, since
    meets only shrink and the blocks meeting the accepting states only shrink
    along with them.  The mask is built once per kind and automaton (state
    count and accepting set), however many entries test it.
    """
    mask = _emission_mask(kind, a.n, a.accepting)
    return lambda kx, ky: not kx & ky & mask


@functools.lru_cache(maxsize=16)
def _emission_mask(kind: DecompositionKind, n: int, accepting: frozenset[int]) -> int:
    """The mask of :func:`_emission_condition`, a pure function of its values,
    from the keys of the one-block, singleton and acceptance-split partitions."""
    every_pair = _key(Partition.whole(n).leaders)
    if kind == DecompositionKind.SB:
        return every_pair
    if kind == DecompositionKind.WAI:
        split = Partition.from_assignment(i in accepting for i in range(n))
        return every_pair & ~_key(split.leaders)
    rejecting = _key(Partition.singletons(n).leaders, set(range(n)) - accepting)
    if kind == DecompositionKind.AI:
        return rejecting
    if kind == DecompositionKind.ASB:
        return every_pair | rejecting
    raise InputError(f"no lattice-based construction for kind {kind.value!r}")


def _decompose(a: Dfa, kind: DecompositionKind) -> DecompositionReport:
    _require_reachable(a, kind)
    lattice = sp_lattice(a)
    condition = _emission_condition(kind, a)
    elements, keys = lattice.elements, lattice.keys
    separating = kind in (DecompositionKind.AI, DecompositionKind.ASB)
    pairs: dict = {}

    @functools.cache
    def quotient_of(pi: Partition, role: int) -> Dfa:
        # Under ai and asb each factor accepts its minimal pick, else nothing.
        picks = {pi.block_index[i] for i in a.accepting} if separating else ()
        return quotient(a, pi, picks, name=f"{a.name}_q{role}")

    def build(pa: Partition, pb: Partition) -> Decomposition:
        a1, a2 = quotient_of(pa, 1), quotient_of(pb, 2)
        return _entry_from_partitions(a, kind, pa, pb, a1, a2, pairs)

    # Every condition is symmetric, so scanning the elements coarsest first
    # yields each pair in its reported orientation, and inside each size in
    # the lattice's block order, which the stable sort by sizes keeps.
    factors = sorted(
        (k for k, pi in enumerate(elements) if not pi.is_trivial()),
        key=lambda k: elements[k].num_blocks,
    )
    entries = []
    for i, j in itertools.combinations_with_replacement(factors, 2):
        if not condition(keys[i], keys[j]):
            continue
        pa, pb = elements[i], elements[j]
        entries.append(
            ReportEntry(
                source_partitions=(pa, pb),
                nontrivial=True,
                perfect=pa.num_blocks * pb.num_blocks == a.n,
                redundant=is_redundant(a, _Pair(kind, (pa, pb)), lattice=lattice),
                _build=build,
            )
        )
    entries.sort(key=lambda e: tuple(pi.num_blocks for pi in e.source_partitions))
    return DecompositionReport(a.fingerprint(), kind, tuple(entries))


def decompose_sb(a: Dfa) -> DecompositionReport:
    """All quotient pairs from nontrivial lattice elements with meet zero."""
    return _decompose(a, DecompositionKind.SB)


def decompose_asb(a: Dfa) -> DecompositionReport:
    """As :func:`decompose_sb`, additionally separating the accepting states;
    quotient accepting sets are taken from the separation witness."""
    return _decompose(a, DecompositionKind.ASB)


def decompose_ai_sufficient(a: Dfa) -> DecompositionReport:
    """Quotient pairs whose partitions separate the accepting states.

    This is a sufficient construction only: an empty report does not prove
    that no pair of smaller automata intersects to the same language.
    """
    return _decompose(a, DecompositionKind.AI)


def decompose_wai_sufficient(a: Dfa) -> DecompositionReport:
    """Quotient pairs whose meet refines the accepting/non-accepting split.

    Sufficient only, like :func:`decompose_ai_sufficient`.
    """
    return _decompose(a, DecompositionKind.WAI)


def is_redundant(
    a: Dfa, d: Decomposition, lattice: SpLattice | None = None
) -> bool:
    """True iff some strictly coarser lattice pair still satisfies the
    condition that emitted ``d`` (meet zero for ``sb``, plus separation for
    ``asb``; the analogous condition for the sufficient ``ai``/``wai`` kinds).
    Only ``d.kind`` and ``d.source_partitions`` are read.

    The conditions are down-closed, and every element strictly coarser than x
    lies above one of the joins listed in ``SpLattice.above``, so only the
    pairs one such step coarser in either coordinate need testing.
    """
    if d.source_partitions is None:
        raise InputError("redundancy is defined for decompositions built from partitions")
    lat = lattice if lattice is not None else sp_lattice(a)
    if lat.dfa_fingerprint != a.fingerprint():
        raise InputError("lattice was built for another automaton")
    condition = _emission_condition(d.kind, a)
    p1, p2 = d.source_partitions
    i, j = lat.index.get(p1), lat.index.get(p2)
    if i is None or j is None:
        raise InputError("source partitions are not elements of the automaton's lattice")
    keys = lat.keys
    return any(condition(keys[k], keys[j]) for k in lat.above[i]) or any(
        condition(keys[i], keys[k]) for k in lat.above[j]
    )


def project_to_minimal(a: Dfa, d: Decomposition) -> Decomposition | Refusal:
    """Carry a partition-built state-behavior decomposition over to the
    minimal automaton M = A/ρ, ρ the Moore partition; no factor grows.

    Each source partition π becomes σ = π ∨ ρ, S.P. on A as a join of S.P.
    partitions and above ρ, so S.P. on M, with M/σ = A/σ no larger than A/π.
    M's S.P. lattice is the interval [ρ, 1] of A's, meets included
    (Hartmanis & Stearns, 1966), so the pair decomposes M exactly when
    σ1 ∧ σ2 = ρ, the zero of [ρ, 1]: that one meet decides, and a refusal
    carries both σ on M.  A distributive lattice passes every entry, as
    (π1 ∨ ρ) ∧ (π2 ∨ ρ) = (π1 ∧ π2) ∨ ρ = ρ, but no lattice is built.  An
    ``asb`` entry projects as an ``sb`` pair; a trivial projection (a factor
    of one state, or of |M|) is returned like any other.
    """
    if d.kind not in (DecompositionKind.SB, DecompositionKind.ASB):
        raise InputError("projection is defined for state-behavior decompositions")
    if d.source_partitions is None:
        raise InputError("projection needs the source partitions")
    _require_reachable(a, d.kind)
    mdfa, f = minimize(a)
    labels = [mdfa.state_index(f[q]) for q in a.states]
    rho = Partition.from_assignment(labels)
    p1, p2 = [
        Partition({labels[i] for i in block} for block in join(rho, pi).blocks)
        for pi in d.source_partitions
    ]
    if meet(p1, p2) != Partition.singletons(mdfa.n):
        return Refusal("the projected partitions do not meet to zero", (p1, p2))
    a1 = quotient(mdfa, p1, (), name=f"{mdfa.name}_q1")
    a2 = quotient(mdfa, p2, (), name=f"{mdfa.name}_q2")
    return _entry_from_partitions(mdfa, DecompositionKind.SB, p1, p2, a1, a2, {})


def transfer_to_minimal(
    kind: "DecompositionKind | str", a: Dfa, d: Decomposition
) -> Decomposition:
    """Re-verify an ``ai``/``si``/``wai`` decomposition against the minimal
    automaton of ``a``.  Success is guaranteed; failure signals a bug here."""
    kind = _as_kind(kind)
    if kind not in (DecompositionKind.AI, DecompositionKind.SI, DecompositionKind.WAI):
        raise InputError("transfer is defined for the ai, si and wai kinds")
    first = verify(kind, a, d.a1, d.a2)
    if not first:
        raise InputError(
            f"decomposition does not verify against the given automaton: {first.reason}"
        )
    mdfa, _ = minimize(a)
    result = verify(kind, mdfa, d.a1, d.a2)
    if not result:
        raise RuntimeError(
            "internal invariant violated: decomposition failed against the "
            f"minimal automaton: {result.reason}"
        )
    return result
