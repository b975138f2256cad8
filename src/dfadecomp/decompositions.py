"""Verification and construction of the five solver/advisor decomposition kinds.

A decomposition of an automaton A is a pair (A1, A2) read in parallel:

* ``ai``  -- the pair's language intersection equals L(A);
* ``si``  -- the joint final states determine A's final state (a mapping);
* ``wai`` -- the joint final states determine acceptance only (a relation);
* ``sb``  -- the parallel connection embeds A's transition structure
  (an injective state mapping);
* ``asb`` -- ``sb`` with acceptance carried along blockwise.

Constructive enumeration works over the lattice of substitution-property
partitions; verification works by a joint breadth-first search of the triple
product, so each returned witness is checked on every reachable configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .automata import Dfa, _triple_bfs, _word_to, minimize, reachable_indexes
from .errors import InputError
from .partitions import (
    Labels,
    Partition,
    SeparationWitness,
    SpLattice,
    _separation,
    is_distributive,
    join,
    meet,
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
    decomposition: Decomposition
    nontrivial: bool
    perfect: bool
    redundant: bool


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
    For those kinds each reachable pair keeps the first state it reaches, and
    the refused pair is the earliest reached one that meets a second state
    (for ``wai``, one that differs on acceptance).
    """
    kind = _as_kind(kind)
    _require_reachable(a, kind)
    order, parents = _triple_bfs(a, a1, a2)

    if kind in (DecompositionKind.AI, DecompositionKind.ASB):
        for triple in order:
            i, j, k = triple
            if (i in a.accepting) != (j in a1.accepting and k in a2.accepting):
                word = _word_to(parents, triple, a.alphabet)
                return Refusal(
                    f"languages differ on word {''.join(word) or '(empty)'!r}", word
                )
        if kind is DecompositionKind.AI:
            return Decomposition(kind, a1, a2, None)

    # Each reachable pair keeps the first state it reaches; a pair that later
    # meets another state (under wai, one of the other acceptance) clashes.
    wai = kind is DecompositionKind.WAI
    first: dict[tuple[int, int], int] = {}
    clashing = set()
    for i, j, k in order:
        f = first.setdefault((j, k), i)
        if f != i and (not wai or (f in a.accepting) != (i in a.accepting)):
            clashing.add((j, k))

    def named(pair: tuple[int, int]) -> tuple[str, str]:
        return a1.states[pair[0]], a2.states[pair[1]]

    if clashing:
        pair = next(p for p in first if p in clashing)
        states = {a.states[i] for i, j, k in order if (j, k) == pair}
        reason = (
            "reachable pair maps to states disagreeing on acceptance"
            if wai
            else "reachable pair corresponds to more than one state"
        )
        return Refusal(reason, (named(pair), tuple(sorted(states))))
    if wai:
        relation = frozenset(named(p) for p, i in first.items() if i in a.accepting)
        return Decomposition(kind, a1, a2, relation)
    if kind is DecompositionKind.SI:
        return Decomposition(kind, a1, a2, {named(p): a.states[i] for p, i in first.items()})

    # sb and asb also need distinct pairs to reach distinct states.
    pair_of: dict[int, tuple[int, int]] = {}
    for pair, i in first.items():
        earlier = pair_of.setdefault(i, pair)
        if earlier != pair:
            return Refusal(
                "state is reached through two distinct pairs; the embedding "
                "cannot be injective",
                (a.states[i], named(earlier), named(pair)),
            )
    return Decomposition(kind, a1, a2, {a.states[i]: named(p) for i, p in pair_of.items()})


def _entry_from_partitions(
    a: Dfa,
    kind: DecompositionKind,
    pa: Partition,
    pb: Partition,
    separation: SeparationWitness | None = None,
) -> Decomposition:
    """The quotient pair of (pa, pb) with its kind's witness; the quotients
    accept the blocks that ``separation`` picks, or none without one."""
    acc1, acc2 = (separation.blocks_from_1, separation.blocks_from_2) if separation else ((), ())
    a1 = quotient(a, pa, acc1, name=f"{a.name}_q1")
    a2 = quotient(a, pb, acc2, name=f"{a.name}_q2")
    if kind is DecompositionKind.AI:
        witness = separation
    elif kind is DecompositionKind.WAI:
        witness = frozenset(
            (a1.states[i], a2.states[j])
            for i, b1 in enumerate(pa.blocks)
            for j, b2 in enumerate(pb.blocks)
            if set(b1) & set(b2) <= set(a.accepting)
        )
    else:
        witness = {
            a.states[i]: (a1.states[pa.block_index[i]], a2.states[pb.block_index[i]])
            for i in range(a.n)
        }
    return Decomposition(kind, a1, a2, witness, (pa, pb))


def _emission_condition(
    kind: DecompositionKind, a: Dfa
) -> Callable[[Labels, Labels], object]:
    """The sufficient condition each decompose_* uses to emit a lattice pair,
    read off the pair's label vectors (``Partition.block_index``).

    For ``ai`` and ``asb`` a satisfied condition returns its
    :class:`SeparationWitness`.  Also reused by the redundancy check.  Every
    condition is down-closed: if it holds for a pair it holds for every finer
    pair, since meets only shrink and the blocks meeting the accepting states
    only shrink along with them.
    """
    n = a.n
    finals = sorted(a.accepting)
    others = [i for i in range(n) if i not in a.accepting]

    def meet_zero(x: Labels, y: Labels) -> bool:
        return len(set(zip(x, y))) == n

    def separation(x: Labels, y: Labels) -> SeparationWitness | None:
        return _separation(x, y, finals, others)

    if kind is DecompositionKind.SB:
        return meet_zero
    if kind is DecompositionKind.ASB:
        return lambda x, y: separation(x, y) if meet_zero(x, y) else None
    if kind is DecompositionKind.AI:
        return separation
    if kind is DecompositionKind.WAI:
        accepting = [i in a.accepting for i in range(n)]

        def meet_refines_acceptance(x: Labels, y: Labels) -> bool:
            cell_accepts: dict[tuple[int, int], bool] = {}
            return all(
                cell_accepts.setdefault(cell, acc) == acc
                for cell, acc in zip(zip(x, y), accepting)
            )

        return meet_refines_acceptance
    raise InputError(f"no lattice-based construction for kind {kind.value!r}")


def _decompose(a: Dfa, kind: DecompositionKind) -> DecompositionReport:
    _require_reachable(a, kind)
    lattice = sp_lattice(a)
    condition = _emission_condition(kind, a)
    # Every condition is symmetric, so scanning the elements coarsest first
    # yields each pair in its reported orientation.
    factors = sorted(lattice.nontrivial(), key=lambda pi: (pi.num_blocks, pi.blocks))
    entries = []
    for pa, pb in itertools.combinations_with_replacement(factors, 2):
        outcome = condition(pa.block_index, pb.block_index)
        if not outcome:
            continue
        separation = outcome if isinstance(outcome, SeparationWitness) else None
        d = _entry_from_partitions(a, kind, pa, pb, separation)
        entries.append(
            ReportEntry(
                decomposition=d,
                nontrivial=d.a1.n < a.n and d.a2.n < a.n,
                perfect=d.a1.n * d.a2.n == a.n,
                redundant=is_redundant(a, d, lattice=lattice),
            )
        )
    entries.sort(
        key=lambda e: (
            e.decomposition.a1.n,
            e.decomposition.a2.n,
            e.decomposition.source_partitions[0].blocks,
            e.decomposition.source_partitions[1].blocks,
        )
    )
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
    if p1 not in lat or p2 not in lat:
        raise InputError("source partitions are not elements of the automaton's lattice")
    x, y = p1.block_index, p2.block_index
    coarser = lat.elements
    return any(condition(coarser[j].block_index, y) for j in lat.above[lat.index[p1]]) or any(
        condition(x, coarser[j].block_index) for j in lat.above[lat.index[p2]]
    )


def project_to_minimal(a: Dfa, d: Decomposition) -> Decomposition | Refusal:
    """Carry a partition-built state-behavior decomposition over to the
    minimal automaton, shrinking neither factor.

    Requires the source lattice to be distributive; otherwise the size-bounded
    projection is not guaranteed to exist and a refusal is returned.
    """
    if d.kind not in (DecompositionKind.SB, DecompositionKind.ASB):
        raise InputError("projection is defined for state-behavior decompositions")
    if d.source_partitions is None:
        raise InputError("projection needs the source partitions")
    _require_reachable(a, d.kind)
    lat = sp_lattice(a)
    if not is_distributive(lat):
        return Refusal(
            "the lattice of substitution-property partitions is not distributive, "
            "so the size-preserving projection is not guaranteed"
        )
    mdfa, f = minimize(a)
    labels = [mdfa.state_index(f[q]) for q in a.states]
    rho = Partition.from_assignment(labels)
    projected = []
    for pi in d.source_partitions:
        sigma = join(rho, pi)
        projected.append(
            Partition({labels[i] for i in block} for block in sigma.blocks)
        )
    p1, p2 = projected
    if meet(p1, p2) != Partition.singletons(mdfa.n):
        raise RuntimeError(
            "internal invariant violated: projected partitions do not meet to zero"
        )
    return _entry_from_partitions(mdfa, DecompositionKind.SB, p1, p2)


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
