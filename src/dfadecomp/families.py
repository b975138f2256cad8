"""Constructive generators for the named automaton families used as fixtures.

Each generator builds its automaton explicitly from the defining arithmetic
(thresholds, residue counters, saturating grids), so the rest of the package
can be validated against these independently constructed inputs.
"""

from __future__ import annotations

import random
import string
from typing import Sequence

from .automata import Dfa, _distinct_names, trim
from .errors import InputError
from .partitions import Partition, minimize


def gen_ln(n: int) -> Dfa:
    """Minimal DFA for the unary words of length at least n-1: a chain of n
    states whose last state accepts and self-loops."""
    if n < 1:
        raise InputError("chain length must be at least 1")
    states = tuple(f"q{i}" for i in range(n))
    table = tuple((min(i + 1, n - 1),) for i in range(n))
    return Dfa(
        name=f"ln{n}",
        states=states,
        alphabet=("a",),
        table=table,
        initial=0,
        accepting=frozenset({n - 1}),
    )


def gen_lkl(k: int, l: int) -> Dfa:
    """Minimal toroidal counter DFA: accepts words whose a-count is divisible
    by k and b-count divisible by l."""
    if k < 2 or l < 2:
        raise InputError("both moduli must be at least 2")
    states = tuple(f"q{i}_{j}" for i in range(k) for j in range(l))
    table = tuple(
        (((i + 1) % k) * l + j, i * l + (j + 1) % l) for i in range(k) for j in range(l)
    )
    return Dfa(
        name=f"lkl{k}x{l}",
        states=states,
        alphabet=("a", "b"),
        table=table,
        initial=0,
        accepting=frozenset({0}),
    )


def gen_grid(r: int, s: int) -> Dfa:
    """Saturating two-counter grid automaton with r*s states.

    The symbol a advances the first coordinate up to r-1 and then loops; b
    does the same for the second coordinate up to s-1.  Only the far corner
    accepts.
    """
    if r < 2 or s < 2:
        raise InputError("both grid dimensions must be at least 2")
    states = tuple(f"q{i}_{j}" for i in range(r) for j in range(s))
    table = tuple(
        (min(i + 1, r - 1) * s + j, i * s + min(j + 1, s - 1))
        for i in range(r)
        for j in range(s)
    )
    return Dfa(
        name=f"grid{r}x{s}",
        states=states,
        alphabet=("a", "b"),
        table=table,
        initial=0,
        accepting=frozenset({r * s - 1}),
    )


def gen_k_extension(dfa: Dfa, k: int, fresh_symbol: str | None = None) -> Dfa:
    """Prepend a k-step entry chain on a fresh symbol.

    The chain states advance only on the fresh symbol (other symbols
    self-loop), the last chain step enters the original initial state, and the
    original states self-loop on the fresh symbol.  Adds k states and one
    symbol; the accepting set is unchanged.
    """
    if k < 1:
        raise InputError("extension length must be at least 1")
    if fresh_symbol is None:
        for candidate in string.ascii_lowercase[2:]:
            if candidate not in dfa.alphabet:
                fresh_symbol = candidate
                break
        else:
            raise InputError("no available fresh symbol")
    elif fresh_symbol in dfa.alphabet:
        raise InputError(f"symbol {fresh_symbol!r} is already in the alphabet")
    chain = _distinct_names(dfa.states + tuple(f"p{i}" for i in range(k)))[dfa.n:]
    rows = []
    for i in range(k):
        rows.append(tuple([i] * len(dfa.alphabet)) + (i + 1 if i < k - 1 else k + dfa.initial,))
    for i in range(dfa.n):
        rows.append(tuple(k + t for t in dfa.table[i]) + (k + i,))
    return Dfa(
        name=f"{dfa.name}_ext{k}",
        states=chain + dfa.states,
        alphabet=dfa.alphabet + (fresh_symbol,),
        table=tuple(rows),
        initial=0,
        accepting=frozenset(k + i for i in dfa.accepting),
    )


def gen_example31() -> tuple[Dfa, Dfa]:
    """The paired 5- and 6-state automata for the even-a-then-even-b language.

    Both accept the same language; the 6-state variant has the partition pair
    returned by :func:`gen_example31_partitions`, which the 5-state minimal
    one provably lacks.
    """
    a_min = Dfa.build(
        name="example31_min",
        states=("a0", "a1", "b0", "b1", "R"),
        alphabet=("a", "b"),
        delta={
            ("a0", "a"): "a1",
            ("a0", "b"): "b1",
            ("a1", "a"): "a0",
            ("a1", "b"): "R",
            ("b0", "a"): "R",
            ("b0", "b"): "b1",
            ("b1", "a"): "R",
            ("b1", "b"): "b0",
            ("R", "a"): "R",
            ("R", "b"): "R",
        },
        initial="a0",
        accepting=("a0", "b0"),
    )
    a_prime = Dfa.build(
        name="example31_prime",
        states=("a0", "a1", "b0", "b1", "R0", "R1"),
        alphabet=("a", "b"),
        delta={
            ("a0", "a"): "a1",
            ("a0", "b"): "b1",
            ("a1", "a"): "a0",
            ("a1", "b"): "R1",
            ("b0", "a"): "R0",
            ("b0", "b"): "b1",
            ("b1", "a"): "R1",
            ("b1", "b"): "b0",
            ("R0", "a"): "R0",
            ("R0", "b"): "R1",
            ("R1", "a"): "R1",
            ("R1", "b"): "R0",
        },
        initial="a0",
        accepting=("a0", "b0"),
    )
    return a_min, a_prime


def gen_example31_partitions() -> tuple[Partition, Partition]:
    """The fixture partition pair on the 6-state variant: meet zero and a
    separation of the accepting states, yielding 2- and 4-state factors."""
    pi1 = Partition([[0], [1], [2, 3], [4, 5]])
    pi2 = Partition([[0, 1, 2, 4], [3, 5]])
    return pi1, pi2


def gen_a4b4_triple() -> tuple[Dfa, Dfa, Dfa]:
    """Minimal automata for a*4-then-b*4 words and the two factor languages.

    The main language is a^(4k) b^(4l) with at least four b's; the factors
    relax it to any positive number of b's, and to any word whose b-count is
    divisible by four.  All three are built directly and then minimized.
    """
    main = Dfa.build(
        name="a4b4_direct",
        states=("A0", "A1", "A2", "A3", "B1", "B2", "B3", "B0", "R"),
        alphabet=("a", "b"),
        delta={
            **{(f"A{i}", "a"): f"A{(i + 1) % 4}" for i in range(4)},
            ("A0", "b"): "B1",
            ("A1", "b"): "R",
            ("A2", "b"): "R",
            ("A3", "b"): "R",
            ("B1", "b"): "B2",
            ("B2", "b"): "B3",
            ("B3", "b"): "B0",
            ("B0", "b"): "B1",
            **{(f"B{j}", "a"): "R" for j in range(4)},
            ("R", "a"): "R",
            ("R", "b"): "R",
        },
        initial="A0",
        accepting=("B0",),
    )
    first = Dfa.build(
        name="a4b_direct",
        states=("A0", "A1", "A2", "A3", "B", "R"),
        alphabet=("a", "b"),
        delta={
            **{(f"A{i}", "a"): f"A{(i + 1) % 4}" for i in range(4)},
            ("A0", "b"): "B",
            ("A1", "b"): "R",
            ("A2", "b"): "R",
            ("A3", "b"): "R",
            ("B", "a"): "R",
            ("B", "b"): "B",
            ("R", "a"): "R",
            ("R", "b"): "R",
        },
        initial="A0",
        accepting=("B",),
    )
    second = Dfa.build(
        name="b4_direct",
        states=("C0", "C1", "C2", "C3"),
        alphabet=("a", "b"),
        delta={
            **{(f"C{j}", "a"): f"C{j}" for j in range(4)},
            **{(f"C{j}", "b"): f"C{(j + 1) % 4}" for j in range(4)},
        },
        initial="C0",
        accepting=("C0",),
    )
    out = []
    for direct, name in ((main, "a4b4"), (first, "a4b4_l1"), (second, "a4b4_l2")):
        m, _ = minimize(direct)
        out.append(Dfa(name, m.states, m.alphabet, m.table, m.initial, m.accepting))
    return tuple(out)


def gen_sb_not_asb() -> Dfa:
    """15-state residue-pair counter over {a, b, c} whose accepting set is the
    two cells (0, 0) and (2, 4).

    It has meet-zero partition pairs (hence state-behavior decompositions) but
    no block choice separates the two accepting cells.
    """
    states = tuple(f"q{i}_{j}" for i in range(3) for j in range(5))
    table = tuple(
        (((i + 1) % 3) * 5 + j, i * 5 + (j + 1) % 5, i * 5 + j)
        for i in range(3)
        for j in range(5)
    )
    return Dfa(
        name="sb_not_asb",
        states=states,
        alphabet=("a", "b", "c"),
        table=table,
        initial=0,
        accepting=frozenset({0, 2 * 5 + 4}),
    )


def random_dfa(
    rng: random.Random,
    n: int,
    alphabet: Sequence[str] = ("a", "b"),
    trim_unreachable: bool = False,
) -> Dfa:
    """Uniform random complete DFA for property tests; deterministic per rng."""
    if n < 1:
        raise InputError("need at least one state")
    table = tuple(
        tuple(rng.randrange(n) for _ in alphabet) for _ in range(n)
    )
    accepting = frozenset(i for i in range(n) if rng.random() < 0.5)
    dfa = Dfa(
        name=f"rand{n}",
        states=tuple(f"q{i}" for i in range(n)),
        alphabet=tuple(alphabet),
        table=table,
        initial=0,
        accepting=accepting,
    )
    return trim(dfa) if trim_unreachable else dfa
