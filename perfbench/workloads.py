"""Seeded job lists for the three benchmark workloads.

Every job is one ``decomp`` command line plus the DFA text it reads on stdin.
Inputs are generated from the seed during set-up and serialized with
``print_dfa``; the program under test only ever sees that text.  Fixed
families get a seeded state order, so every input depends on the seed while
the work it causes hardly does.  Each job carries a hand-written expectation
(see ``checks.py``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from dfadecomp import (
    Dfa,
    gen_a4b4_triple,
    gen_example31,
    gen_grid,
    gen_k_extension,
    gen_lkl,
    gen_ln,
    gen_sb_not_asb,
    min_sp_merging,
    minimize,
    parallel_connection,
    print_dfa,
    random_dfa,
    trim,
)


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    stdin: str
    dfa: Dfa  # the automaton behind ``stdin``, kept for the checks
    expect_exit: int
    check: Callable[[str], str | None]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    files: dict[str, str]  # file name -> DFA text, written to the work directory
    # Per-job limit, charged to a job that errors, answers wrongly or runs
    # out of time: about twice the workload's slowest passing job.
    limit_s: float


def relabeled(dfa, rng: random.Random):
    """The same automaton with its states listed in a seeded order."""
    order = list(range(dfa.n))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    return Dfa(
        name=dfa.name,
        states=tuple(dfa.states[i] for i in order),
        alphabet=dfa.alphabet,
        table=tuple(tuple(pos[t] for t in dfa.table[i]) for i in order),
        initial=pos[dfa.initial],
        accepting=frozenset(pos[i] for i in dfa.accepting),
    )


def random_minimal(rng: random.Random, n: int, name: str):
    """A uniformly drawn complete DFA over {a, b} that is minimal with n states."""
    while True:
        dfa, _ = minimize(random_dfa(rng, n))
        if dfa.n == n:
            states = tuple(f"s{i}" for i in range(n))
            return Dfa(name, states, dfa.alphabet, dfa.table, dfa.initial, dfa.accepting)


def _period(step) -> int:
    """Period of a map on states: the least common multiple of its cycle lengths."""
    period = 1
    for start in range(len(step)):
        seen = {}
        q = start
        while q not in seen:
            seen[q] = len(seen)
            q = step[q]
        period = math.lcm(period, len(seen) - seen[q])
    return period


def has_no_3x3_pair(dfa, max_len: int = 4) -> bool:
    """True if some word of length <= max_len acts on the states with a
    period that does not divide 6; the automaton must be minimal.

    Such an automaton has no si or wai pair of at most 3 + 3 states.  Either
    kind makes the reachable product of the pair recognize L(A), so the
    transition monoid of the minimal A divides a submonoid of T3 x T3.  Every
    group that divides such a monoid divides S3 x S3, whose exponent is 6, and
    the word's powers form a cyclic group of the word's period.
    """
    for length in range(1, max_len + 1):
        for word in itertools.product(range(len(dfa.alphabet)), repeat=length):
            step = list(range(dfa.n))
            for s in word:
                step = [dfa.table[q][s] for q in step]
            if 6 % _period(step):
                return True
    return False


def random_without_3x3_pair(rng: random.Random, n: int, name: str, draws: int = 40):
    """The first of ``draws`` random minimal n-state automata that passes
    ``has_no_3x3_pair``, so its oracle search at (3, 3) always runs to a
    certificate.  About a quarter pass; only if none does are more drawn."""
    found = None
    for draw in itertools.count(1):
        dfa = random_minimal(rng, n, name)
        if found is None and has_no_3x3_pair(dfa):
            found = dfa
        if found is not None and draw >= draws:
            return found


def trimmed_product(b1, b2, name: str):
    return trim(parallel_connection(b1, b2, name=name))


def length_counter(p: int, name: str):
    """All-accepting counter of word length modulo p over {a, b}."""
    return Dfa(
        name=name,
        states=tuple(f"c{i}" for i in range(p)),
        alphabet=("a", "b"),
        table=tuple(((i + 1) % p, (i + 1) % p) for i in range(p)),
        initial=0,
        accepting=frozenset(range(p)),
    )


class _Builder:
    def __init__(self, name: str, seed: int, workdir: Path, limit_s: float):
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.workload = Workload(name, [], {}, limit_s)

    def add(self, id_, argv, dfa, expect_exit, check):
        job = Job(id_, tuple(argv), print_dfa(dfa), dfa, expect_exit, check)
        self.workload.jobs.append(job)

    def file(self, name: str, dfa) -> str:
        self.workload.files[name] = print_dfa(dfa)
        return str(self.workdir / name)

    def decompose(self, label, dfa, kind, expect_exit, **expect):
        self.add(
            f"decompose/{label}/{kind}",
            ["decompose", "--kind", kind, "--format", "json"],
            dfa,
            expect_exit,
            lambda out, d=dfa: checks.decompose(out, kind, d, **expect),
        )

    def oracle(self, label, dfa, kind, m1, m2, expect_exit):
        self.add(
            f"oracle/{label}/{kind}{m1}{m2}",
            ["oracle", "--kind", kind, "--max1", str(m1), "--max2", str(m2)],
            dfa,
            expect_exit,
            lambda out, d=dfa: checks.oracle(out, kind, d, m1, m2),
        )

    def minimize(self, label, dfa, states=None):
        self.add(
            f"minimize/{label}",
            ["minimize"],
            dfa,
            0,
            lambda out, d=dfa: checks.minimize(out, d, states),
        )

    def verify(self, label, dfa, kind, a1, a2, expect_exit, message):
        f1 = self.file(f"{label}.a1.dfa", a1)
        f2 = self.file(f"{label}.a2.dfa", a2)
        self.add(
            f"verify/{label}/{kind}",
            ["verify", "--kind", kind, "-", f1, f2],
            dfa,
            expect_exit,
            lambda out: checks.verify(out, kind, message),
        )

    def lattice(self, label, dfa, count):
        self.add(
            f"lattice/{label}",
            ["lattice"],
            dfa,
            0,
            lambda out, d=dfa: checks.lattice(out, d, count),
        )


def decompose_workload(seed: int, workdir: Path) -> Workload:
    """Lattice, pair scan and redundancy do nearly all the work."""
    # Slowest passing job: grid(4,4) sb, about 3.5 s on a 2-vCPU Xeon VM.
    b = _Builder("decompose", seed, workdir, limit_s=8.0)
    rng = b.rng
    kinds = ("sb", "asb", "ai", "wai")
    # The ai jobs on grids and counters hit the spurious SizeLimitError
    # (exit 3); they keep the exit 0 the theory gives and count as failed.
    grid35 = relabeled(gen_grid(3, 5), rng)
    for kind in kinds:
        expect = {} if kind == "ai" else {"nonredundant": [(3, 5)]}
        b.decompose("grid3x5", grid35, kind, 0, **expect)
    grid44 = relabeled(gen_grid(4, 4), rng)
    b.decompose("grid4x4", grid44, "sb", 0, nonredundant=[(4, 4)])
    b.decompose("grid4x4", grid44, "ai", 0)
    b.decompose("grid3x6", relabeled(gen_grid(3, 6), rng), "ai", 0)
    for k, l in ((4, 6), (6, 8)):
        lkl = relabeled(gen_lkl(k, l), rng)
        for kind in kinds:
            b.decompose(f"lkl{k}x{l}", lkl, kind, 0, perfect=(k, l))
    kext = relabeled(gen_k_extension(gen_grid(2, 3), 3), rng)
    for kind in kinds:
        expect = {"nonredundant": [(5, 6)]} if kind in ("sb", "asb") else {}
        b.decompose("kext2x3", kext, kind, 0, **expect)
    sb_not_asb = relabeled(gen_sb_not_asb(), rng)
    for kind, code in zip(kinds, (0, 1, 1, 0)):
        b.decompose("sb_not_asb", sb_not_asb, kind, code)
    ex_min, ex_prime = (relabeled(d, rng) for d in gen_example31())
    for kind in kinds:
        b.decompose("example31_min", ex_min, kind, 1)
        expect = {"contains": (2, 4)} if kind == "asb" else {}
        b.decompose("example31_prime", ex_prime, kind, 0, **expect)
    a4b4 = relabeled(gen_a4b4_triple()[0], rng)
    for kind in kinds:
        b.decompose("a4b4", a4b4, kind, 1)
    for i, (p, n1, n2) in enumerate(_small_products(rng)):
        for kind in ("sb", "wai"):
            b.decompose(f"prod{i}", p, kind, 0, contains=(min(n1, n2), max(n1, n2)))
    return b.workload


def _small_products(rng, draws=40, keep=2):
    """Seeded trimmed products of random minimal 3-5-state automata.

    The two projections always give an sb/wai pair of the factor sizes.  Of
    a fixed number of draws (so set-up does the same work for every seed),
    the products with 9-14 states and closest to four distinct atoms are
    kept.  That holds their lattices to a handful of elements: left free,
    the cost of these jobs swings by three orders of magnitude with the
    seed.  asb and ai stay off them for the same reason.
    """
    scored = []
    for draw in range(draws):
        n1, n2 = rng.randint(3, 5), rng.randint(3, 5)
        a, b = random_minimal(rng, n1, f"f{draw}a"), random_minimal(rng, n2, f"f{draw}b")
        p = trimmed_product(a, b, f"prod{draw}")
        if not 9 <= p.n <= 14 or p.n <= max(n1, n2):
            continue
        names = p.states
        atoms = {min_sp_merging(p, x, y) for i, x in enumerate(names) for y in names[i + 1 :]}
        scored.append((abs(len(atoms) - 4), draw, p, n1, n2))
    return [(p, n1, n2) for _, _, p, n1, n2 in sorted(scored, key=lambda t: t[:2])[:keep]]


def oracle_workload(seed: int, workdir: Path) -> Workload:
    """Candidate generation and many tiny triple searches do the work."""
    # Slowest passing job: example31_min ai, about 7 s on a 2-vCPU Xeon VM.
    b = _Builder("oracle", seed, workdir, limit_s=15.0)
    rng = b.rng
    a4b4 = relabeled(gen_a4b4_triple()[0], rng)
    b.oracle("a4b4", a4b4, "si", 3, 3, 1)
    b.oracle("a4b4", a4b4, "wai", 3, 3, 1)
    ex_min, ex_prime = (relabeled(d, rng) for d in gen_example31())
    b.oracle("example31_min", ex_min, "ai", 3, 3, 0)
    b.oracle("example31_prime", ex_prime, "si", 3, 4, 0)
    b.oracle("lkl2x3", relabeled(gen_lkl(2, 3), rng), "ai", 2, 3, 0)
    b.oracle("ln5", gen_ln(5), "wai", 4, 4, 1)
    b.oracle("ln6", gen_ln(6), "wai", 5, 5, 1)
    # Random minimal automata kept only when theory fixes their verdict: a
    # find would stop the search at a seed-dependent point.
    b.oracle("rand5", random_without_3x3_pair(rng, 5, "rand5"), "wai", 3, 3, 1)
    b.oracle("rand6", random_without_3x3_pair(rng, 6, "rand6"), "si", 3, 3, 1)
    return b.workload


def large_workload(seed: int, workdir: Path) -> Workload:
    """Parsing, minimization and one huge product search do the work."""
    # Slowest passing job: the sb verify, about 4.6 s on a 2-vCPU Xeon VM.
    b = _Builder("large", seed, workdir, limit_s=10.0)
    rng = b.rng
    # Moore refinement needs one round per chain step.
    for k in (1000, 500):
        b.minimize(f"kext{k}", relabeled(gen_k_extension(gen_grid(2, 3), k), rng), k + 6)
    # A random automaton times a residue counter: 7-8.5k states whatever the
    # seed, where a product of two random automata swings by +-15%.
    for i in range(2):
        p = trimmed_product(minimize(random_dfa(rng, 140))[0], gen_lkl(8, 9), f"wide{i}")
        b.minimize(f"wide{i}", relabeled(p, rng), None)
    # Two residue counters against themselves padded with all-accepting
    # length counters: the same language, and every one of the 35*63*400
    # (state, length mod 16, length mod 25) combinations is reachable.
    f1, f2 = gen_lkl(5, 7), gen_lkl(7, 9)
    prod = relabeled(trimmed_product(f1, f2, "lkl35x63"), rng)
    a1 = relabeled(parallel_connection(f1, length_counter(16, "len16"), name="f1pad"), rng)
    a2 = relabeled(parallel_connection(f2, length_counter(25, "len25"), name="f2pad"), rng)
    b.verify("padded", prod, "ai", a1, a2, 0, "verified")
    # Many pairs reach one state, so the embedding cannot be injective.
    b.verify("padded", prod, "sb", a1, a2, 1, "refused: state is reached through two distinct pairs")
    b.lattice("lkl8x10", relabeled(gen_lkl(8, 10), rng), 22)
    return b.workload


WORKLOADS = {
    "decompose": decompose_workload,
    "oracle": oracle_workload,
    "large": large_workload,
}


def write_files(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (directory / name).write_text(text)
