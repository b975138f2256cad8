"""Fast paths against their oracles on seeded and drawn random automata: the index
lattice, its pair-graph components, its join-irreducibles and join steps, its
pair-mask keys, the emission conditions,
redundancy and distributivity against brute force, ``verify``, ``minimize``
and the product and pair searches and the oracle's first factors against
their earlier forms in helpers, and
the word of an ``ai`` refusal against enumeration."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfadecomp import (
    Decomposition,
    Dfa,
    DecompositionKind,
    InputError,
    Refusal,
    accepts,
    brute_sp_partitions,
    decompose_ai_sufficient,
    decompose_asb,
    decompose_sb,
    decompose_wai_sufficient,
    decomposable,
    gen_a4b4_triple,
    gen_example31,
    gen_grid,
    gen_k_extension,
    gen_lkl,
    gen_ln,
    gen_sb_not_asb,
    is_distributive,
    leq,
    meet,
    min_sp_merging,
    minimize,
    parallel_connection,
    print_dfa,
    random_dfa,
    sp_lattice,
    trim,
    verify,
)
from dfadecomp.automata import _pair_states, _triple_bfs, reachable_indexes
from dfadecomp.decompositions import _emission_condition, _entry_from_partitions
from dfadecomp.oracle import _candidate, _first_factors, candidate_automata
from dfadecomp.partitions import _hopcroft, _pair_components, quotient

import helpers

DECOMPOSERS = {
    DecompositionKind.SB: decompose_sb,
    DecompositionKind.ASB: decompose_asb,
    DecompositionKind.AI: decompose_ai_sufficient,
    DecompositionKind.WAI: decompose_wai_sufficient,
}

# The O(|L|^3) distributivity oracle runs only on lattices up to this size.
TRIPLE_ORACLE_LIMIT = 40


def _random_trimmed(seed: int, most: int = 7) -> Dfa:
    """A trimmed automaton of at most ``most`` states over 1-3 symbols.  Plain
    random automata mostly have trivial lattices, so two seeds in three draw a
    product of two small automata, or an automaton whose transitions are
    mostly self-loops, which many partitions respect."""
    rng = random.Random(seed)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    if seed % 3 == 0:
        return random_dfa(rng, rng.randint(1, most), alphabet, trim_unreachable=True)
    if seed % 3 == 1:
        n1 = rng.randint(2, 3)
        a1 = random_dfa(rng, n1, alphabet)
        a2 = random_dfa(rng, rng.randint(2, most // n1), alphabet)
        return trim(parallel_connection(a1, a2))
    n = rng.randint(2, most)
    table = [[i if rng.random() < 0.7 else rng.randrange(n) for _ in alphabet] for i in range(n)]
    # A spanning tree from state 0 keeps every state reachable, so each tree
    # edge takes a cell that no earlier one wrote.
    free = []
    for i in range(1, n):
        free += [(i - 1, u) for u in range(len(alphabet))]
        p, u = free.pop(rng.randrange(len(free)))
        table[p][u] = i
    return Dfa(
        name=f"loops{n}",
        states=tuple(f"q{i}" for i in range(n)),
        alphabet=alphabet,
        table=tuple(map(tuple, table)),
        initial=0,
        accepting=frozenset(i for i in range(n) if rng.random() < 0.5),
    )


@pytest.mark.parametrize("seed", range(90))
def test_index_lattice_matches_oracles(seed):
    a = _random_trimmed(seed)
    assert len(reachable_indexes(a)) == a.n
    lattice = sp_lattice(a)
    elements = lattice.elements
    assert set(elements) == brute_sp_partitions(a)
    assert len(elements) == len(set(elements))
    assert all(lattice.index[pi] == i for i, pi in enumerate(elements))

    fs = [helpers.fs(pi) for pi in elements]
    for i, ups in enumerate(lattice.above):
        assert all(helpers.fs_refines(fs[i], fs[j]) and fs[i] != fs[j] for j in ups)
        for k, z in enumerate(fs):
            if k != i and helpers.fs_refines(fs[i], z):
                assert any(helpers.fs_refines(fs[j], z) for j in ups), (i, k)

    for kind, decompose in DECOMPOSERS.items():
        for e in decompose(a).entries:
            assert e.redundant == helpers.redundant_by_scan(a, e.decomposition, lattice), kind

    if len(elements) <= TRIPLE_ORACLE_LIMIT:
        assert is_distributive(lattice) == helpers.distributive_by_triples(lattice)


FIXTURES = [
    gen_grid(2, 3),
    gen_grid(3, 3),
    gen_lkl(2, 3),
    gen_lkl(4, 4),
    gen_lkl(4, 6),
    gen_ln(4),
    gen_ln(6),
    gen_sb_not_asb(),
    *gen_example31(),
    *gen_a4b4_triple(),
]
LATTICE_INPUTS = [_random_trimmed(seed) for seed in range(90)] + FIXTURES


@pytest.mark.parametrize("a", LATTICE_INPUTS, ids=lambda a: a.name)
def test_pair_components_give_one_root_per_mutual_reachability_class(a):
    pairs = list(itertools.combinations(range(a.n), 2))
    reach = {}  # pair -> every pair it reaches in the pair graph, itself included
    for pair in pairs:
        seen, frontier = {pair}, [pair]
        while frontier:
            p, t = frontier.pop()
            for x, y in zip(a.table[p], a.table[t]):
                step = (min(x, y), max(x, y))
                if x != y and step not in seen:
                    seen.add(step)
                    frontier.append(step)
        reach[pair] = seen
    classes = {frozenset(v for v in reach[u] if u in reach[v]) for u in pairs}
    roots = _pair_components(a)
    assert all((p, t) in reach for p, t, _ in roots)  # each root is a state pair p < t
    assert len(roots) == len(classes)
    assert {c for c in classes for p, t, _ in roots if (p, t) in c} == classes
    for c in classes:
        atoms = {min_sp_merging(a, a.states[p], a.states[t]) for p, t in c}
        assert len(atoms) == 1, sorted(c)
    # A root is flagged a sink iff nothing outside its class is reachable.
    for p, t, sink in roots:
        assert sink == (reach[p, t] == {v for v in reach[p, t] if (p, t) in reach[v]}), (p, t)
    # Every minimal atom is the closure of a sink root.
    atoms = {min_sp_merging(a, a.states[p], a.states[t]) for p, t in pairs}
    sink_atoms = {min_sp_merging(a, a.states[p], a.states[t]) for p, t, sink in roots if sink}
    minimal = {x for x in atoms if not any(y != x and leq(y, x) for y in atoms)}
    assert minimal <= sink_atoms


def _decomposable_by_scan(kind: DecompositionKind, a: Dfa) -> bool:
    """Whether two nontrivial lattice elements, the same one twice allowed,
    satisfy the kind's condition, through ``meet``, ``separates_finals`` and
    ``leq`` on every pair."""
    condition = helpers.scan_condition(kind, a)
    factors = sp_lattice(a).nontrivial()
    return any(condition(x, y) for x, y in itertools.combinations_with_replacement(factors, 2))


SEEDED_UP_TO_NINE = [_random_trimmed(seed, most=9) for seed in range(400)]
DECISION_INPUTS = SEEDED_UP_TO_NINE + FIXTURES + [helpers.hub(n) for n in range(5, 9)]


@pytest.mark.parametrize("a", DECISION_INPUTS, ids=lambda a: a.name)
def test_an_empty_report_is_decided_as_the_scan_decides(a):
    for kind in DECOMPOSERS:
        _check_decision(kind, a)


@pytest.mark.parametrize("seed", range(200))
def test_an_empty_ai_report_of_an_untrimmed_input_is_decided_as_the_scan_decides(seed):
    rng = random.Random(-1 - seed)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    _check_decision(DecompositionKind.AI, random_dfa(rng, rng.randint(1, 9), alphabet))


@pytest.mark.parametrize("kind", [DecompositionKind.SB, DecompositionKind.ASB])
def test_hub9_has_no_state_behavior_entry_as_the_scan_decides(kind):
    # Its ai and wai reports list 385003 entries each, so only the empty ones run.
    _check_decision(kind, helpers.hub(9))


def _check_decision(kind: DecompositionKind, a: Dfa) -> None:
    """The report and ``decomposable`` agree with the scan, and the pair that
    ``decomposable`` returns is the source of one of the report's entries."""
    expected = _decomposable_by_scan(kind, a)
    sources = [e.source_partitions for e in DECOMPOSERS[kind](a).entries]
    assert bool(sources) == expected, kind
    pair = decomposable(a, kind)
    assert (pair is not None) == expected, kind
    assert pair is None or pair in sources, kind


def test_the_decision_comparison_sees_both_outcomes_for_every_kind():
    for kind in DECOMPOSERS:
        assert {_decomposable_by_scan(kind, a) for a in SEEDED_UP_TO_NINE} == {True, False}, kind


@pytest.mark.parametrize("a", LATTICE_INPUTS, ids=lambda a: a.name)
def test_irreducibles_and_join_steps_match_the_covers(a):
    lattice = sp_lattice(a)
    fs = [helpers.fs(pi) for pi in lattice.elements]
    size = len(fs)
    below = [[i != k and helpers.fs_refines(fs[i], fs[k]) for k in range(size)] for i in range(size)]
    covers = {  # (lower, upper) for each covering pair, by brute force over the elements
        (i, k)
        for i, k in itertools.permutations(range(size), 2)
        if below[i][k] and not any(below[i][m] and below[m][k] for m in range(size))
    }
    lower_covers = [sum((i, k) in covers for i in range(size)) for k in range(size)]
    irreducible = [k for k in range(size) if lower_covers[k] == 1]
    assert [lattice.index[pi] for pi in lattice.irreducibles] == irreducible
    for i, ups in enumerate(lattice.above):
        assert {k for k in range(size) if (i, k) in covers} <= set(ups), i
        joins = {helpers.fs_join(fs[i], fs[j]) for j in irreducible} - {fs[i]}
        assert {fs[k] for k in ups} == joins, i
        assert len(ups) == len(joins)


@pytest.mark.parametrize(
    "a",
    LATTICE_INPUTS
    + [gen_grid(3, 5), gen_grid(3, 6), gen_grid(4, 4), gen_lkl(6, 8), gen_ln(8)]
    + [helpers.identity(6), helpers.identity(7)],
    ids=lambda a: a.name,
)
def test_join_closure_matches_joining_every_element_with_every_irreducible(a):
    # Past brute_sp_partitions' reach too: grid(4,4) has 16 states.  The
    # closure reads most joins from finished rows on grid(3,6) and identity(7).
    lattice = sp_lattice(a)
    expected = helpers.joins_by_closure(a.n, lattice.irreducibles)
    fs = [helpers.fs(pi) for pi in lattice.elements]
    assert len(fs) == len(set(fs)) and set(fs) == set(expected)
    assert [{fs[k] for k in ups} for ups in lattice.above] == [expected[x] for x in fs]


def _small_trimmed(seed: int) -> Dfa:
    """A trimmed automaton of 1-8 states, unary for odd seeds and binary for
    even ones.  Plain random automata mostly have trivial lattices, so every
    other seed draws the product of two smaller ones."""
    rng = random.Random(seed)
    alphabet = ("a",) if seed % 2 else ("a", "b")
    if seed % 4 < 2:
        return random_dfa(rng, 1 + seed % 8, alphabet, trim_unreachable=True)
    n1 = rng.randint(2, 4)
    a1 = random_dfa(rng, n1, alphabet)
    return trim(parallel_connection(a1, random_dfa(rng, rng.randint(1, 8 // n1), alphabet)))


@pytest.mark.parametrize("a", [_small_trimmed(seed) for seed in range(200)] + FIXTURES)
def test_entries_build_the_quotients_and_witness_when_read(a):
    def factor(kind, pi, role):
        # Under ai and asb a factor accepts the blocks meeting F, else nothing.
        separating = kind in (DecompositionKind.AI, DecompositionKind.ASB)
        picks = {pi.block_index[i] for i in a.accepting} if separating else ()
        return quotient(a, pi, picks, name=f"{a.name}_q{role}")

    for kind, decompose in DECOMPOSERS.items():
        for e in decompose(a).entries:
            pa, pb = e.source_partitions
            a1, a2 = factor(kind, pa, 1), factor(kind, pb, 2)
            eager = _entry_from_partitions(a, kind, pa, pb, a1, a2, {})
            d = e.decomposition
            assert d is e.decomposition
            assert (d.kind, d.a1, d.a2, d.witness, d.source_partitions) == (
                kind, eager.a1, eager.a2, eager.witness, (pa, pb)
            )
            assert (e.nontrivial, e.perfect) == (a1.n < a.n and a2.n < a.n, a1.n * a2.n == a.n)
            assert dataclasses.replace(d, witness=None).a1 is d.a1


@settings(max_examples=150, deadline=None)
@given(helpers.dfas())
def test_drawn_lattice_is_every_sp_partition(a):
    a = trim(a)
    assert set(sp_lattice(a).elements) == brute_sp_partitions(a)


@settings(max_examples=150, deadline=None)
@given(helpers.dfas())
def test_drawn_redundancy_matches_the_scan(a):
    a = trim(a)
    lattice = sp_lattice(a)
    for kind, decompose in DECOMPOSERS.items():
        for e in decompose(a).entries:
            assert e.redundant == helpers.redundant_by_scan(a, e.decomposition, lattice), kind


def test_the_distributivity_comparison_sees_both_outcomes():
    outcomes = set()
    for seed in range(90):
        lattice = sp_lattice(_random_trimmed(seed))
        if len(lattice.elements) <= TRIPLE_ORACLE_LIMIT:
            outcomes.add(is_distributive(lattice))
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(90))
def test_lattice_keys_match_partition_operations(seed):
    a = _random_trimmed(seed)
    n = a.n
    lattice = sp_lattice(a)
    elements = lattice.elements
    pairs = {}  # element -> its key's pair bits
    for pi, key in zip(elements, lattice.keys):
        merged = [(i, j) for i, j in itertools.combinations(range(n), 2) if pi.same_block(i, j)]
        pairs[pi] = sum(1 << (i * n + j) for i, j in merged)
        meets_finals = {pi.block_index[i] for i in a.accepting}
        accepting = sum(1 << i for i in range(n) if pi.block_index[i] in meets_finals)
        assert key == pairs[pi] | accepting << n * n
    conditions = {
        kind: (_emission_condition(kind, a), helpers.scan_condition(kind, a))
        for kind in DECOMPOSERS
    }
    keyed = list(zip(elements, lattice.keys))
    for (x, kx), (y, ky) in itertools.product(keyed, repeat=2):
        assert pairs[x] & pairs[y] == pairs[meet(x, y)]
        assert leq(x, y) == (pairs[x] & ~pairs[y] == 0)
        for kind, (by_key, by_partitions) in conditions.items():
            assert by_key(kx, ky) == bool(by_partitions(x, y)), kind

    def by_blocks(pair):
        return pair[0].blocks, pair[1].blocks

    factors = sorted(lattice.nontrivial(), key=lambda pi: (pi.num_blocks, pi.blocks))
    for kind, decompose in DECOMPOSERS.items():
        scan = helpers.scan_condition(kind, a)
        expected = [p for p in itertools.combinations_with_replacement(factors, 2) if scan(*p)]
        reported = [e.decomposition.source_partitions for e in decompose(a).entries]
        assert sorted(reported, key=by_blocks) == sorted(expected, key=by_blocks), kind
        # Entries come by factor sizes, then by the blocks of both partitions.
        assert reported == sorted(
            reported, key=lambda p: (p[0].num_blocks, p[1].num_blocks) + by_blocks(p)
        ), kind
    # The wai witness is every block pair whose cell holds only accepting states.
    for e in decompose_wai_sufficient(a).entries:
        d = e.decomposition
        pa, pb = d.source_partitions
        assert d.witness == frozenset(
            (d.a1.states[i], d.a2.states[j])
            for i, b1 in enumerate(pa.blocks)
            for j, b2 in enumerate(pb.blocks)
            if set(b1) & set(b2) <= a.accepting
        )


@pytest.mark.parametrize("r, s", [(4, 5), (3, 7)])
def test_ai_on_large_grids_reports_without_a_size_limit(r, s):
    # The separation of 19+19 and 20+20 blocks is decided by the minimal pick.
    report = decompose_ai_sufficient(gen_grid(r, s))
    assert report.entries
    assert sum(not e.redundant for e in report.entries) >= 1


def _random_triple(seed: int) -> tuple[Dfa, Dfa, Dfa]:
    """Two factors of 1-4 states over 1-2 symbols and an automaton to check
    them against: their trimmed product, so that every kind can succeed, its
    minimal automaton, or a random automaton with unreachable states kept."""
    rng = random.Random(seed)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    a1 = random_dfa(rng, rng.randint(1, 4), alphabet)
    a2 = random_dfa(rng, rng.randint(1, 4), alphabet)
    product = trim(parallel_connection(a1, a2))
    a = (product, minimize(product)[0], random_dfa(rng, rng.randint(1, 6), alphabet))[seed % 3]
    return a, a1, a2


def _padded_triple(seed: int) -> tuple[Dfa, Dfa, Dfa]:
    """A triple of ``_random_triple`` whose factors each run in parallel with
    a length counter of 1-4 states.  Two counters in three accept every
    residue and keep their factor's language; one draw in four checks the
    padded factors against their own trimmed product instead."""
    rng = random.Random(-1 - seed)
    a, a1, a2 = _random_triple(seed)

    def padded(f: Dfa) -> Dfa:
        p = rng.randint(1, 4)
        residues = range(p) if rng.random() < 2 / 3 else [r for r in range(p) if rng.random() < 0.5]
        return parallel_connection(f, helpers.length_counter(p, residues, f"len{p}", f.alphabet))

    a1, a2 = padded(a1), padded(a2)
    if rng.random() < 0.25:
        a = trim(parallel_connection(a1, a2))
    return a, a1, a2


def _verify_outcome(verifier, kind, a, a1, a2):
    """Everything a verification returns, with the order of a mapping kept."""
    try:
        r = verifier(kind, a, a1, a2)
    except InputError as e:
        return "error", str(e)
    if isinstance(r, Refusal):
        return "refusal", r.reason, r.detail
    assert isinstance(r, Decomposition) and (r.a1, r.a2) == (a1, a2)
    w = r.witness
    return "decomposition", r.kind, list(w.items()) if isinstance(w, dict) else w


@st.composite
def _drawn_triples(draw, alphabet="ab"):
    """An automaton and two factors of 1-5 states, unreachable states allowed,
    each factor over its own drawn order of ``alphabet``."""
    a = draw(helpers.dfas(alphabet))
    a1, a2 = (
        dataclasses.replace(
            draw(helpers.dfas(alphabet)), alphabet=tuple(draw(st.permutations(alphabet)))
        )
        for _ in range(2)
    )
    return a, a1, a2


# Binary and ternary draws: the searches loop over one column per symbol.
_binary_or_ternary_triples = st.one_of(_drawn_triples(), _drawn_triples("abc"))


@settings(max_examples=300, deadline=None)
@given(_binary_or_ternary_triples)
def test_product_search_matches_the_parent_search(triple):
    order, word_to = _triple_bfs(*triple)
    ref_order, parents = helpers.triple_bfs_with_parents(*triple)
    assert order == ref_order
    alphabet = triple[0].alphabet
    for t in order:
        assert word_to(t) == helpers.word_by_parents(parents, t, alphabet), t


@settings(max_examples=300, deadline=None)
@given(_binary_or_ternary_triples)
def test_pair_search_matches_the_product_search(triple):
    """The BFS pairs with their first states are the product search's
    first-triple map, in order, and ``more`` holds every state of A met by
    exactly the pairs that meet two or more."""
    js, ks, firsts, more = _pair_states(*triple)
    order, _ = helpers.triple_bfs_with_parents(*triple)
    ref_first: dict[tuple[int, int], int] = {}
    states: dict[tuple[int, int], set[int]] = {}
    for i, j, k in order:
        ref_first.setdefault((j, k), i)
        states.setdefault((j, k), set()).add(i)
    assert list(zip(zip(js, ks), firsts)) == list(ref_first.items())
    assert more == {p: s for p, s in states.items() if len(s) > 1}


def test_verify_matches_the_pair_set_form():
    outcomes = set()
    draws = [(seed, _random_triple(seed)) for seed in range(600)]
    draws += [(("padded", seed), _padded_triple(seed)) for seed in range(400)]
    for seed, (a, a1, a2) in draws:
        for kind in DecompositionKind:
            new = _verify_outcome(verify, kind, a, a1, a2)
            old = _verify_outcome(helpers.verify_by_pair_sets, kind, a, a1, a2)
            assert new == old, (seed, kind)
            outcomes.add((kind, new[0] if new[0] != "refusal" else new[1].split(" on word")[0]))
    assert {kind for kind, seen in outcomes if seen == "decomposition"} == set(DecompositionKind)
    assert {seen for _, seen in outcomes} == {
        "decomposition",
        "error",
        "languages differ",
        "reachable pair corresponds to more than one state",
        "reachable pair maps to states disagreeing on acceptance",
        "state is reached through two distinct pairs; the embedding cannot be injective",
    }


def test_ai_refusal_word_is_the_least_word_the_languages_differ_on():
    """The word of an ``ai`` refusal is the shortlex-least word, in A's
    alphabet order, of L(A) Δ (L(a1) ∩ L(a2)), found here by enumeration
    whenever it has at most 8 letters."""
    refused = 0
    for a, a1, a2 in itertools.chain(
        map(_random_triple, range(300)), map(_padded_triple, range(300))
    ):
        least = next(
            (
                w
                for w in helpers.words_up_to(a.alphabet, 8)
                if accepts(a, w) != (accepts(a1, w) and accepts(a2, w))
            ),
            None,
        )
        r = verify("ai", a, a1, a2)
        if least is None:
            assert r or len(r.detail) > 8
        else:
            assert isinstance(r, Refusal) and r.detail == least, (a, a1, a2)
            refused += 1
    assert refused >= 100


def _random_input(seed: int) -> Dfa:
    """A random automaton of at most 9 states, and half the draws rename their
    states and start elsewhere, so more of them keep unreachable states."""
    rng = random.Random(seed)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    a = random_dfa(rng, rng.randint(1, 9), alphabet)
    if seed % 2:
        a = Dfa(a.name, a.states[::-1], a.alphabet, a.table, rng.randrange(a.n), a.accepting)
    return a


def _random_minimal(rng: random.Random, alphabet) -> Dfa:
    """A random minimal automaton.  A random unary automaton rarely has a long
    cycle, so over one letter the draw is a lasso with a cycle of 5-16 states."""
    if len(alphabet) > 1:
        return helpers.minimize_by_signatures(random_dfa(rng, rng.randint(3, 16), alphabet))[0]
    tail, cycle = rng.randint(0, 4), rng.randint(5, 16)
    n = tail + cycle
    table = tuple((i + 1 if i + 1 < n else tail,) for i in range(n))
    accepting = frozenset(i for i in range(n) if rng.random() < 0.5)
    lasso = Dfa("lasso", tuple(f"u{i}" for i in range(n)), alphabet, table, 0, accepting)
    return helpers.minimize_by_signatures(lasso)[0]


def _deep_refinement_input(seed: int) -> Dfa:
    """An automaton that refinement splits over many rounds, or not at all:
    a random base behind an entry chain of up to 60 steps, a trimmed product
    of two random minimal automata with 60-200 states, or a random automaton
    with every state accepting or none, so that nothing splits the states."""
    rng = random.Random(seed)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    if seed % 4 == 0:
        return gen_k_extension(random_dfa(rng, rng.randint(1, 8), alphabet), rng.randint(1, 60))
    if seed % 4 == 1:
        while True:
            product = trim(parallel_connection(*(_random_minimal(rng, alphabet) for _ in range(2))))
            if 60 <= product.n <= 200:
                return product
    a = random_dfa(rng, rng.randint(1, 40), alphabet)
    return dataclasses.replace(a, accepting=frozenset(range(a.n)) if seed % 4 == 2 else frozenset())


def test_minimize_matches_the_signature_form():
    draws = [_random_input(seed) for seed in range(600)]
    draws += [_deep_refinement_input(seed) for seed in range(240)]
    sizes = set()
    for k, a in enumerate(draws):
        new, new_map = minimize(a)
        old, old_map = helpers.minimize_by_signatures(a)
        assert print_dfa(new) == print_dfa(old), k
        assert list(new_map.items()) == list(old_map.items()), k
        sizes.add(new.n)
    # Chains and products reach 60 states; with every state accepting or none, one is left.
    assert 1 in sizes and max(sizes) >= 60


def test_hopcroft_labels_give_minimize_partition():
    """``_hopcroft`` over a whole table, unreachable states included: two
    states share a label iff no word tells them apart, and on the reachable
    states the labels give ``minimize``'s partition."""
    untrimmed = 0
    for seed in range(300):
        rng = random.Random(seed)
        a = random_dfa(rng, rng.randint(1, 6), ("a", "b")[: rng.randint(1, 2)])
        labels = _hopcroft(a.table, a.accepting)
        separated = helpers.distinguishable_pairs(a)
        for p, q in itertools.combinations(range(a.n), 2):
            assert (labels[p] == labels[q]) == (frozenset((p, q)) not in separated), seed
        merged = minimize(a)[1]
        reachable = reachable_indexes(a)
        for p, q in itertools.combinations(reachable, 2):
            same = merged[a.states[p]] == merged[a.states[q]]
            assert (labels[p] == labels[q]) == same, seed
        untrimmed += len(reachable) < a.n
    assert untrimmed >= 100


@pytest.mark.parametrize("canonical_only", [True, False], ids=["canonical", "all"])
def test_first_factors_match_their_earlier_route(canonical_only):
    """``oracle._first_factors`` keeps the first factors, with the same least
    l, set of reached (M, a1) pairs and F1*, that ``_triple_bfs``, the
    ``Counter`` fan and ``minimize`` kept: every candidate of 1-3 states over
    1-2 symbols and of 1-2 states over 3 symbols, against seeded random
    trimmed automata (one-state and unary ones included) under ai, si and
    wai, at each largest second size up to 3 and at the automaton's size,
    which no fan exceeds."""
    skipped = set()
    for seed in range(12):
        rng = random.Random(seed)
        alphabet = ("a", "b", "c")[: seed % 3 + 1]
        a = random_dfa(rng, 1 if seed < 3 else rng.randint(2, 6), alphabet, trim_unreachable=True)
        for kind in ("ai", "si", "wai"):
            ai, m = kind == "ai", a if kind == "si" else minimize(a)[0]
            for k in range(1, 4 if len(alphabet) < 3 else 3):
                every = len(list(candidate_automata(k, alphabet, canonical_only)))
                route = helpers.first_factors_by_route(ai, m, alphabet, k, a.n, canonical_only)
                if len(route) < every:
                    skipped.add("non-minimal first factor")
                for max_l in (1, 2, 3, a.n):
                    new = []
                    for f in _first_factors(ai, m, alphabet, k, max_l, canonical_only):
                        a1 = _candidate(alphabet, f.rows, f.initial, f.accepting)
                        bits = f.reach
                        pairs = {(i, j) for i in range(m.n) for j in range(k) if bits[j] >> i & 1}
                        new.append((f.least_l, a1, pairs))
                    expected = [(l, a1, set(pairs)) for l, a1, pairs in route if l <= max_l]
                    assert new == expected, (seed, kind, k, max_l)
                    if len(new) < len(route):
                        skipped.add("fan")
    assert skipped == {"non-minimal first factor", "fan"}
