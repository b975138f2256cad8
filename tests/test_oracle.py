import dataclasses
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfadecomp import (
    BudgetError,
    Decomposition,
    Dfa,
    ExhaustionCertificate,
    InputError,
    Partition,
    SearchBudget,
    brute_sp_partitions,
    canonical_form,
    certify_undecomposable,
    estimate_search_space,
    gen_a4b4_triple,
    gen_example31,
    gen_grid,
    gen_lkl,
    gen_ln,
    parallel_connection,
    random_dfa,
    sp_lattice,
    trim,
    verify,
)
from dfadecomp import oracle
from dfadecomp.automata import _triple_bfs
from dfadecomp.oracle import (
    _candidate,
    _PairSearch,
    _rows,
    _table_walk,
    all_partitions,
    candidate_automata,
)

import helpers


class TestSearchBudget:
    @pytest.mark.parametrize("caps", [(0, 1), (1, 0)])
    def test_caps_below_one_rejected(self, caps):
        with pytest.raises(InputError) as exc:
            SearchBudget(*caps)
        assert str(exc.value) == "budget caps must be at least 1"


class TestBruteSpPartitions:
    def test_partition_enumeration_is_complete(self):
        for n in range(6):
            got = {frozenset(frozenset(b) for b in pi.blocks) for pi in all_partitions(n)}
            assert got == set(helpers.all_fs_partitions(n))

    def test_grid22_seven_elements(self):
        assert len(brute_sp_partitions(gen_grid(2, 2))) == 7

    def test_one_state(self):
        assert brute_sp_partitions(gen_ln(1)) == {Partition.singletons(1)}

    def test_matches_lattice_on_random_automata(self):
        rng = random.Random(41)
        for _ in range(40):
            a = random_dfa(rng, rng.randint(1, 6))
            assert brute_sp_partitions(a) == set(sp_lattice(a).elements)

    def test_state_bound(self):
        with pytest.raises(InputError):
            brute_sp_partitions(random_dfa(random.Random(1), 10))


class TestEstimate:
    def test_unary_three_by_three(self):
        budget = SearchBudget(3, 3, canonical_only=False)
        # hand expansion: (1**1*1 + 2**2*2 + 3**3*3) squared
        assert estimate_search_space(gen_ln(9), budget) == (1 + 8 + 81) ** 2
        assert estimate_search_space(gen_ln(9), budget) == 8100

    def test_one_by_one_is_one(self):
        assert estimate_search_space(gen_ln(9), SearchBudget(1, 1, canonical_only=False)) == 1
        assert estimate_search_space(gen_grid(3, 3), SearchBudget(1, 1)) == 1

    def test_binary_two_by_two_ai(self):
        budget = SearchBudget(2, 2, canonical_only=False)
        # hand expansion: (1**2*1*2 + 2**4*2*4) squared
        assert estimate_search_space(gen_grid(3, 3), budget, "ai") == (2 + 128) ** 2

    def test_canonical_drops_the_initial_state_factor(self):
        assert estimate_search_space(gen_ln(9), SearchBudget(3, 3)) == (1 + 4 + 27) ** 2

    def test_caps_clamp_below_the_state_count(self):
        # four states clamp both caps to 3; one state clamps them to 0
        assert estimate_search_space(gen_ln(4), SearchBudget(5, 8)) == (1 + 4 + 27) ** 2
        assert estimate_search_space(gen_ln(1), SearchBudget(3, 3)) == 0


class TestCandidates:
    def test_canonical_candidates_are_canonical(self):
        for cand in candidate_automata(3, ("a", "b")):
            canon = canonical_form(cand)
            assert canon.n == cand.n
            assert canon.table == cand.table
            assert canon.initial == cand.initial

    @pytest.mark.parametrize("canonical_only", [True, False], ids=["canonical", "all"])
    def test_table_walk_matches_filtered_product(self, canonical_only):
        for alphabet in (("a",), ("a", "b")):
            for k in (1, 2, 3):
                walked = list(candidate_automata(k, alphabet, canonical_only))
                assert walked == list(
                    helpers.candidates_by_product(k, alphabet, canonical_only, False)
                )

    def test_canonical_enumeration_is_complete_up_to_isomorphism(self):
        rng = random.Random(47)
        pools = {
            k: {
                (c.table, c.initial, c.accepting)
                for c in candidate_automata(k, ("a", "b"))
            }
            for k in (1, 2, 3)
        }

        def random_candidate():
            k = rng.randint(1, 3)
            table = tuple(
                tuple(rng.randrange(k) for _ in range(2)) for _ in range(k)
            )
            return type(gen_ln(1))(
                name="r",
                states=tuple(f"s{i}" for i in range(k)),
                alphabet=("a", "b"),
                table=table,
                initial=rng.randrange(k),
                accepting=frozenset(),
            )

        for _ in range(100):
            for raw in (random_candidate(), random_candidate()):
                canon = canonical_form(raw)
                assert (canon.table, canon.initial, canon.accepting) in pools[canon.n]


def _padded(a: Dfa) -> Dfa:
    """A non-minimal automaton of L(a): a in parallel with a length counter
    that accepts every length."""
    assert a.alphabet == ("a", "b")
    padded = trim(parallel_connection(a, helpers.length_counter(2, {0, 1}, "len2")))
    assert not helpers.is_minimal(padded)
    return padded


class TestCertify:
    def test_threshold_language_is_wai_undecomposable(self):
        cert = certify_undecomposable("wai", gen_ln(4), SearchBudget(3, 3))
        assert isinstance(cert, ExhaustionCertificate)
        assert cert.candidates_examined == 36
        assert cert.effective_max_1 == 3 and cert.effective_max_2 == 3

    def test_residue_counter_has_an_ai_counterexample(self):
        result = certify_undecomposable("ai", gen_lkl(2, 2), SearchBudget(3, 3))
        assert isinstance(result, Decomposition)
        assert (result.a1.n, result.a2.n) == (2, 2)
        # soundness: the counterexample re-verifies
        assert verify("ai", gen_lkl(2, 2), result.a1, result.a2)

    def test_one_state_automaton_clamps_to_an_empty_search(self):
        cert = certify_undecomposable("wai", gen_ln(1), SearchBudget(1, 1))
        assert isinstance(cert, ExhaustionCertificate)
        assert cert.candidates_examined == 0
        assert cert.effective_max_1 == 0

    def test_exhaustion_is_monotone_in_the_budget(self):
        for cap in (1, 2, 3):
            cert = certify_undecomposable("wai", gen_ln(4), SearchBudget(cap, cap))
            assert isinstance(cert, ExhaustionCertificate)

    def test_si_certification_also_runs(self):
        cert = certify_undecomposable("si", gen_ln(3), SearchBudget(2, 2))
        assert isinstance(cert, ExhaustionCertificate)

    def test_feasibility_refusal(self):
        big = gen_grid(4, 4)
        with pytest.raises(BudgetError) as exc:
            certify_undecomposable("ai", big, SearchBudget(8, 8, canonical_only=False))
        assert exc.value.estimate > 10**8

    def test_an_estimate_past_the_digit_limit_is_a_budget_error(self):
        # 500 states at caps (499, 499): the estimate has over 5000 digits,
        # more than Python converts to a string by default.
        a, budget = gen_grid(20, 25), SearchBudget(499, 499)
        with pytest.raises(BudgetError) as exc:
            certify_undecomposable("si", a, budget)
        estimate = exc.value.estimate
        assert estimate == estimate_search_space(a, budget, "si")
        bits = estimate.bit_length() - 1
        if getattr(sys, "get_int_max_str_digits", lambda: 0)():
            assert str(exc.value) == (
                f"estimated candidate count at least 2**{bits} exceeds the "
                f"feasibility bound {oracle.FEASIBILITY_BOUND}"
            )
        assert 2**bits <= estimate < 2 ** (bits + 1)

    def test_sb_kind_rejected(self):
        with pytest.raises(InputError):
            certify_undecomposable("sb", gen_ln(2), SearchBudget(1, 1))

    def test_first_counterexample_is_deterministic(self):
        r1 = certify_undecomposable("ai", gen_lkl(2, 2), SearchBudget(3, 3))
        r2 = certify_undecomposable("ai", gen_lkl(2, 2), SearchBudget(3, 3))
        assert r1.a1.table == r2.a1.table
        assert r1.a2.table == r2.a2.table
        assert r1.a1.accepting == r2.a1.accepting
        # ... and it is the enumerator's first verifying pair.
        for kind, dfa, budget in (
            ("ai", gen_lkl(2, 2), SearchBudget(3, 3)),
            ("si", gen_example31()[1], SearchBudget(3, 4)),
        ):
            first = helpers.certify_by_enumeration(kind, dfa, budget)
            assert isinstance(first, Decomposition)
            assert _outcome(certify_undecomposable(kind, dfa, budget)) == _outcome(first)

    def test_search_prunes_below_a_tenth_of_the_pairs(self):
        a4b4 = gen_a4b4_triple()[0]
        cert = certify_undecomposable("si", a4b4, SearchBudget(3, 3))
        assert isinstance(cert, ExhaustionCertificate)
        assert cert.candidates_examined == 52441 == 229**2
        assert cert.nodes_visited * 10 < cert.candidates_examined
        # The fan bound skips every first factor of a4b4, under ai too; the
        # ai search of a non-minimal automaton of the second factor's
        # language sets entries.
        cert = certify_undecomposable("ai", _padded(gen_a4b4_triple()[1]), SearchBudget(3, 3))
        assert isinstance(cert, ExhaustionCertificate)
        assert cert.candidates_examined == 3161284
        assert 0 < cert.nodes_visited and cert.nodes_visited * 10 < cert.candidates_examined

    @pytest.mark.parametrize(
        "kind, dfa, caps, nodes",
        [
            ("si", gen_a4b4_triple()[0], (3, 3), 0),
            ("wai", gen_a4b4_triple()[0], (3, 3), 0),
            ("ai", gen_a4b4_triple()[0], (3, 3), 0),
            ("wai", gen_ln(6), (5, 5), 192),
            ("si", gen_ln(5), (4, 4), 83),
            # not minimal: ai searches its minimal automaton, as wai does
            ("ai", _padded(gen_a4b4_triple()[1]), (3, 3), 492),
        ],
        ids=["a4b4-si", "a4b4-wai", "a4b4-ai", "ln6-wai", "ln5-si", "padded-a4b4-ai"],
    )
    def test_canonical_search_sets_a_fixed_number_of_entries(self, kind, dfa, caps, nodes):
        cert = certify_undecomposable(kind, dfa, SearchBudget(*caps))
        assert isinstance(cert, ExhaustionCertificate)
        assert cert.nodes_visited == nodes

    @pytest.mark.parametrize(
        "kind, dfa, budget, found, dfas",
        [
            ("wai", gen_ln(5), SearchBudget(4, 4), False, 0),
            ("wai", gen_ln(6), SearchBudget(5, 5), False, 0),
            ("ai", gen_example31()[0], SearchBudget(3, 3), True, 2),
            # the canonical find, then the walk of all candidates at its sizes
            ("ai", gen_lkl(2, 3), SearchBudget(2, 3, canonical_only=False), True, 4),
        ],
        ids=["ln5-wai", "ln6-wai", "example31-ai", "lkl23-ai-all"],
    )
    def test_only_the_verified_pair_becomes_a_dfa(self, monkeypatch, kind, dfa, budget, found, dfas):
        """A kept first factor is searched from its rows; the two candidates
        built as ``Dfa``s are the pair each search verifies."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _candidate(*args)

        monkeypatch.setattr(oracle, "_candidate", counted)
        result = certify_undecomposable(kind, dfa, budget)
        assert isinstance(result, Decomposition) is found
        assert len(calls) == dfas


def _outcome(result):
    """What a search answered: the found pair with its witness, or the
    certificate without the search's own node count."""
    if isinstance(result, ExhaustionCertificate):
        return dataclasses.replace(result, nodes_visited=0)
    return (result.kind, result.a1, result.a2, result.witness)


# Upper bound on the estimated pairs of one differential case.
ENUMERATION_CAP = 20000


def _random_case(seed: int, canonical_only: bool):
    """A trimmed automaton of 2-6 states over 1-2 symbols, a kind and a
    budget of at most (3, 2) whose candidate pairs the enumerator runs
    through in milliseconds."""
    rng = random.Random(seed)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    a = random_dfa(rng, rng.randint(2, 6), alphabet, trim_unreachable=True)
    while a.n < 2:
        a = random_dfa(rng, rng.randint(2, 6), alphabet, trim_unreachable=True)
    kind = ("ai", "si", "wai")[seed % 3]
    while True:
        budget = SearchBudget(rng.randint(1, 3), rng.randint(1, 2), canonical_only)
        if estimate_search_space(a, budget, kind) <= ENUMERATION_CAP:
            return kind, a, budget


@pytest.mark.parametrize("canonical_only", [True, False], ids=["canonical", "all"])
def test_search_matches_the_enumerator(canonical_only):
    outcomes = set()
    for seed in range(90):
        kind, a, budget = _random_case(seed, canonical_only)
        found = certify_undecomposable(kind, a, budget)
        assert _outcome(found) == _outcome(helpers.certify_by_enumeration(kind, a, budget)), (
            seed,
            kind,
            budget,
        )
        outcomes.add((kind, type(found), helpers.is_minimal(a)))
    # Every kind both found a pair and certified, in either mode: the ai cases
    # cover the forced first accepting set, with and without all candidates.
    assert {(kind, found) for kind, found, _ in outcomes} == {
        (kind, found)
        for kind in ("ai", "si", "wai")
        for found in (Decomposition, ExhaustionCertificate)
    }
    # ai and wai search the minimal automaton; non-minimal inputs exercise that.
    for kind in ("ai", "wai"):
        assert (kind, Decomposition, False) in outcomes
        assert (kind, ExhaustionCertificate, False) in outcomes


def test_all_candidates_answer_as_the_canonical_candidates():
    """A valid pair trims to a canonical valid pair no larger in either size,
    so searching all candidates finds a pair iff searching the canonical ones
    does, and its first pair has the sizes of their first pair."""
    outcomes = set()
    for seed in range(200):
        rng = random.Random(seed)
        alphabet = ("a", "b")[: rng.randint(1, 2)]
        a = random_dfa(rng, rng.randint(3, 6), alphabet, trim_unreachable=True)
        while a.n < 3:
            a = random_dfa(rng, rng.randint(3, 6), alphabet, trim_unreachable=True)
        kind = ("ai", "si", "wai")[seed % 3]
        budget = SearchBudget(rng.randint(1, 3), rng.randint(1, 3), canonical_only=False)
        while estimate_search_space(a, budget, kind) > oracle.FEASIBILITY_BOUND:
            budget = SearchBudget(rng.randint(1, 3), rng.randint(1, 3), canonical_only=False)
        every = certify_undecomposable(kind, a, budget)
        canonical_budget = dataclasses.replace(budget, canonical_only=True)
        canonical = certify_undecomposable(kind, a, canonical_budget)
        assert type(every) is type(canonical), seed
        if isinstance(every, Decomposition):
            assert (every.a1.n, every.a2.n) == (canonical.a1.n, canonical.a2.n), seed
        outcomes.add((kind, type(every), len(alphabet)))
    assert outcomes == {
        (kind, found, s)
        for kind in ("ai", "si", "wai")
        for found in (Decomposition, ExhaustionCertificate)
        for s in (1, 2)
    }


def _skip_rule(kind: str, a: Dfa, a1: Dfa, l: int, eff2: int) -> str | None:
    """The reduction that lets the search skip first factor ``a1`` (its table
    and initial state) at second size l, decided from the automata alone;
    None if no reduction does."""
    k = a1.n
    minimal = helpers.minimize_by_signatures(a)[0]
    if l < k <= eff2:
        return "symmetric sizes"
    if k * l < (a if kind == "si" else minimal).n:
        return "size product"
    if kind == "ai":
        order, _ = helpers.triple_bfs_with_parents(a, a1, a1)
        forced = frozenset(j for i, j, _ in order if i in a.accepting)
        if not helpers.is_minimal(dataclasses.replace(a1, accepting=forced)):
            return "non-minimal first factor"
    order, _ = helpers.triple_bfs_with_parents(a if kind == "si" else minimal, a1, a1)
    if l < max(Counter(j for _, j, _ in order).values()):
        return "fan"
    return None


@pytest.mark.parametrize("canonical_only", [True, False], ids=["canonical", "all"])
def test_every_skipped_first_factor_pairs_with_no_second(canonical_only, monkeypatch):
    """Every (a1, l) up to the enumerator's first pair is either searched, or
    skipped by a reduction and then, with any accepting sets, verifies with
    no second factor of l states.  All candidates are walked only at the
    sizes of the first canonical pair, so under ``canonical_only=False`` the
    positions at sizes before those are skipped, and all of them when no
    canonical pair verifies."""
    searched = set()

    class Recorded(_PairSearch):
        def first(self, l, root, canonical_only):
            searched.add((self.rows, self.initial, l, canonical_only))
            return super().first(l, root, canonical_only)

    monkeypatch.setattr(oracle, "_PairSearch", Recorded)
    skips = Counter()
    for seed in range(90):
        kind, a, budget = _random_case(seed, canonical_only)
        searched.clear()
        certify_undecomposable(kind, a, budget)
        first = helpers.certify_by_enumeration(kind, a, budget)
        stop = None
        if isinstance(first, Decomposition):
            stop = (first.a1.table, first.a1.initial, first.a2.n)
        eff1, eff2 = min(budget.max_states_1, a.n - 1), min(budget.max_states_2, a.n - 1)
        naming = set()  # the sizes at which all candidates are walked
        if not canonical_only:
            canonical_budget = dataclasses.replace(budget, canonical_only=True)
            canonical_first = helpers.certify_by_enumeration(kind, a, canonical_budget)
            if isinstance(canonical_first, Decomposition):
                naming.add((canonical_first.a1.n, canonical_first.a2.n))
        walked_all = {(len(table), l) for table, _, l, canonical in searched if not canonical}
        assert walked_all == naming, (seed, walked_all, naming)
        before = min(naming, default=(eff1 + 1, 0))  # every size before this is skipped
        by_size = {
            k: list(helpers.candidates_by_product(k, a.alphabet, canonical_only, kind == "ai"))
            for k in range(1, max(eff1, eff2) + 1)
        }
        positions = (
            (a1, l)
            for k in range(1, eff1 + 1)
            for l in range(1, eff2 + 1)
            for a1 in candidate_automata(k, a.alphabet, canonical_only)
        )
        for a1, l in positions:
            rule = _skip_rule(kind, a, a1, l, eff2)
            if rule is None and not canonical_only and (a1.n, l) < before:
                rule = "before the canonical first sizes"
            if rule is None:
                assert (a1.table, a1.initial, l, canonical_only) in searched, (seed, a1.table, l)
            else:
                skips[rule] += 1
                key = (a1.table, a1.initial)
                firsts = [b1 for b1 in by_size[a1.n] if (b1.table, b1.initial) == key]
                found = (verify(kind, a, b1, a2) for b1 in firsts for a2 in by_size[l])
                assert not any(found), (seed, rule, a1.table, l)
            if (a1.table, a1.initial, l) == stop:
                break
    rules = {"symmetric sizes", "size product", "fan", "non-minimal first factor"}
    if not canonical_only:
        rules.add("before the canonical first sizes")
    assert set(skips) == rules, skips


@st.composite
def _search_cases(draw):
    """A trimmed automaton of 1-5 states over 1-2 symbols, a canonical first
    factor of 1-3 states (accepting its forced set under ai) with its (a, a1)
    pair order, projected from the product search's triples, a second factor
    size l of 1-3, and a walk of canonical tables from initial state 0 or of
    all tables from one initial state in range(l)."""
    alphabet = ("a", "b")[: draw(st.integers(1, 2))]
    n = draw(st.integers(1, 5))
    table = tuple(tuple(draw(st.integers(0, n - 1)) for _ in alphabet) for _ in range(n))
    accepting = frozenset(i for i in range(n) if draw(st.booleans()))
    a = trim(Dfa("h", tuple(f"q{i}" for i in range(n)), alphabet, table, 0, accepting))
    ai = draw(st.booleans())
    a1 = draw(st.sampled_from(list(candidate_automata(draw(st.integers(1, 3)), alphabet))))
    order = [(i, j) for i, j, _ in _triple_bfs(a, a1, a1)[0]]
    if ai:
        forced = frozenset(j for i, j in order if i in a.accepting)
        a1 = dataclasses.replace(a1, accepting=forced)
    l = draw(st.integers(1, 3))
    canonical = draw(st.booleans())
    root = 0 if canonical else draw(st.integers(0, l - 1))
    return ai, a, a1, order, l, canonical, root


@settings(max_examples=150, deadline=None)
@given(_search_cases())
def test_first_table_is_the_first_that_verifies(case):
    """The search from ``root`` answers with the first walked table that
    verifies with a1, under ai with the least accepting set in mask order
    that makes it verify."""
    ai, a, a1, order, l, canonical, root = case
    s = len(a.alphabet)
    expected = None
    for flat in _table_walk(l, s, canonical):
        rows = _rows(flat, l, s)
        for mask in range(2**l) if ai else (0,):
            accepting = frozenset(k for k in range(l) if mask >> k & 1)
            a2 = _candidate(a.alphabet, rows, root, accepting)
            if verify("ai" if ai else "si", a, a1, a2):
                expected = (rows, root, accepting)
                break
        if expected:
            break
    index = {pair: b for b, pair in enumerate(order)}
    search = _PairSearch(ai, a, a1.table, a1.initial, a1.accepting, 1, index)
    assert search.first(l, root, canonical) == expected
