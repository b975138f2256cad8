import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings

from dfadecomp import (
    Decomposition,
    DecompositionKind,
    InputError,
    Partition,
    Refusal,
    decompose_ai_sufficient,
    decompose_asb,
    decompose_sb,
    decompose_wai_sufficient,
    decomposable,
    gen_a4b4_triple,
    gen_example31,
    gen_example31_partitions,
    gen_grid,
    gen_k_extension,
    gen_lkl,
    gen_ln,
    gen_sb_not_asb,
    is_distributive,
    is_redundant,
    join,
    leq,
    meet,
    min_sp_merging,
    minimize,
    parallel_connection,
    parse_dfa,
    project_to_minimal,
    quotient,
    random_dfa,
    sp_lattice,
    transfer_to_minimal,
    trim,
    verify,
)
from dfadecomp import Dfa, decompositions, partitions
from dfadecomp.automata import reachable_indexes

import helpers


def _pad6():
    """Non-minimal six-state automaton whose acceptance ignores one counter;
    its lattice is the four-element boolean one, hence distributive."""
    states = tuple(f"u{i}_{j}" for i in range(2) for j in range(3))
    table = tuple(
        ((1 - i) * 3 + j, i * 3 + (j + 1) % 3) for i in range(2) for j in range(3)
    )
    return Dfa("pad6", states, ("a", "b"), table, 0, frozenset({0, 1, 2}))


def _cycle(name, prefix, n, accepting):
    """Unary counter modulo n with states prefix0 .. prefix{n-1}."""
    return Dfa(name, tuple(f"{prefix}{i}" for i in range(n)), ("a",),
               tuple(((i + 1) % n,) for i in range(n)), 0, frozenset(accepting))


def _padded_lkl23():
    """lkl(2,3) run with an all-accepting length counter mod 2."""
    counter = helpers.length_counter(2, {0, 1}, "len2")
    return trim(parallel_connection(gen_lkl(2, 3), counter, name="lkl23_pad"))


def _parity_padded_a4b4():
    a, a1, a2 = gen_a4b4_triple()
    parity = Dfa("bparity", ("e", "o"), ("a", "b"), ((0, 1), (1, 0)), 0, frozenset({0, 1}))
    return trim(parallel_connection(a, parity, name="a4b4_pad")), a1, a2


class TestVerify:
    def test_ai_on_the_intersection_counterexample(self):
        a, a1, a2 = gen_a4b4_triple()
        assert verify("ai", a, a1, a2)

    def test_si_on_the_same_triple(self):
        a, a1, a2 = gen_a4b4_triple()
        d = verify("si", a, a1, a2)
        assert d
        # beta really maps every reachable pair onto the reached state
        for w in helpers.words_up_to(a.alphabet, 7):
            from dfadecomp import run

            assert d.witness[(run(a1, w), run(a2, w))] == run(a, w)

    def test_wai_with_minimal_solver_and_one_state_advisor(self):
        _, a_prime = gen_example31()
        solver, _ = minimize(a_prime)
        advisor = helpers.one_state()
        assert verify("wai", a_prime, solver, advisor)
        assert not verify("si", a_prime, solver, advisor)

    def test_ai_refusal_carries_a_word(self):
        a = gen_ln(4)
        r = verify("ai", a, gen_ln(3), helpers.one_state(("a",)))
        assert isinstance(r, Refusal)
        assert r.detail == ("a", "a")

    @pytest.mark.parametrize(
        "kind, a_acc, a1_acc, reason, detail",
        [
            # (p0, s) is the first pair reached, and it meets q0 and q2.
            ("si", {1}, {0}, "reachable pair corresponds to more than one state",
             (("p0", "s"), ("q0", "q2"))),
            # (p0, s) meets two rejecting states; (p1, s) is the earliest
            # pair whose states disagree on acceptance.
            ("wai", {1}, {0}, "reachable pair maps to states disagreeing on acceptance",
             (("p1", "s"), ("q1", "q3"))),
        ],
    )
    def test_pair_refusals_pin_reason_and_detail(self, kind, a_acc, a1_acc, reason, detail):
        r = verify(kind, _cycle("c4", "q", 4, a_acc), _cycle("c2", "p", 2, a1_acc),
                   helpers.one_state(("a",)))
        assert isinstance(r, Refusal)
        assert (r.reason, r.detail) == (reason, detail)

    @pytest.mark.parametrize("kind", ["sb", "asb"])
    def test_injectivity_refusal_pins_reason_and_detail(self, kind):
        # Each pair pins one state, but q0 is reached through (p0, s) and,
        # later, through (p2, s); the languages agree, so asb gets this far.
        r = verify(kind, _cycle("c2", "q", 2, {0}), _cycle("c4", "p", 4, {0, 2}),
                   helpers.one_state(("a",)))
        assert isinstance(r, Refusal)
        assert r.reason == (
            "state is reached through two distinct pairs; the embedding cannot be injective"
        )
        assert r.detail == ("q0", ("p0", "s"), ("p2", "s"))

    def test_sb_alpha_is_an_embedding(self):
        g = gen_grid(2, 3)
        entry = decompose_sb(g).entries[0].decomposition
        d = verify("sb", g, entry.a1, entry.a2)
        assert d
        alpha = d.witness
        assert len(set(alpha.values())) == g.n
        assert alpha[g.initial_state] == (entry.a1.initial_state, entry.a2.initial_state)
        for q in g.states:
            for sym in g.alphabet:
                from dfadecomp import run

                i = g.state_index(q)
                succ = g.states[g.table[i][g.symbol_index(sym)]]
                p1, p2 = alpha[q]
                t1 = entry.a1.states[
                    entry.a1.table[entry.a1.state_index(p1)][entry.a1.symbol_index(sym)]
                ]
                t2 = entry.a2.states[
                    entry.a2.table[entry.a2.state_index(p2)][entry.a2.symbol_index(sym)]
                ]
                assert alpha[succ] == (t1, t2)

    def test_sb_search_holds_no_parents(self):
        # 15120 reachable triples over as many pairs.  The search that kept a
        # BFS parent per triple peaked at 3.78 MB here, the triple seen set
        # alone at about 2.3 MB.  The pair search keyed by one int per pair
        # peaked at 1.29-1.33 MB (sb) and 2.39-2.56 MB (si, whose witness
        # names every pair); one dict per A1 state reads 1.16 and 1.75-1.86 MB.
        a = parallel_connection(gen_lkl(3, 4), gen_lkl(4, 5))
        a1 = parallel_connection(gen_lkl(3, 4), helpers.length_counter(7, range(7), "len7"))
        a2 = parallel_connection(gen_lkl(4, 5), helpers.length_counter(9, range(9), "len9"))
        for kind, bound in (("sb", 1_230_000), ("si", 2_100_000)):
            tracemalloc.start()
            try:
                result = verify(kind, a, a1, a2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if kind == "sb":
                assert result.reason.startswith("state is reached through two distinct pairs")
            else:
                assert len(result.witness) == 15120
            assert peak < bound, (kind, peak)

    def test_ai_searches_the_minimal_factors(self, monkeypatch):
        # The padded factors meet |A| * 16 * 25 / 2 = 14400 triples; their
        # minimal automata bound the language search by |A| * 6 * 12 = 5184.
        f1, f2 = gen_lkl(2, 3), gen_lkl(3, 4)
        a = trim(parallel_connection(f1, f2))
        a1 = parallel_connection(f1, helpers.length_counter(16, range(16), "len16"))
        a2 = parallel_connection(f2, helpers.length_counter(25, range(25), "len25"))
        searched = []
        original = decompositions._triple_bfs

        def counted(*args):
            order, word_to = original(*args)
            searched.append(len(order))
            return order, word_to

        monkeypatch.setattr(decompositions, "_triple_bfs", counted)
        assert verify("ai", a, a1, a2)
        assert len(searched) == 1
        assert searched[0] <= a.n * minimize(a1)[0].n * minimize(a2)[0].n == 72 * 6 * 12

    def test_unreachable_states_rejected_for_state_kinds(self):
        dead = Dfa("d", ("p", "q"), ("a",), ((0,), (1,)), 0, frozenset())
        with pytest.raises(InputError):
            verify("sb", dead, helpers.one_state(("a",)), helpers.one_state(("a",)))
        assert verify("ai", dead, helpers.one_state(("a",), False), helpers.one_state(("a",)))

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(InputError):
            verify("ai", gen_ln(2), gen_lkl(2, 2), gen_lkl(2, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            verify("xyz", gen_ln(2), gen_ln(1), gen_ln(1))


class TestDecomposeSb:
    def test_example31_min_is_undecomposable(self):
        a_min, _ = gen_example31()
        assert decompose_sb(a_min).entries == ()

    def test_grid_3_5_unique_nonredundant_entry(self):
        rep = decompose_sb(gen_grid(3, 5))
        nonredundant = [e for e in rep.entries if not e.redundant]
        assert len(nonredundant) == 1
        d = nonredundant[0].decomposition
        assert (d.a1.n, d.a2.n) == (3, 5)
        assert nonredundant[0].perfect

    def test_extension_shifts_the_unique_entry(self):
        ext = gen_k_extension(gen_grid(2, 2), 1)
        rep = decompose_sb(ext)
        nonredundant = [e for e in rep.entries if not e.redundant]
        assert len(nonredundant) == 1
        d = nonredundant[0].decomposition
        assert (d.a1.n, d.a2.n) == (3, 3)

    def test_entries_are_sorted_and_size_ordered(self):
        rep = decompose_sb(gen_grid(2, 2))
        sizes = [(e.decomposition.a1.n, e.decomposition.a2.n) for e in rep.entries]
        assert sizes == sorted(sizes)
        assert all(k <= l for k, l in sizes)


class TestDecomposeAsb:
    def test_lkl_3_5_has_the_perfect_entry(self):
        rep = decompose_asb(gen_lkl(3, 5))
        perfect = [e for e in rep.entries if e.perfect]
        assert len(perfect) == 1
        d = perfect[0].decomposition
        assert (d.a1.n, d.a2.n) == (3, 5)
        assert verify("asb", gen_lkl(3, 5), d.a1, d.a2)

    def test_sb_but_not_asb_fixture(self):
        a = gen_sb_not_asb()
        assert decompose_sb(a).entries != ()
        assert decompose_asb(a).entries == ()

    def test_example31_prime_has_the_2_4_entry_from_the_fixture_partitions(self):
        _, a_prime = gen_example31()
        pi1, pi2 = gen_example31_partitions()
        rep = decompose_asb(a_prime)
        match = [
            e
            for e in rep.entries
            if set(e.decomposition.source_partitions) == {pi1, pi2}
        ]
        assert len(match) == 1
        d = match[0].decomposition
        assert (d.a1.n, d.a2.n) == (2, 4)
        assert d.a1.n < 5 and d.a2.n < 5

    def test_accepting_sets_come_from_the_separation(self):
        rep = decompose_asb(gen_lkl(2, 2))
        for e in rep.entries:
            d = e.decomposition
            assert verify("ai", gen_lkl(2, 2), d.a1, d.a2)


class TestDecomposeAiWai:
    def test_decompose_holds_no_witnesses(self):
        # 680 wai entries.  Built up front, their quotients and relations
        # (72 block pairs each on average) peaked at about 3.7 MB here.
        a = gen_grid(3, 5)
        tracemalloc.start()
        try:
            report = decompose_wai_sufficient(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.entries) == 680
        assert peak < 1_500_000

    def test_example31_prime_ai_contains_2_4(self):
        _, a_prime = gen_example31()
        sizes = {
            (e.decomposition.a1.n, e.decomposition.a2.n)
            for e in decompose_ai_sufficient(a_prime).entries
        }
        assert (2, 4) in sizes

    def test_one_state_automaton_has_no_entries(self):
        one = helpers.one_state()
        assert decompose_ai_sufficient(one).entries == ()
        assert decompose_wai_sufficient(one).entries == ()

    def test_grid_ai_contains_rows_cols(self):
        g = gen_grid(2, 3)
        sizes = {
            (e.decomposition.a1.n, e.decomposition.a2.n)
            for e in decompose_ai_sufficient(g).entries
        }
        assert (2, 3) in sizes

    def test_wai_on_residue_counter_is_nonempty(self):
        assert decompose_wai_sufficient(gen_lkl(3, 5)).entries != ()

    def test_wai_on_example31_min_matches_enumeration(self):
        # independently enumerate lattice pairs and test the refinement bound
        a_min, _ = gen_example31()
        elements = [
            Partition(x)
            for x in helpers.all_fs_partitions(a_min.n)
            if helpers.fs_is_sp(a_min, helpers.fs(Partition(x)))
        ]
        nontrivial = [p for p in elements if not p.is_trivial()]
        finals = sorted(a_min.accepting)
        rest = [i for i in range(a_min.n) if i not in a_min.accepting]
        acc_split = Partition([finals, rest])
        expected = [
            (x, y)
            for x, y in itertools.combinations_with_replacement(nontrivial, 2)
            if leq(meet(x, y), acc_split)
        ]
        rep = decompose_wai_sufficient(a_min)
        assert len(rep.entries) == len(expected)
        assert rep.entries == ()  # frozen: the five-element chain never qualifies

    def test_every_emitted_entry_verifies(self):
        fixtures = [
            gen_grid(2, 2),
            gen_grid(2, 3),
            gen_lkl(2, 3),
            gen_example31()[1],
            _pad6(),
        ]
        rng = random.Random(23)
        fixtures += [random_dfa(rng, rng.randint(2, 7), trim_unreachable=True) for _ in range(10)]
        for a in fixtures:
            for rep, kind in (
                (decompose_sb(a), "sb"),
                (decompose_asb(a), "asb"),
                (decompose_ai_sufficient(a), "ai"),
                (decompose_wai_sufficient(a), "wai"),
            ):
                for e in rep.entries:
                    assert verify(kind, a, e.decomposition.a1, e.decomposition.a2), (
                        a.name,
                        kind,
                    )

    @settings(deadline=None)
    @given(helpers.dfas())
    def test_entries_verify_or_the_untrimmed_input_is_refused(self, a):
        trimmed = len(reachable_indexes(a)) == a.n
        for decompose, kind in (
            (decompose_sb, "sb"),
            (decompose_asb, "asb"),
            (decompose_ai_sufficient, "ai"),
            (decompose_wai_sufficient, "wai"),
        ):
            if kind != "ai" and not trimmed:
                with pytest.raises(InputError, match="without unreachable states"):
                    decompose(a)
                continue
            for e in decompose(a).entries:
                assert verify(kind, a, e.decomposition.a1, e.decomposition.a2), kind

    def test_asb_entries_pass_both_sb_and_ai(self):
        for a in (gen_lkl(2, 2), gen_example31()[1], gen_grid(2, 3)):
            for e in decompose_asb(a).entries:
                assert verify("sb", a, e.decomposition.a1, e.decomposition.a2)
                assert verify("ai", a, e.decomposition.a1, e.decomposition.a2)


class TestRedundancy:
    def test_grid_rows_cols_not_redundant(self):
        rep = decompose_sb(gen_grid(3, 5))
        best = [e for e in rep.entries if (e.decomposition.a1.n, e.decomposition.a2.n) == (3, 5)]
        assert len(best) == 1
        assert not best[0].redundant

    def test_zero_source_is_redundant_when_a_coarser_partner_exists(self):
        g = gen_grid(2, 2)
        zero = Partition.singletons(4)
        cols = Partition([[0, 2], [1, 3]])
        d = Decomposition(
            DecompositionKind.SB,
            quotient(g, zero, ()),
            quotient(g, cols, ()),
            None,
            (zero, cols),
        )
        assert is_redundant(g, d)

    def test_grid23_flags_match_independent_coarsening_search(self):
        g = gen_grid(2, 3)
        elements = [
            Partition(x)
            for x in helpers.all_fs_partitions(g.n)
            if helpers.fs_is_sp(g, helpers.fs(Partition(x)))
        ]
        zero = Partition.singletons(g.n)
        rep = decompose_sb(g)
        assert rep.entries != ()
        for e in rep.entries:
            p1, p2 = e.decomposition.source_partitions
            indep = any(
                leq(p1, x) and leq(p2, y) and (x, y) != (p1, p2) and meet(x, y) == zero
                for x in elements
                for y in elements
            )
            assert e.redundant == indep

    def test_requires_source_partitions(self):
        a, a1, a2 = gen_a4b4_triple()
        d = verify("ai", a, a1, a2)
        with pytest.raises(InputError):
            is_redundant(a, d)

    def test_lattice_of_another_automaton_rejected(self):
        # grid(2, 3) and lkl(2, 3) share their state count and every S.P.
        # partition the lkl entries use, so only the fingerprint tells the
        # lattices apart; on grid's lattice the (2, 3) entries read redundant.
        a, other = gen_lkl(2, 3), sp_lattice(gen_grid(2, 3))
        for decompose in (decompose_ai_sufficient, decompose_wai_sufficient):
            entry = next(
                e for e in decompose(a).entries
                if (e.decomposition.a1.n, e.decomposition.a2.n) == (2, 3)
            )
            assert not entry.redundant
            assert not is_redundant(a, entry.decomposition, lattice=sp_lattice(a))
            with pytest.raises(InputError, match="lattice was built for another automaton"):
                is_redundant(a, entry.decomposition, lattice=other)

    def test_kind_without_a_lattice_construction_rejected(self):
        a = gen_grid(2, 3)
        d = dataclasses.replace(decompose_sb(a).entries[0].decomposition, kind=DecompositionKind.SI)
        with pytest.raises(InputError) as exc:
            is_redundant(a, d)
        assert str(exc.value) == "no lattice-based construction for kind 'si'"

    def test_sources_outside_the_lattice_rejected(self):
        a = gen_grid(2, 3)
        d = decompose_sb(a).entries[0].decomposition
        stray = Partition([[0, 5], [1], [2], [3], [4]])
        assert stray not in sp_lattice(a)
        d = dataclasses.replace(d, source_partitions=(stray, d.source_partitions[1]))
        with pytest.raises(InputError) as exc:
            is_redundant(a, d)
        assert str(exc.value) == "source partitions are not elements of the automaton's lattice"

    def test_kind_is_rejected_before_the_sources_are_looked_up(self):
        a = gen_grid(2, 3)
        d = decompose_sb(a).entries[0].decomposition
        stray = Partition([[0, 5], [1], [2], [3], [4]])
        d = dataclasses.replace(
            d, kind=DecompositionKind.SI, source_partitions=(stray, d.source_partitions[1])
        )
        with pytest.raises(InputError) as exc:
            is_redundant(a, d)
        assert str(exc.value) == "no lattice-based construction for kind 'si'"

    def test_a_report_builds_each_mask_once(self):
        # One build per kind and automaton, however many entries the scan
        # and the redundancy test read it for.
        masks = decompositions._emission_mask
        masks.cache_clear()
        a = gen_grid(3, 5)
        assert len(decompose_wai_sufficient(a).entries) == 680
        assert masks.cache_info().misses == 1
        for decompose in (decompose_sb, decompose_asb, decompose_ai_sufficient):
            decompose(a)
        assert masks.cache_info().misses == 4
        assert masks.cache_info().currsize == 4
        # A kind without a lattice construction still raises, every time,
        # and leaves nothing in the memo.
        for _ in range(2):
            with pytest.raises(InputError, match="no lattice-based construction"):
                decompositions._emission_condition(DecompositionKind.SI, a)
        assert masks.cache_info().currsize == 4


class TestDecomposable:
    BELL = (1, 1, 2, 5, 15, 52, 203)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_hub_has_bell_many_elements_and_no_state_behavior_entry(self, n):
        a = helpers.hub(n)
        assert len(reachable_indexes(a)) == n
        assert len(sp_lattice(a).elements) == self.BELL[n - 2] + 2
        assert decomposable(a, "sb") is None and decomposable(a, "asb") is None

    def test_hub17_reports_are_decided_without_a_lattice(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(decompositions, "sp_lattice", refuse)
        a = helpers.hub(17)
        assert decompose_sb(a).entries == () and decompose_asb(a).entries == ()
        for kind in ("sb", "asb"):
            assert decomposable(a, kind) is None
        for kind in ("ai", "wai"):
            assert decomposable(a, kind) is not None

    def test_reset16_has_an_sb_pair(self):
        # Every partition of its 16 states is S.P.: Bell(16) elements.
        a = helpers.reset(16)
        pa, pb = decomposable(a, DecompositionKind.SB)
        assert (pa.num_blocks, pb.num_blocks) == (15, 15)
        assert meet(pa, pb) == Partition.singletons(16)

    @pytest.mark.parametrize(
        "a", [gen_grid(3, 3), gen_lkl(4, 6), gen_sb_not_asb()], ids=lambda a: a.name
    )
    def test_the_pair_is_the_first_of_sink_atoms_in_the_lattices_element_order(self, a):
        lattice = sp_lattice(a)
        roots = decompositions._pair_components(a)
        sinks = {min_sp_merging(a, a.states[p], a.states[t]) for p, t, sink in roots if sink}
        sinks = sorted((pi for pi in sinks if pi.num_blocks > 1), key=lattice.index.__getitem__)
        for kind in DecompositionKind:
            if kind is DecompositionKind.SI:
                continue
            condition = helpers.scan_condition(kind, a)
            # Pairs (x, y), x no later than y, by the position of y, then of x.
            pairs = [(x, y) for j, y in enumerate(sinks) for x in sinks[: j + 1]]
            first = next((p for p in pairs if condition(*p)), None)
            oriented = first and tuple(sorted(first, key=lambda pi: pi.num_blocks))
            assert decomposable(a, kind) == oriented, kind

    def test_contract_errors_are_those_of_decompose(self):
        with pytest.raises(InputError, match="no lattice-based construction for kind 'si'"):
            decomposable(gen_grid(2, 3), "si")
        with pytest.raises(InputError, match="unknown decomposition kind"):
            decomposable(gen_grid(2, 3), "xx")
        # The identity automaton has unreachable states, so only ai answers.
        identity = helpers.identity(16)
        for kind in ("sb", "asb", "wai"):
            with pytest.raises(InputError, match="without unreachable states"):
                decomposable(identity, kind)
        assert decomposable(identity, "ai") is not None

    @pytest.mark.parametrize(
        "a", [gen_grid(3, 3), gen_example31()[0], gen_a4b4_triple()[0]], ids=lambda a: a.name
    )
    def test_one_pair_graph_pass_and_one_closure_per_component(self, a, monkeypatch):
        passes, closed = [], []
        real_pass, real_close = partitions._pair_components, partitions._min_sp_merging_labels

        def counted_pass(dfa):
            passes.append(real_pass(dfa))
            return passes[-1]

        def counted_close(dfa, p, t):
            closed.append((p, t))
            return real_close(dfa, p, t)

        monkeypatch.setattr(decompositions, "_pair_components", counted_pass)
        monkeypatch.setattr(partitions, "_pair_components", counted_pass)
        monkeypatch.setattr(partitions, "_min_sp_merging_labels", counted_close)
        for decompose in (
            decompose_sb, decompose_asb, decompose_ai_sufficient, decompose_wai_sufficient
        ):
            passes.clear()
            closed.clear()
            entries = decompose(a).entries
            (roots,) = passes
            # Every sink root is closed once; the others once, and only when
            # there are entries to list.
            closes = [(p, t) for p, t, sink in roots if sink or entries]
            assert sorted(closed) == sorted(closes)


class TestDerivedNames:
    def test_quotients_beside_a_state_of_the_joined_name(self):
        a = parse_dfa(helpers.PLUS_NAMED_DOC)
        (entry,) = decompose_wai_sufficient(a).entries
        d = entry.decomposition
        assert d.a1.states == d.a2.states == ("a+b", "_a+b")
        assert verify("wai", a, d.a1, d.a2)


class TestProjectToMinimal:
    def test_distributive_non_minimal_case(self):
        a = _pad6()
        d = decompose_sb(a).entries[0].decomposition
        assert (d.a1.n, d.a2.n) == (2, 3)
        projected = project_to_minimal(a, d)
        assert projected
        m, _ = minimize(a)
        assert verify("sb", m, projected.a1, projected.a2)
        assert projected.a1.n <= d.a1.n and projected.a2.n <= d.a2.n

    def test_already_minimal_keeps_block_counts(self):
        a = gen_lkl(2, 3)
        d = decompose_sb(a).entries[0].decomposition
        projected = project_to_minimal(a, d)
        assert projected
        assert (projected.a1.n, projected.a2.n) == (d.a1.n, d.a2.n)

    def test_example31_prime_entries_are_refused_or_trivial(self):
        # The lattice is not distributive.  Three entries fail the projected
        # meet, and a refusal carries both projected partitions; the other
        # three project to trivial pairs, as example31_min has no sb entry.
        _, a_prime = gen_example31()
        m, _ = minimize(a_prime)
        refused, sizes = [], []
        for e in decompose_sb(a_prime).entries:
            result = project_to_minimal(a_prime, e.decomposition)
            if isinstance(result, Refusal):
                assert result.reason == "the projected partitions do not meet to zero"
                p1, p2 = result.detail
                assert p1.n == p2.n == m.n
                assert meet(p1, p2) != Partition.singletons(m.n)
                refused.append(result)
            else:
                assert verify("sb", m, result.a1, result.a2)
                sizes.append((result.a1.n, result.a2.n))
        assert len(refused) == 3
        assert sorted(sizes) == [(1, 5), (2, 5), (3, 5)]

    def test_padded_lkl_projects_ten_of_thirteen_entries(self):
        # lkl(2,3) times a 2-state length counter: 12 states, a 6-state
        # minimal automaton, and a lattice that is not distributive.
        a = _padded_lkl23()
        m, _ = minimize(a)
        assert (a.n, m.n) == (12, 6)
        assert not is_distributive(sp_lattice(a))
        entries = decompose_sb(a).entries
        projected = [project_to_minimal(a, e.decomposition) for e in entries]
        found = [(d.a1.n, d.a2.n) for d in projected if d]
        assert (len(entries), len(found)) == (13, 10)
        assert (2, 3) in found
        for d in filter(None, projected):
            assert verify("sb", m, d.a1, d.a2)

    def test_needs_source_partitions(self):
        a = gen_lkl(2, 3)
        d0 = decompose_sb(a).entries[0].decomposition
        bare = Decomposition(DecompositionKind.SB, d0.a1, d0.a2, d0.witness, None)
        with pytest.raises(InputError):
            project_to_minimal(a, bare)

    def test_unreachable_states_rejected(self):
        dead = Dfa("d", ("p", "q", "r"), ("a",), ((0,), (2,), (1,)), 0, frozenset())
        fake = Decomposition(
            DecompositionKind.SB,
            helpers.one_state(("a",)),
            helpers.one_state(("a",)),
            None,
            (Partition([[0], [1, 2]]), Partition([[0, 1], [2]])),
        )
        with pytest.raises(InputError):
            project_to_minimal(dead, fake)

    def test_weak_kind_rejected(self):
        a = gen_lkl(2, 3)
        d = decompose_wai_sufficient(a).entries[0].decomposition
        with pytest.raises(InputError) as exc:
            project_to_minimal(a, d)
        assert str(exc.value) == "projection is defined for state-behavior decompositions"

    @settings(deadline=None)
    @given(helpers.dfas(), helpers.dfas())
    def test_projection_is_decided_by_the_projected_meet(self, b1, b2):
        # Exactly when (pi1 v rho) ^ (pi2 v rho) = rho, computed here on A's
        # states, a pair comes back; it decomposes M with no larger factors,
        # and a distributive lattice refuses no entry.
        a = trim(parallel_connection(b1, b2))
        m, f = minimize(a)
        rho = Partition.from_assignment(m.state_index(f[q]) for q in a.states)
        distributive = is_distributive(sp_lattice(a))
        decomposable = None
        for decompose in (decompose_sb, decompose_asb):
            for e in decompose(a).entries:
                d = e.decomposition
                projected = project_to_minimal(a, d)
                sigma1, sigma2 = (join(pi, rho) for pi in d.source_partitions)
                assert bool(projected) == (meet(sigma1, sigma2) == rho)
                assert projected or not distributive
                if not projected:
                    continue
                assert projected.kind is DecompositionKind.SB
                assert verify("sb", m, projected.a1, projected.a2)
                assert projected.a1.n <= d.a1.n and projected.a2.n <= d.a2.n
                if projected.a1.n < m.n and projected.a2.n < m.n:
                    if decomposable is None:
                        decomposable = decompose_sb(m)
                    assert any(x.nontrivial for x in decomposable.entries)

    def test_distributive_lattices_refuse_no_entry(self):
        # The paper-level statement: in a distributive lattice
        # (pi1 v rho) ^ (pi2 v rho) = (pi1 ^ pi2) v rho = rho, so every entry projects.
        rng = random.Random(17)
        checked = 0
        for _ in range(120):
            b1, b2 = (random_dfa(rng, rng.randint(2, 4)) for _ in range(2))
            a = trim(parallel_connection(b1, b2))
            if is_distributive(sp_lattice(a)):
                entries = decompose_sb(a).entries
                assert all(project_to_minimal(a, e.decomposition) for e in entries)
                checked += len(entries)
        assert checked > 0

    def test_builds_no_lattice(self, monkeypatch):
        cases = [(a, decompose_sb(a).entries) for a in (_padded_lkl23(), gen_example31()[1])]

        def refuse(*args, **kwargs):
            raise AssertionError("project_to_minimal built a lattice")

        monkeypatch.setattr(decompositions, "sp_lattice", refuse)
        answers = [project_to_minimal(a, e.decomposition) for a, entries in cases for e in entries]
        assert sum(map(bool, answers)) == 13


class TestTransferToMinimal:
    def test_si_transfer_from_a_padded_variant(self):
        padded, a1, a2 = _parity_padded_a4b4()
        assert minimize(padded)[0].n < padded.n
        d = verify("si", padded, a1, a2)
        assert d
        t = transfer_to_minimal("si", padded, d)
        assert t.kind is DecompositionKind.SI

    def test_ai_transfer_is_language_level(self):
        padded, a1, a2 = _parity_padded_a4b4()
        d = verify("ai", padded, a1, a2)
        assert transfer_to_minimal("ai", padded, d)

    def test_wai_transfer_with_one_state_advisor(self):
        _, a_prime = gen_example31()
        solver, _ = minimize(a_prime)
        d = verify("wai", a_prime, solver, helpers.one_state())
        assert transfer_to_minimal("wai", a_prime, d)

    def test_sb_kind_rejected(self):
        a = gen_lkl(2, 3)
        d = decompose_sb(a).entries[0].decomposition
        with pytest.raises(InputError):
            transfer_to_minimal("sb", a, d)

    def test_non_verifying_input_rejected(self):
        a, a1, a2 = gen_a4b4_triple()
        bogus = Decomposition(DecompositionKind.AI, gen_lkl(2, 2), a2, None)
        with pytest.raises(InputError):
            transfer_to_minimal("ai", a, bogus)


class TestHierarchy:
    def test_sb_implies_si_on_quotient_pairs(self):
        for a in (gen_grid(2, 3), gen_lkl(2, 2), _pad6()):
            for e in decompose_sb(a).entries:
                assert verify("si", a, e.decomposition.a1, e.decomposition.a2)

    def test_perfect_si_iff_perfect_sb(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            a1 = random_dfa(rng, rng.randint(2, 3))
            a2 = random_dfa(rng, rng.randint(2, 3))
            a = trim(parallel_connection(a1, a2))
            if a.n != a1.n * a2.n:
                continue
            checked += 1
            si = bool(verify("si", a, a1, a2))
            sb = bool(verify("sb", a, a1, a2))
            assert si == sb
