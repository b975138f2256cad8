import random

import pytest
from hypothesis import given, settings, strategies as st

from dfadecomp import (
    Dfa,
    InputError,
    accepts,
    equivalent,
    gen_example31,
    gen_grid,
    gen_lkl,
    gen_ln,
    isomorphic,
    minimize,
    parallel_connection,
    parse_dfa,
    quotient,
    random_dfa,
    reachable_triples,
    run,
    trim,
)
from dfadecomp.automata import _distinct_names, difference_witness, reachable_indexes
from dfadecomp.partitions import Partition

import helpers


@st.composite
def small_dfas(draw, max_states=4):
    n = draw(st.integers(1, max_states))
    table = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(2)) for _ in range(n)
    )
    acc = frozenset(i for i in range(n) if draw(st.booleans()))
    return Dfa("h", tuple(f"q{i}" for i in range(n)), ("a", "b"), table, 0, acc)


class TestRunAccepts:
    def test_run_example31_min_ab_reaches_the_sink(self):
        a_min, _ = gen_example31()
        assert run(a_min, "ab") == "R"

    def test_run_empty_word_is_initial(self):
        g = gen_grid(2, 2)
        assert run(g, "") == g.initial_state

    def test_run_grid_ab(self):
        assert run(gen_grid(2, 2), "ab") == "q1_1"

    def test_accepts_threshold_language(self):
        a = gen_ln(4)
        assert accepts(a, "aaa")
        assert not accepts(a, "aa")

    def test_accepts_residue_language_empty_word(self):
        assert accepts(gen_lkl(3, 5), "")

    def test_unknown_symbol_is_an_input_error(self):
        with pytest.raises(InputError):
            run(gen_ln(2), "ab")


class TestDfaConstruction:
    def test_duplicate_state_names_rejected(self):
        with pytest.raises(InputError):
            Dfa("x", ("q", "q"), ("a",), ((0,), (1,)), 0, frozenset())

    def test_partial_table_rejected(self):
        with pytest.raises(InputError):
            Dfa.build("x", ("p", "q"), ("a",), {("p", "a"): "q"}, "p", ())

    def test_initial_must_be_a_state(self):
        with pytest.raises(InputError):
            Dfa.build("x", ("p",), ("a",), {("p", "a"): "p"}, "q", ())

    @pytest.mark.parametrize(
        "states, alphabet, table, initial, accepting, message",
        [
            ((), ("a",), (), 0, (), "automaton needs at least one state"),
            (("p", "p"), ("a",), ((0,), (1,)), 0, (), "state names are not pairwise distinct"),
            (("p",), ("a", "a"), ((0, 0),), 0, (), "alphabet symbols are not pairwise distinct"),
            (
                ("p", "q"),
                ("a", "b"),
                ((0, 1), (1,)),
                0,
                (),
                "transition table shape does not match states and alphabet",
            ),
            (
                ("p",),
                ("a",),
                ((0,), (0,)),
                0,
                (),
                "transition table shape does not match states and alphabet",
            ),
            (("p",), ("a",), ((5,),), 0, (), "transition target index 5 out of range"),
            (("p",), ("a",), ((-1,),), 0, (), "transition target index -1 out of range"),
            (("p",), ("a",), ((0,),), 1, (), "initial state is not a state of the automaton"),
            (("p",), ("a",), ((0,),), 0, (3,), "accepting set is not a subset of the states"),
        ],
    )
    def test_constructor_messages(self, states, alphabet, table, initial, accepting, message):
        with pytest.raises(InputError) as exc:
            Dfa("x", states, alphabet, table, initial, frozenset(accepting))
        assert type(exc.value) is InputError
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "states, alphabet, delta, initial, accepting, message",
        [
            (("p", "p"), ("a",), {}, "p", (), "state names are not pairwise distinct"),
            (("p",), ("a", "a"), {}, "p", (), "alphabet symbols are not pairwise distinct"),
            (("p",), ("a",), {("r", "a"): "p"}, "p", (), "transition from unknown state 'r'"),
            (("p",), ("a",), {("p", "c"): "p"}, "p", (), "transition on unknown symbol 'c'"),
            (("p",), ("a",), {("p", "a"): "r"}, "p", (), "transition to unknown state 'r'"),
            (("p", "q"), ("a",), {("p", "a"): "q"}, "p", (), "missing transition for ('q', 'a')"),
            (("p",), ("a",), {("p", "a"): "p"}, "r", (), "initial state 'r' is not a state"),
            (("p",), ("a",), {("p", "a"): "p"}, "p", ("r",), "accepting state 'r' is not a state"),
        ],
    )
    def test_build_messages(self, states, alphabet, delta, initial, accepting, message):
        with pytest.raises(InputError) as exc:
            Dfa.build("x", states, alphabet, delta, initial, accepting)
        assert type(exc.value) is InputError
        assert str(exc.value) == message


class TestMinimize:
    def test_example31_six_states_to_five(self):
        a_min, a_prime = gen_example31()
        result, _ = minimize(a_prime)
        assert result.n == 5
        assert isomorphic(result, a_min)

    def test_idempotent_up_to_isomorphism(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_dfa(rng, rng.randint(1, 6))
            once, _ = minimize(a)
            twice, _ = minimize(once)
            assert isomorphic(once, twice)
            assert once.n <= len(reachable_indexes(a))

    def test_residue_pair_automaton_is_already_minimal(self):
        lkl = gen_lkl(3, 5)
        result, _ = minimize(lkl)
        assert result.n == 15
        assert helpers.is_minimal(lkl)

    def test_state_map_commutes_with_transitions(self):
        _, a_prime = gen_example31()
        result, f = minimize(a_prime)
        for w in helpers.words_up_to(a_prime.alphabet, 2 * a_prime.n):
            assert f[run(a_prime, w)] == run(result, w)


class TestParallelConnection:
    def test_product_recognizes_the_intersection(self):
        from dfadecomp import gen_a4b4_triple

        a, a1, a2 = gen_a4b4_triple()
        assert equivalent(parallel_connection(a1, a2), a)

    def test_all_accepting_advisor_preserves_the_language(self):
        a = gen_lkl(2, 2)
        assert equivalent(parallel_connection(a, helpers.one_state()), a)

    def test_product_size_is_the_state_count_product(self):
        rng = random.Random(3)
        p = random_dfa(rng, 3)
        q = random_dfa(rng, 5)
        assert parallel_connection(p, q).n == 15

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(InputError):
            parallel_connection(gen_ln(2), gen_lkl(2, 2))

    @settings(max_examples=60)
    @given(small_dfas(), small_dfas(), st.lists(st.sampled_from("ab"), max_size=6))
    def test_acceptance_is_conjunction(self, a1, a2, word):
        prod = parallel_connection(a1, a2)
        assert accepts(prod, word) == (accepts(a1, word) and accepts(a2, word))


class TestEquivalent:
    def test_example31_pair(self):
        a_min, a_prime = gen_example31()
        assert equivalent(a_min, a_prime)

    def test_reflexive(self):
        a = gen_grid(2, 3)
        assert equivalent(a, a)

    def test_different_thresholds_differ(self):
        assert not equivalent(gen_ln(4), gen_ln(5))
        assert difference_witness(gen_ln(4), gen_ln(5)) == ("a", "a", "a")

    def test_agrees_with_word_enumeration(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_dfa(rng, 3)
            b = random_dfa(rng, 3)
            bound = a.n * b.n
            words_equal = helpers.language(a, bound) == helpers.language(b, bound)
            assert equivalent(a, b) == words_equal

    def test_witness_is_shortest_over_shuffled_alphabets(self):
        rng = random.Random(23)
        for _ in range(3000):
            alphabet = "abc"[: rng.randint(1, 3)]
            shuffled = rng.sample(alphabet, len(alphabet))
            a = random_dfa(rng, rng.randint(1, 7), alphabet)
            b = random_dfa(rng, rng.randint(1, 7), shuffled)
            word = difference_witness(a, b)
            assert (word is None) == helpers.agree_up_to(a, b, a.n * b.n)
            if word is None:
                continue
            assert accepts(a, word) != accepts(b, word)
            assert all(
                accepts(a, w) == accepts(b, w)
                for w in helpers.words_up_to(alphabet, len(word) - 1)
            )


class TestReachableTriples:
    def test_singletons(self):
        one = helpers.one_state()
        assert reachable_triples(one, one, one) == {("s", "s", "s")}

    def test_diagonal(self):
        a = gen_grid(2, 2)
        triples = reachable_triples(a, a, a)
        assert triples == {(q, q, q) for q in a.states}

    def test_a4b4_triple_count(self):
        from dfadecomp import gen_a4b4_triple

        a, a1, a2 = gen_a4b4_triple()
        triples = reachable_triples(a, a1, a2)
        # independent word-frontier closure
        frontier = {(a.initial_state, a1.initial_state, a2.initial_state)}
        seen = set(frontier)
        while frontier:
            nxt = set()
            for (p, q, r) in frontier:
                for sym in a.alphabet:
                    tri = (
                        a.states[a.table[a.state_index(p)][a.symbol_index(sym)]],
                        a1.states[a1.table[a1.state_index(q)][a1.symbol_index(sym)]],
                        a2.states[a2.table[a2.state_index(r)][a2.symbol_index(sym)]],
                    )
                    if tri not in seen:
                        seen.add(tri)
                        nxt.add(tri)
            frontier = nxt
        assert triples == seen
        assert len(triples) == 12


class TestDerivedNames:
    def test_product_names_are_made_distinct(self):
        a1 = Dfa("l", ("a.b", "a"), ("x",), ((0,), (1,)), 0, frozenset())
        a2 = Dfa("r", ("c", "b.c"), ("x",), ((0,), (1,)), 0, frozenset())
        assert parallel_connection(a1, a2).states == ("a.b.c", "a.b.b.c", "a.c", "_a.b.c")

    def test_merged_block_beside_a_state_of_its_name(self):
        a = parse_dfa(helpers.PLUS_NAMED_DOC)
        m, f = minimize(a)
        assert m.states == ("a+b", "_a+b")
        assert f == {"a": "a+b", "b": "a+b", "a+b": "_a+b"}
        assert equivalent(m, a)

    def test_names_are_walked_in_order(self):
        assert _distinct_names(("x", "x", "_x", "x")) == ("x", "_x", "__x", "___x")

    def test_names_that_do_not_collide_are_kept(self):
        names = ("q0", "q1+q2", "q3.q4")
        assert _distinct_names(names) is names
        a = gen_grid(2, 3)
        assert parallel_connection(a, a).states == tuple(
            f"{p}.{q}" for p in a.states for q in a.states
        )


class TestQuotient:
    def test_identity_quotient_is_isomorphic(self):
        a = gen_grid(2, 2)
        zero = Partition.singletons(a.n)
        acc_blocks = [zero.block_index[i] for i in a.accepting]
        assert isomorphic(quotient(a, zero, acc_blocks), a)

    def test_whole_partition_gives_one_state_accept_all(self):
        a = gen_grid(2, 2)
        q = quotient(a, Partition.whole(a.n), [0])
        assert q.n == 1
        assert all(accepts(q, w) for w in helpers.words_up_to(a.alphabet, 3))

    def test_example31_pi1_quotient_has_four_states(self):
        from dfadecomp import gen_example31_partitions

        _, a_prime = gen_example31()
        pi1, _ = gen_example31_partitions()
        assert quotient(a_prime, pi1, ()).n == 4

    def test_non_sp_partition_rejected(self):
        a = gen_grid(2, 2)
        bad = Partition([[0, 3], [1], [2]])
        with pytest.raises(InputError):
            quotient(a, bad, ())

    def test_partition_of_another_size_rejected(self):
        a = gen_grid(2, 2)
        with pytest.raises(InputError, match="does not cover the automaton's state set"):
            quotient(a, Partition.singletons(a.n + 1), ())


class TestTrimCanonical:
    def test_trim_drops_unreachable(self):
        a = Dfa(
            "x",
            ("p", "q", "dead"),
            ("a",),
            ((0,), (1,), (2,)),
            0,
            frozenset({0, 2}),
        )
        t = trim(a)
        assert t.states == ("p",)

    def test_isomorphic_ignores_names_and_order(self):
        a = gen_lkl(2, 2)
        relabel = Dfa("y", ("w", "x", "y", "z"), a.alphabet, a.table, a.initial, a.accepting)
        assert isomorphic(a, relabel)
        assert not isomorphic(a, gen_lkl(2, 3))

    def test_isomorphic_needs_one_alphabet(self):
        a = gen_ln(2)
        renamed = Dfa("y", a.states, ("b",), a.table, a.initial, a.accepting)
        assert not isomorphic(a, renamed)
