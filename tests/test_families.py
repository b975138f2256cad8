import itertools
import random

import pytest

from dfadecomp import (
    Dfa,
    InputError,
    accepts,
    decompose_asb,
    decompose_sb,
    equivalent,
    gen_a4b4_triple,
    gen_example31,
    gen_example31_partitions,
    gen_grid,
    gen_k_extension,
    gen_lkl,
    gen_ln,
    gen_sb_not_asb,
    is_sp,
    meet,
    minimize,
    Partition,
    random_dfa,
    run,
    separates_finals,
    verify,
)

import helpers


class TestLn:
    def test_one_state_accepts_everything_unary(self):
        a = gen_ln(1)
        assert a.n == 1
        assert all(accepts(a, "a" * k) for k in range(5))

    def test_threshold_four(self):
        a = gen_ln(4)
        assert a.n == 4
        assert not accepts(a, "aa")
        assert accepts(a, "aaa")

    def test_chain_automata_are_minimal(self):
        for n in (1, 2, 5):
            assert helpers.is_minimal(gen_ln(n))

    def test_parameter_range(self):
        with pytest.raises(InputError):
            gen_ln(0)


class TestLkl:
    def test_sizes_and_membership(self):
        a = gen_lkl(3, 5)
        assert a.n == 15
        assert accepts(a, "aaabbbbb")
        assert not accepts(a, "aabbbbb")

    def test_language_matches_the_counting_definition(self):
        a = gen_lkl(2, 3)
        for w in helpers.words_up_to(("a", "b"), 6):
            expected = w.count("a") % 2 == 0 and w.count("b") % 3 == 0
            assert accepts(a, w) == expected

    def test_perfect_decomposition_exists(self):
        rep = decompose_asb(gen_lkl(3, 5))
        assert any(
            e.perfect and (e.decomposition.a1.n, e.decomposition.a2.n) == (3, 5)
            for e in rep.entries
        )

    def test_parameter_range(self):
        with pytest.raises(InputError):
            gen_lkl(1, 2)


class TestGrid:
    def test_transitions_follow_the_saturating_clauses(self):
        g = gen_grid(2, 2)
        assert run(g, "ab") == "q1_1"
        assert accepts(g, "ab")
        g35 = gen_grid(3, 5)
        # saturation: extra symbols beyond the cap do not move the state
        assert run(g35, "aaaaa") == run(g35, "aa")

    def test_grids_are_minimal(self):
        for r, s in itertools.product((2, 3, 4), repeat=2):
            assert helpers.is_minimal(gen_grid(r, s))

    def test_unique_nonredundant_decomposition(self):
        rep = decompose_sb(gen_grid(3, 5))
        nonredundant = [e for e in rep.entries if not e.redundant]
        assert [(e.decomposition.a1.n, e.decomposition.a2.n) for e in nonredundant] == [(3, 5)]

    def test_parameter_range(self):
        with pytest.raises(InputError):
            gen_grid(1, 2)


class TestKExtension:
    def test_state_count(self):
        assert gen_k_extension(gen_grid(2, 2), 2).n == 6

    def test_chain_prefix_simulates_the_base(self):
        base = gen_grid(2, 2)
        ext = gen_k_extension(base, 2)
        prefix = (ext.alphabet[-1],) * 2
        for w in helpers.words_up_to(ext.alphabet, 5):
            squeezed = tuple(sym for sym in w if sym != ext.alphabet[-1])
            assert accepts(ext, prefix + w) == accepts(base, squeezed)

    def test_decomposition_sizes_shift_by_k(self):
        ext = gen_k_extension(gen_grid(2, 2), 2)
        nonredundant = [e for e in decompose_sb(ext).entries if not e.redundant]
        assert [(e.decomposition.a1.n, e.decomposition.a2.n) for e in nonredundant] == [(4, 4)]

    def test_fresh_symbol_selection_and_override(self):
        base = gen_grid(2, 2)
        assert gen_k_extension(base, 1).alphabet[-1] == "c"
        shifted = gen_k_extension(gen_k_extension(base, 1), 1)
        assert shifted.alphabet[-1] == "d"
        assert shifted.states[:2] == ("_p0", "p0")
        assert gen_k_extension(base, 1, fresh_symbol="z").alphabet[-1] == "z"
        with pytest.raises(InputError):
            gen_k_extension(base, 1, fresh_symbol="a")

    def test_extension_of_minimal_is_minimal(self):
        ext = gen_k_extension(gen_grid(2, 2), 1)
        assert helpers.is_minimal(ext)

    def test_length_zero_rejected(self):
        with pytest.raises(InputError) as exc:
            gen_k_extension(gen_grid(2, 2), 0)
        assert str(exc.value) == "extension length must be at least 1"

    def test_no_fresh_symbol_left(self):
        full = Dfa("full", ("p",), tuple("abcdefghijklmnopqrstuvwxyz"), ((0,) * 26,), 0, frozenset())
        with pytest.raises(InputError) as exc:
            gen_k_extension(full, 1)
        assert str(exc.value) == "no available fresh symbol"


class TestRandomDfa:
    def test_zero_states_rejected(self):
        with pytest.raises(InputError) as exc:
            random_dfa(random.Random(1), 0)
        assert str(exc.value) == "need at least one state"


class TestExample31:
    def test_accepts_examples(self):
        a_min, _ = gen_example31()
        assert accepts(a_min, "aabb")
        assert not accepts(a_min, "ab")

    def test_transcription_matches_the_even_even_language(self):
        # reference set built arithmetically: even a-run then even b-run
        a_min, a_prime = gen_example31()
        for dfa in (a_min, a_prime):
            got = helpers.language(dfa, 8)
            expected = frozenset(
                ("a",) * (2 * k) + ("b",) * (2 * l)
                for k in range(5)
                for l in range(5)
                if 2 * k + 2 * l <= 8
            )
            assert got == expected

    def test_pair_is_equivalent_and_minimizes_to_five(self):
        a_min, a_prime = gen_example31()
        assert equivalent(a_min, a_prime)
        assert helpers.is_minimal(a_min)
        assert minimize(a_prime)[0].n == 5

    def test_fixture_partitions_meet_zero_and_separate(self):
        a_min, a_prime = gen_example31()
        pi1, pi2 = gen_example31_partitions()
        assert is_sp(a_prime, pi1) and is_sp(a_prime, pi2)
        assert meet(pi1, pi2) == Partition.singletons(6)
        finals = {a_prime.state_index(q) for q in ("a0", "b0")}
        assert separates_finals(pi1, pi2, finals) is not None


class TestA4b4:
    def test_sizes_are_the_oracle_verified_regression_values(self):
        a, a1, a2 = gen_a4b4_triple()
        assert (a.n, a1.n, a2.n) == (9, 6, 4)
        for dfa in (a, a1, a2):
            assert helpers.is_minimal(dfa)

    def test_languages_match_the_counting_definitions(self):
        def ab_shape(text):
            a_run = len(text) - len(text.lstrip("a"))
            rest = text[a_run:]
            return (a_run, len(rest)) if rest == "b" * len(rest) else None

        a, a1, a2 = gen_a4b4_triple()
        for w in helpers.words_up_to(("a", "b"), 9):
            text = "".join(w)
            shape = ab_shape(text)
            in_main = shape is not None and (
                shape[0] % 4 == 0 and shape[1] % 4 == 0 and shape[1] >=  4
            )
            in_first = shape is not None and shape[0] % 4 == 0 and shape[1] >= 1
            in_second = text.count("b") % 4 == 0
            assert accepts(a, w) == in_main
            assert accepts(a1, w) == in_first
            assert accepts(a2, w) == in_second

    def test_verifies_as_ai_and_si_but_not_sb(self):
        a, a1, a2 = gen_a4b4_triple()
        assert verify("ai", a, a1, a2)
        assert verify("si", a, a1, a2)
        assert decompose_sb(a).entries == ()


class TestSbNotAsb:
    def test_membership(self):
        a = gen_sb_not_asb()
        assert accepts(a, "aabbbb")
        assert accepts(a, "")
        assert accepts(a, "ccc")
        assert not accepts(a, "ab")

    def test_sb_yes_asb_no(self):
        a = gen_sb_not_asb()
        assert decompose_sb(a).entries != ()
        assert decompose_asb(a).entries == ()

    def test_minimal(self):
        assert helpers.is_minimal(gen_sb_not_asb())
