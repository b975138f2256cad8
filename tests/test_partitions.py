import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dfadecomp import (
    Dfa,
    InputError,
    Partition,
    gen_example31,
    gen_example31_partitions,
    gen_grid,
    gen_lkl,
    gen_ln,
    is_distributive,
    is_sp,
    join,
    leq,
    meet,
    min_sp_merging,
    quotient,
    random_dfa,
    separates_finals,
    sp_lattice,
)

import dfadecomp.partitions
import helpers


@st.composite
def partition_pairs(draw, max_n=6):
    n = draw(st.integers(1, max_n))

    def labels():
        out = [0]
        for _ in range(n - 1):
            out.append(draw(st.integers(0, max(out) + 1)))
        return out

    return Partition.from_assignment(labels()), Partition.from_assignment(labels())


class TestLatticeOperations:
    def test_example31_pair_meets_to_zero(self):
        pi1, pi2 = gen_example31_partitions()
        assert meet(pi1, pi2) == Partition.singletons(6)

    def test_meet_with_top_and_bottom(self):
        pi = Partition([[0, 1], [2], [3]])
        assert meet(pi, Partition.whole(4)) == pi
        assert meet(pi, Partition.singletons(4)) == Partition.singletons(4)

    def test_join_chains_overlapping_blocks(self):
        p = Partition([[0, 1], [2], [3]])
        q = Partition([[1, 2], [0], [3]])
        assert join(p, q) == Partition([[0, 1, 2], [3]])

    def test_join_with_top_and_bottom(self):
        pi = Partition([[0, 1], [2], [3]])
        assert join(pi, Partition.singletons(4)) == pi
        assert join(pi, Partition.whole(4)) == Partition.whole(4)

    def test_leq_bounds(self):
        pi = Partition([[0, 1], [2]])
        assert leq(Partition.singletons(3), pi)
        assert leq(pi, pi)

    def test_rows_cols_incomparable_on_the_grid(self):
        g = gen_grid(2, 2)
        rows = min_sp_merging(g, "q0_0", "q0_1")
        cols = min_sp_merging(g, "q0_0", "q1_0")
        assert rows == Partition([[0, 1], [2, 3]])
        assert not leq(rows, cols)
        assert not leq(cols, rows)

    def test_mismatched_ground_sets_rejected(self):
        with pytest.raises(InputError):
            meet(Partition.singletons(2), Partition.singletons(3))
        with pytest.raises(InputError):
            join(Partition.singletons(2), Partition.singletons(3))
        with pytest.raises(InputError):
            leq(Partition.singletons(2), Partition.singletons(3))

    @settings(max_examples=120)
    @given(partition_pairs())
    def test_lattice_laws(self, pair):
        x, y = pair
        assert meet(x, y) == meet(y, x)
        assert join(x, y) == join(y, x)
        assert meet(x, x) == x
        assert join(x, x) == x
        assert leq(meet(x, y), x)
        assert leq(x, join(x, y))
        # absorption
        assert meet(x, join(x, y)) == x
        assert join(x, meet(x, y)) == x
        # agreement with the independent frozenset model
        assert helpers.fs(meet(x, y)) == helpers.fs_meet(helpers.fs(x), helpers.fs(y))
        assert helpers.fs(join(x, y)) == helpers.fs_join(helpers.fs(x), helpers.fs(y))
        assert leq(x, y) == helpers.fs_refines(helpers.fs(x), helpers.fs(y))


def _labelling_pairs(max_n=7):
    """Two arbitrary labellings of one state set, labels not renumbered."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(0, 4), min_size=n, max_size=n)] * 2)
    )


def _fs_of(labels) -> helpers.FsPartition:
    """The frozenset model of any labelling: states sharing a label share a block."""
    return frozenset(
        frozenset(j for j, other in enumerate(labels) if other == lab) for lab in set(labels)
    )


def _is_leader_vector(v) -> bool:
    # Every block then holds its leader, and every other member is larger.
    return all(v[i] <= i and v[v[i]] == v[i] for i in range(len(v)))


def _assert_canonical(pi: Partition, model: helpers.FsPartition) -> None:
    """pi has the fields of the frozenset model in canonical form: members
    sorted, blocks by least member, each state led by its block's least member."""
    blocks = tuple(sorted(tuple(sorted(b)) for b in model))
    position = {i: k for k, b in enumerate(blocks) for i in b}
    assert pi.blocks == blocks
    assert pi.block_index == tuple(position[i] for i in range(len(position)))
    assert pi.leaders == tuple(blocks[position[i]][0] for i in range(len(position)))


class TestLeaderVectors:
    """The private leader-vector helpers against the frozenset model."""

    @settings(max_examples=150)
    @given(_labelling_pairs())
    def test_leaders_name_each_block_by_its_least_state(self, pair):
        labels, _ = pair
        v = dfadecomp.partitions._leaders(labels)
        assert _is_leader_vector(v)
        assert list(v) == [labels.index(lab) for lab in labels]
        assert _fs_of(v) == _fs_of(labels)

    @settings(max_examples=150)
    @given(_labelling_pairs())
    def test_join_and_leq_match_the_frozenset_model(self, pair):
        x, y = map(dfadecomp.partitions._leaders, pair)
        z = dfadecomp.partitions._join(x, dfadecomp.partitions._merges(y))
        assert _is_leader_vector(z)
        assert _fs_of(z) == helpers.fs_join(_fs_of(x), _fs_of(y))
        assert dfadecomp.partitions._leq(x, y) == helpers.fs_refines(_fs_of(x), _fs_of(y))
        assert dfadecomp.partitions._leq(y, x) == helpers.fs_refines(_fs_of(y), _fs_of(x))

    @settings(max_examples=150)
    @given(_labelling_pairs())
    def test_from_leaders_has_the_model_blocks(self, pair):
        labels, _ = pair
        pi = Partition._from_leaders(dfadecomp.partitions._leaders(labels))
        assert helpers.fs(pi) == _fs_of(labels)
        _assert_canonical(pi, _fs_of(labels))

    @settings(max_examples=150)
    @given(_labelling_pairs(), st.randoms(use_true_random=False))
    def test_every_route_gives_one_partition(self, pair, rng):
        labels, other = pair
        model = _fs_of(labels)
        # Blocks in any order, members shuffled and repeated, an empty block.
        blocks = [sorted(b) + rng.sample(sorted(b), 1) for b in model] + [[]]
        for block in blocks:
            rng.shuffle(block)
        rng.shuffle(blocks)
        relabel = rng.sample(range(100), 5)
        routes = [
            Partition._from_leaders(dfadecomp.partitions._leaders(labels)),
            Partition(blocks),
            Partition.from_assignment([relabel[lab] for lab in labels]),
        ]
        for pi in routes:
            _assert_canonical(pi, model)
            assert pi == routes[0] and hash(pi) == hash(routes[0])
        y = Partition.from_assignment(other)
        for got, want in (
            (meet(routes[1], y), helpers.fs_meet(model, _fs_of(other))),
            (join(routes[1], y), helpers.fs_join(model, _fs_of(other))),
        ):
            _assert_canonical(got, want)
            assert got == Partition(want) and hash(got) == hash(Partition(want))

    @settings(max_examples=100)
    @given(helpers.dfas(), st.data())
    def test_min_sp_merging_labels_is_a_leader_vector(self, dfa, data):
        p = data.draw(st.integers(0, dfa.n - 1))
        t = data.draw(st.integers(0, dfa.n - 1))
        v = dfadecomp.partitions._min_sp_merging_labels(dfa, p, t)
        assert _is_leader_vector(v)
        assert v[p] == v[t]
        assert helpers.fs_is_sp(dfa, _fs_of(v))


class TestSubstitutionProperty:
    def test_grid_rows_have_sp(self):
        g = gen_grid(3, 5)
        rows = Partition([range(i * 5, (i + 1) * 5) for i in range(3)])
        assert is_sp(g, rows)

    def test_trivial_partitions_have_sp(self):
        a = random_dfa(random.Random(2), 5)
        assert is_sp(a, Partition.singletons(5))
        assert is_sp(a, Partition.whole(5))

    def test_diagonal_pairing_lacks_sp_on_the_grid(self):
        g = gen_grid(2, 2)
        assert not is_sp(g, Partition([[0, 3], [1], [2]]))

    def test_agrees_with_pairwise_definition(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_dfa(rng, rng.randint(2, 5))
            for x in helpers.all_fs_partitions(a.n):
                pi = Partition(x)
                assert is_sp(a, pi) == helpers.fs_is_sp(a, helpers.fs(pi))

    def test_sublattice_closure(self):
        rng = random.Random(6)
        for _ in range(20):
            a = random_dfa(rng, rng.randint(2, 6))
            elements = sp_lattice(a).elements
            for x, y in itertools.combinations(elements, 2):
                assert is_sp(a, meet(x, y))
                assert is_sp(a, join(x, y))


class TestMinSpMerging:
    def test_row_pair_merges_rows(self):
        g = gen_grid(2, 2)
        assert min_sp_merging(g, "q0_0", "q0_1") == Partition([[0, 1], [2, 3]])

    def test_same_state_gives_singletons(self):
        g = gen_grid(2, 2)
        assert min_sp_merging(g, "q0_0", "q0_0") == Partition.singletons(4)

    def test_diagonal_pair_collapses_everything(self):
        g = gen_grid(2, 2)
        assert min_sp_merging(g, "q0_0", "q1_1") == Partition.whole(4)

    def test_is_least_sp_partition_merging_the_pair(self):
        rng = random.Random(9)
        for _ in range(15):
            a = random_dfa(rng, rng.randint(2, 5))
            sp_all = [
                Partition(x)
                for x in helpers.all_fs_partitions(a.n)
                if helpers.fs_is_sp(a, x)
            ]
            p, t = rng.sample(range(a.n), 2)
            atom = min_sp_merging(a, a.states[p], a.states[t])
            assert is_sp(a, atom)
            assert atom.same_block(p, t)
            for candidate in sp_all:
                if candidate.same_block(p, t):
                    assert leq(atom, candidate)


class TestSpLattice:
    def test_grid22_has_the_seven_expected_elements(self):
        g = gen_grid(2, 2)
        expected = {
            Partition.singletons(4),
            Partition.whole(4),
            Partition([[0, 1], [2, 3]]),  # rows
            Partition([[0, 2], [1, 3]]),  # cols
            Partition([[0], [1], [2, 3]]),
            Partition([[0], [2], [1, 3]]),
            Partition([[0], [1, 2, 3]]),
        }
        assert set(sp_lattice(g).elements) == expected

    def test_one_state_lattice_is_the_single_partition(self):
        lattice = sp_lattice(gen_ln(1))
        assert set(lattice.elements) == {Partition.singletons(1)}

    def test_example31_min_has_no_nontrivial_meet_zero_pair(self):
        a_min, _ = gen_example31()
        lattice = sp_lattice(a_min)
        zero = Partition.singletons(a_min.n)
        for x, y in itertools.combinations(lattice.nontrivial(), 2):
            assert meet(x, y) != zero

    @pytest.mark.parametrize(
        "a, calls",
        [
            (gen_grid(3, 5), 822),
            (gen_grid(3, 6), 1516),
            (helpers.identity(8), 9063),
        ],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_joins_made_per_build(self, monkeypatch, a, calls):
        # Irreducibility is tested against the irreducibles found below each
        # atom, and the closure reads joins from finished rows; losing either
        # rule raises these counts (2874, 6155 and 91364 without both).
        real = dfadecomp.partitions._join
        joined = []

        def counting(x, merges):
            joined.append(x)
            return real(x, merges)

        monkeypatch.setattr(dfadecomp.partitions, "_join", counting)
        sp_lattice(a)
        assert len(joined) == calls


class TestMeetClosureSelfCheck:
    """``sp_lattice`` re-checks closure under meet on its pair masks.  On four
    states that one letter fixes, every partition is S.P.; a join that never
    yields {0,1|2|3} leaves {0,1,2|3} and {0,1,3|2} without their meet."""

    IDENTITY4 = Dfa(
        name="identity4",
        states=("s0", "s1", "s2", "s3"),
        alphabet=("a",),
        table=((0,), (1,), (2,), (3,)),
        initial=0,
        accepting=frozenset({0}),
    )

    @pytest.fixture
    def join_skipping_01(self, monkeypatch):
        real = dfadecomp.partitions._join

        # The bottom is the one element that joins to {0,1|2|3}.  Returning it
        # unchanged drops that element, and the closure's lookups reuse the
        # answer: {2,3} joined with {0,1} is read from the row of {2,3}
        # found as the bottom joined with {0,1}, which is {2,3} itself, so
        # {0,1|2,3} is dropped too.
        def join(x, merges):
            z = real(x, merges)
            return x if z == (0, 0, 2, 3) else z  # {0,1|2|3} as leaders

        monkeypatch.setattr(dfadecomp.partitions, "_join", join)

    def test_the_real_lattice_passes_the_check(self):
        assert len(sp_lattice(self.IDENTITY4).elements) == 15  # Bell(4)

    def test_a_missing_meet_is_an_internal_error(self, join_skipping_01):
        with pytest.raises(RuntimeError) as exc:
            sp_lattice(self.IDENTITY4)
        assert str(exc.value) == "internal invariant violated: lattice not meet-closed"

    def test_the_check_can_be_switched_off(self, join_skipping_01):
        lattice = sp_lattice(self.IDENTITY4, check_meet_closure=False)
        missing = set(helpers.all_fs_partitions(4)) - {helpers.fs(pi) for pi in lattice.elements}
        dropped = Partition([[0, 1], [2], [3]]), Partition([[0, 1], [2, 3]])
        assert missing == set(map(helpers.fs, dropped))
        assert len(lattice.elements) == 13
        assert {Partition([[0, 1, 2], [3]]), Partition([[0, 1, 3], [2]])} <= set(lattice.elements)

    @staticmethod
    def missing_meets(lattice) -> set[frozenset[Partition]]:
        """The pairs of elements whose meet is not an element, by ``meet``."""
        return {
            frozenset((x, y))
            for x, y in itertools.combinations(lattice.elements, 2)
            if meet(x, y) not in lattice
        }

    def test_every_meet_is_an_element_outside_the_self_check(self):
        """Closure under meet, checked outside ``sp_lattice`` on lattices
        built without its self-check: seeded random trimmed automata of 1-7
        states over 1-3 symbols, the identity automata of 4-6 states,
        grid(3,5) and lkl(4,6)."""
        automata = [helpers.identity(n) for n in (4, 5, 6)] + [gen_grid(3, 5), gen_lkl(4, 6)]
        for seed in range(60):
            rng = random.Random(seed)
            alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
            automata.append(random_dfa(rng, rng.randint(1, 7), alphabet, trim_unreachable=True))
        for a in automata:
            assert self.missing_meets(sp_lattice(a, check_meet_closure=False)) == set(), a.name

    def test_the_outside_check_reports_the_missing_meet(self, join_skipping_01):
        lattice = sp_lattice(self.IDENTITY4, check_meet_closure=False)
        pair = frozenset((Partition([[0, 1, 2], [3]]), Partition([[0, 1, 3], [2]])))
        assert self.missing_meets(lattice) == {pair}


class TestRaises:
    def test_repr_lists_the_blocks(self):
        assert repr(Partition([[2, 0], [1]])) == "Partition({0,2|1})"

    @pytest.mark.parametrize("blocks", [[[0], [0]], [[1]], [["a"]]])
    def test_blocks_must_partition_the_index_range(self, blocks):
        with pytest.raises(InputError) as exc:
            Partition(blocks)
        assert str(exc.value) == "blocks do not partition the index range exactly"

    def test_blocks_are_normalized(self):
        # Repeats within a block and empty blocks are dropped, members sorted,
        # blocks ordered by their least member.
        pi = Partition([[2, 0], [], [1, 1]])
        assert pi.blocks == ((0, 2), (1,))
        assert pi.block_index == (0, 1, 0)

    def test_quotient_accepting_block_out_of_range(self):
        a = gen_grid(2, 2)
        with pytest.raises(InputError) as exc:
            quotient(a, Partition.singletons(a.n), [a.n])
        assert str(exc.value) == f"accepting block index {a.n} out of range"

    def test_separates_finals_out_of_range(self):
        zero = Partition.singletons(2)
        with pytest.raises(InputError) as exc:
            separates_finals(zero, zero, [2])
        assert str(exc.value) == "final states are not a subset of the partitioned set"


class TestSeparatesFinals:
    def test_example31_witness(self):
        _, a_prime = gen_example31()
        pi1, pi2 = gen_example31_partitions()
        finals = {a_prime.state_index(q) for q in ("a0", "b0")}
        witness = separates_finals(pi1, pi2, finals)
        assert witness is not None
        chosen1 = {frozenset(pi1.blocks[b]) for b in witness.blocks_from_1}
        chosen2 = {frozenset(pi2.blocks[b]) for b in witness.blocks_from_2}
        named = lambda idxs: frozenset(a_prime.states[i] for i in idxs)
        assert {named(b) for b in chosen1} == {
            frozenset({"a0"}),
            frozenset({"b0", "b1"}),
        }
        assert {named(b) for b in chosen2} == {frozenset({"a0", "a1", "b0", "R0"})}

    def test_singleton_partitions_separate_any_final_set(self):
        zero = Partition.singletons(5)
        witness = separates_finals(zero, zero, {1, 3})
        assert witness is not None
        assert set(witness.blocks_from_1) == {1, 3}
        assert set(witness.blocks_from_2) == {1, 3}

    def test_grid_rows_and_cols_separate_the_corner(self):
        r, s = 3, 5
        g = gen_grid(r, s)
        rows = Partition([range(i * s, (i + 1) * s) for i in range(r)])
        cols = Partition([range(j, r * s, s) for j in range(s)])
        witness = separates_finals(rows, cols, {r * s - 1})
        assert witness is not None
        assert witness.blocks_from_1 == (r - 1,)
        assert witness.blocks_from_2 == (s - 1,)

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 6)
            p1 = Partition.from_assignment([rng.randrange(3) for _ in range(n)])
            p2 = Partition.from_assignment([rng.randrange(3) for _ in range(n)])
            finals = frozenset(i for i in range(n) if rng.random() < 0.4)
            got = separates_finals(p1, p2, finals)
            expected = helpers.exhaustive_separation_exists(
                helpers.fs(p1), helpers.fs(p2), finals
            )
            assert (got is not None) == expected
            if got is not None:
                u1 = {i for b in got.blocks_from_1 for i in p1.blocks[b]}
                u2 = {i for b in got.blocks_from_2 for i in p2.blocks[b]}
                assert u1 & u2 == finals

    def test_fallback_agrees_with_canonical(self):
        # the minimal pick decides: exhaustive search finds a witness exactly when it does
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 5)
            p1 = Partition.from_assignment([rng.randrange(2) for _ in range(n)])
            p2 = Partition.from_assignment([rng.randrange(2) for _ in range(n)])
            finals = frozenset(i for i in range(n) if rng.random() < 0.4)
            canonical = separates_finals(p1, p2, finals)
            fallback = helpers.exhaustive_separation_exists(
                helpers.fs(p1), helpers.fs(p2), finals
            )
            assert (canonical is not None) == fallback

    def test_no_witness_is_none_even_past_a_subset_search(self):
        # 21+21 blocks: the minimal pick decides without searching 2**42 subsets
        n = 22
        blocks = [[0, 1]] + [[i] for i in range(2, n)]
        nearly_zero = Partition(blocks)
        assert separates_finals(nearly_zero, nearly_zero, {0}) is None


class TestIsDistributive:
    def test_single_element_lattice(self):
        assert is_distributive(sp_lattice(gen_ln(1)))

    def test_grid22_lattice_is_not_distributive(self):
        lattice = sp_lattice(gen_grid(2, 2))
        # independent triple loop over the brute-forced elements
        elements = [
            helpers.fs(pi)
            for pi in (Partition(x) for x in helpers.all_fs_partitions(4))
            if helpers.fs_is_sp(gen_grid(2, 2), helpers.fs(pi))
        ]
        violations = any(
            helpers.fs_meet(x, helpers.fs_join(y, z))
            != helpers.fs_join(helpers.fs_meet(x, y), helpers.fs_meet(x, z))
            for x in elements
            for y in elements
            for z in elements
        )
        assert violations
        assert is_distributive(lattice) is False

    @pytest.mark.parametrize("k, l", itertools.product(range(2, 8), repeat=2))
    def test_lkl_lattice_is_the_subgroup_lattice(self, k, l):
        # lkl(k,l) is the Cayley automaton of Z_k x Z_l, so its S.P. partitions
        # are the coset partitions of the subgroups.  Each subgroup is generated
        # by two elements, and the subgroup lattice of a finite group is
        # distributive iff the group is cyclic (Ore 1938), iff gcd(k, l) == 1.
        group = list(itertools.product(range(k), range(l)))

        def add(x, y):
            return (x[0] + y[0]) % k, (x[1] + y[1]) % l

        def generated(g, h):
            members, frontier = {(0, 0)}, [(0, 0)]
            while frontier:
                x = frontier.pop()
                for y in (add(x, g), add(x, h)):
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
            return frozenset(members)

        subgroups = {generated(g, h) for g in group for h in group}
        cosets = {
            Partition.from_assignment([frozenset(add(x, y) for y in sub) for x in group])
            for sub in subgroups
        }
        lattice = sp_lattice(gen_lkl(k, l))
        assert len(lattice.elements) == len(subgroups)
        assert set(lattice.elements) == cosets
        assert is_distributive(lattice) == (math.gcd(k, l) == 1)

    def test_diamond_from_identity_transitions(self):
        # every partition of three states has S.P. when all symbols self-loop
        a = Dfa("id3", ("x", "y", "z"), ("a",), ((0,), (1,), (2,)), 0, frozenset())
        lattice = sp_lattice(a)
        assert len(lattice.elements) == 5
        assert is_distributive(lattice) is False
