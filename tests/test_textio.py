import dataclasses
import re

import pytest
from hypothesis import given, strategies as st

from dfadecomp import (
    Dfa,
    InputError,
    ParseError,
    Partition,
    export_dot,
    format_partition,
    gen_example31,
    gen_example31_partitions,
    gen_grid,
    gen_lkl,
    gen_ln,
    parse_dfa,
    parse_dfas,
    parse_partition,
    print_dfa,
)

import helpers


class TestRoundTrip:
    def test_fixture_round_trips_are_byte_exact(self):
        fixtures = [
            gen_ln(1),
            gen_ln(4),
            gen_lkl(2, 2),
            gen_grid(3, 5),
            *gen_example31(),
        ]
        for dfa in fixtures:
            text = print_dfa(dfa)
            again = parse_dfa(text)
            assert again == dfa
            assert print_dfa(again) == text

    @given(helpers.dfas())
    def test_random_round_trips(self, dfa):
        assert parse_dfa(print_dfa(dfa)) == dfa

    def test_lkl22_has_eight_transition_lines(self):
        lines = print_dfa(gen_lkl(2, 2)).splitlines()
        assert sum(1 for ln in lines if ln.startswith("trans ")) == 8

    def test_empty_accepting_line_round_trips(self):
        dfa = Dfa("x", ("p",), ("a",), ((0,),), 0, frozenset())
        text = print_dfa(dfa)
        assert "accepting" in text.splitlines()
        assert parse_dfa(text) == dfa

    @pytest.mark.parametrize(
        "name, alphabet, states, refused",
        [
            ("x", ("a b", "c#d"), ("s",), "symbol 'a b'"),
            ("x#y", ("a",), ("s",), "name 'x#y'"),
            ("x", ("a",), ("s", ""), "state ''"),
            ("x", ("a",), ("s", "t\n"), "state 't\\n'"),
        ],
    )
    def test_a_token_the_reader_would_split_is_refused(self, name, alphabet, states, refused):
        # Each of these used to print a document that parse_dfa refuses or
        # reads back as another automaton.
        table = tuple((0,) * len(alphabet) for _ in states)
        dfa = Dfa(name, states, alphabet, table, 0, frozenset({0}))
        with pytest.raises(InputError) as exc:
            print_dfa(dfa)
        assert str(exc.value) == f"{refused} cannot be written as one document token"

    def test_an_automaton_with_no_symbols_is_refused(self):
        # This used to print the line "alphabet ", which parse_dfa refuses.
        dfa = Dfa("x", ("s",), (), ((),), 0, frozenset())
        with pytest.raises(InputError) as exc:
            print_dfa(dfa)
        assert str(exc.value) == "an automaton with no symbols cannot be written as a document"

    def test_multi_document_stream(self):
        docs = print_dfa(gen_ln(2)) + print_dfa(gen_lkl(2, 2))
        parsed = parse_dfas(docs)
        assert [d.name for d in parsed] == ["ln2", "lkl2x2"]


class TestParseErrors:
    def test_missing_transition_names_the_pair(self):
        text = (
            "dfa x\nalphabet a b\nstates p q\ninitial p\naccepting q\n"
            "trans p a q\ntrans p b q\ntrans q a p\nend\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_dfa(text)
        assert "'q'" in str(exc.value) and "'b'" in str(exc.value)

    def test_duplicate_transition_line_number(self):
        text = (
            "dfa x\nalphabet a\nstates p\ninitial p\naccepting\n"
            "trans p a p\ntrans p a p\nend\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_dfa(text)
        assert exc.value.line == 7

    def test_unknown_symbol_in_transition(self):
        text = "dfa x\nalphabet a\nstates p\ninitial p\naccepting\ntrans p b p\nend\n"
        with pytest.raises(ParseError) as exc:
            parse_dfa(text)
        assert "'b'" in str(exc.value)

    def test_missing_initial_line(self):
        text = "dfa x\nalphabet a\nstates p\naccepting\ntrans p a p\nend\n"
        with pytest.raises(ParseError) as exc:
            parse_dfa(text)
        assert "initial" in str(exc.value)

    def test_trailing_content_rejected(self):
        text = print_dfa(gen_ln(1)) + "junk\n"
        with pytest.raises(ParseError):
            parse_dfa(text)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_dfa("# nothing here\n")

    def test_comments_and_blank_lines_are_ignored(self):
        text = "# header\n\n" + print_dfa(gen_ln(2)).replace(
            "initial q0", "initial q0  # start here"
        )
        assert parse_dfa(text) == gen_ln(2)


def _doc(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


_HEAD = ("dfa x", "alphabet a b", "states p q", "initial p", "accepting q")
_TRANS = ("trans p a q", "trans p b p", "trans q a p", "trans q b q")


# (text, exact message, line) for every raise of parse_dfa and the document
# parser behind it.  The line is the one reported, or None without one.
PARSE_DFA_ERRORS = [
    ("", "empty input", None),
    ("# only a comment\n\n", "empty input", None),
    (_doc("dfa x"), "unexpected end of input, expected 'alphabet' line", 1),
    (_doc("dfa x", "states p"), "expected 'alphabet' line, found 'states'", 2),
    (_doc("dfa x y"), "'dfa' line takes exactly one name", 1),
    (_doc("dfa x", "alphabet"), "'alphabet' line needs at least one symbol", 2),
    (_doc("dfa x", "alphabet a a"), "duplicate symbol in alphabet", 2),
    (_doc("dfa x", "alphabet a", "states"), "'states' line needs at least one state", 3),
    (_doc("dfa x", "alphabet a", "states p p"), "duplicate state name", 3),
    (_doc(*_HEAD[:3], "initial p q"), "'initial' line takes exactly one state", 4),
    (_doc(*_HEAD[:3], "initial r"), "initial state 'r' is not a listed state", 4),
    (_doc(*_HEAD[:4], "accepting q r"), "accepting state 'r' is not a listed state", 5),
    (_doc(*_HEAD[:4], "trans p a q"), "expected 'accepting' line, found 'trans'", 5),
    (_doc(*_HEAD, *_TRANS, "end now"), "'end' line takes no arguments", 10),
    (_doc(*_HEAD, "goto p"), "expected 'trans' or 'end' line, found 'goto'", 6),
    (_doc(*_HEAD, "trans p a"), "'trans' line takes: state symbol state", 6),
    (_doc(*_HEAD, "trans r a p"), "transition from unknown state 'r'", 6),
    (_doc(*_HEAD, "trans p c p"), "transition on unknown symbol 'c'", 6),
    (_doc(*_HEAD, "trans p a r"), "transition to unknown state 'r'", 6),
    (_doc(*_HEAD, "trans p a q", "trans p a p"), "duplicate transition for ('p', 'a')", 7),
    (_doc(*_HEAD, *_TRANS, "", "# no end"), "missing 'end' line", 9),
    (
        _doc(*_HEAD, *_TRANS[:2], _TRANS[3], "end"),
        "automaton is not complete: missing transition for ('q', 'a')",
        9,
    ),
    (_doc(*_HEAD, *_TRANS, "end", "dfa y"), "trailing content after 'end'", 11),
]

PARSE_DFAS_ERRORS = [
    ("\n", "empty input", None),
    (_doc(*_HEAD, *_TRANS, "end", "junk"), "expected 'dfa' line, found 'junk'", 11),
    (
        _doc(*_HEAD, *_TRANS, "end", "dfa y", "alphabet a"),
        "unexpected end of input, expected 'states' line",
        12,
    ),
]


def _assert_parse_error(call, text, message, line):
    with pytest.raises(ParseError) as exc:
        call(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


class TestValidationMessages:
    """Every raise of the readers, with its exact message and line: the
    messages are part of the command-line contract."""

    @pytest.mark.parametrize("text, message, line", PARSE_DFA_ERRORS)
    def test_parse_dfa(self, text, message, line):
        _assert_parse_error(parse_dfa, text, message, line)

    @pytest.mark.parametrize("text, message, line", PARSE_DFAS_ERRORS)
    def test_parse_dfas(self, text, message, line):
        _assert_parse_error(parse_dfas, text, message, line)

    @pytest.mark.parametrize(
        "render",
        [lambda dfa, pi: format_partition(pi, dfa), export_dot],
        ids=["format_partition", "export_dot"],
    )
    def test_partition_size_must_match_the_automaton(self, render):
        with pytest.raises(InputError) as exc:
            render(gen_ln(2), Partition.singletons(3))
        assert type(exc.value) is InputError
        assert str(exc.value) == "partition does not cover the automaton's state set"


_KEYWORDS = ["dfa", "alphabet", "states", "initial", "accepting", "trans", "end"]
_SOUP = _KEYWORDS + ["q0", "q1", "p", "a", "b", "#", ""]


@st.composite
def documents(draw):
    """Keyword and token soup, or print_dfa output with a few lines deleted,
    repeated, cut short or given a soup token."""
    soup_line = st.lists(st.sampled_from(_SOUP), max_size=5).map(" ".join)
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(soup_line, max_size=14)))
    automata = draw(st.lists(helpers.dfas(), min_size=1, max_size=2))
    lines = "".join(map(print_dfa, automata)).splitlines()  # 7 lines at least
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        edit = draw(st.sampled_from(["delete", "repeat", "truncate", "replace", "insert"]))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "truncate":
            lines[i] = " ".join(tokens[: draw(st.integers(0, len(tokens)))])
        elif edit == "replace":
            j = draw(st.integers(0, len(tokens)))
            tokens[j : j + 1] = [draw(st.sampled_from(_SOUP))]
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, draw(soup_line))
    return "\n".join(lines)


# State names of the drawn automata, names they lack, and stray literal syntax.
_NAMES = ["q0", "q1", "q2", "q4", "q9", "a", "{", "}", "|", " ", ""]


def _raises_only_input_errors(call, *args):
    try:
        call(*args)
    except InputError:  # ParseError included; anything else fails the test
        pass


@st.composite
def gapped_documents(draw):
    """print_dfa output with some transition lines dropped and some repeated,
    the repeat naming a drawn target: the totality and duplicate checks."""
    dfa = draw(helpers.dfas())
    lines = []
    for line in print_dfa(dfa).splitlines():
        edit = draw(st.sampled_from(["keep", "keep", "drop", "repeat"]))
        if not line.startswith("trans ") or edit == "keep":
            lines.append(line)
        elif edit == "repeat":
            lines += [line, line.rsplit(" ", 1)[0] + " " + draw(st.sampled_from(dfa.states))]
    return "\n".join(lines)


def _outcome(call, *args):
    """The value returned, or the type, message and line of the InputError raised."""
    try:
        return call(*args)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestReaderFuzz:
    @given(st.one_of(documents(), gapped_documents()))
    def test_parse_dfa_matches_the_build_reader(self, text):
        assert _outcome(parse_dfa, text) == _outcome(helpers.parse_by_build, text)

    @given(st.one_of(documents(), gapped_documents()))
    def test_parse_dfas_matches_the_build_reader(self, text):
        assert _outcome(parse_dfas, text) == _outcome(helpers.parse_by_build, text, True)

    @given(documents())
    def test_parse_dfa(self, text):
        _raises_only_input_errors(parse_dfa, text)

    @given(documents())
    def test_parse_dfas(self, text):
        _raises_only_input_errors(parse_dfas, text)

    @given(helpers.dfas(), st.booleans(), st.lists(st.lists(st.sampled_from(_NAMES), max_size=4)))
    def test_parse_partition(self, dfa, braced, blocks):
        body = "|".join(",".join(block) for block in blocks)
        _raises_only_input_errors(parse_partition, "{" + body + "}" if braced else body, dfa)


class TestPartitionLiterals:
    def test_format_and_parse_round_trip(self):
        _, a_prime = gen_example31()
        pi1, pi2 = gen_example31_partitions()
        for pi in (pi1, pi2):
            literal = format_partition(pi, a_prime)
            assert parse_partition(literal, a_prime) == pi

    def test_example_literal(self):
        _, a_prime = gen_example31()
        pi2 = parse_partition("{a0,a1,b0,R0|b1,R1}", a_prime)
        assert pi2 == gen_example31_partitions()[1]

    def test_incomplete_literal_rejected(self):
        _, a_prime = gen_example31()
        with pytest.raises(InputError):
            parse_partition("{a0,a1}", a_prime)

    def test_unknown_state_rejected(self):
        _, a_prime = gen_example31()
        with pytest.raises(InputError):
            parse_partition("{a0,a1,b0,b1,R0,R1,zz}", a_prime)

    def test_braces_required(self):
        _, a_prime = gen_example31()
        with pytest.raises(InputError):
            parse_partition("a0,a1|b0", a_prime)

    @pytest.mark.parametrize(
        "literal",
        ["{q0_0,q0_0|q0_1|q1_0,q1_1}", "{q0_0|q0_0,q0_1|q1_0,q1_1}", "{q0_0,q0_1|q1_0}"],
        ids=["repeat-in-one-block", "repeat-across-blocks", "missing-state"],
    )
    def test_every_state_exactly_once(self, literal):
        with pytest.raises(InputError) as exc:
            parse_partition(literal, gen_grid(2, 2))
        assert str(exc.value) == "partition literal does not cover every state exactly once"

    @pytest.mark.parametrize(
        "literal",
        ["{q0_0,q0_1||q1_0,q1_1}", "{q0_0,q0_1|q1_0,q1_1|}", "{|q0_0,q0_1,q1_0,q1_1}", "{ , }"],
        ids=["inner", "trailing", "leading", "commas-only"],
    )
    def test_empty_block_rejected(self, literal):
        with pytest.raises(InputError) as exc:
            parse_partition(literal, gen_grid(2, 2))
        assert str(exc.value) == "partition literal has an empty block"


class TestDot:
    def test_one_state_all_accepting_has_one_doublecircle(self):
        dot = export_dot(helpers.one_state())
        assert dot.count("doublecircle") == 1
        assert "__start__ ->" in dot

    def test_partition_renders_one_cluster_per_block(self):
        _, a_prime = gen_example31()
        pi1, _ = gen_example31_partitions()
        dot = export_dot(a_prime, pi1)
        assert dot.count("subgraph cluster_") == 4

    def test_edge_labels_group_symbols(self):
        dot = export_dot(helpers.one_state())
        assert '[label="a,b"]' in dot

    def test_output_is_deterministic(self):
        g = gen_grid(2, 3)
        assert export_dot(g) == export_dot(g)

    def test_backslashes_and_quotes_in_names_are_escaped(self):
        # A name is any non-whitespace token, so it may end in a backslash or
        # hold one before a quote; each quoted ID must still end where it should.
        names = ("q\\", 'a\\"b', "\\", '"')
        g = dataclasses.replace(gen_grid(2, 2), name="g\\", states=names)
        dot = export_dot(g)
        assert dot.startswith('digraph "g\\\\" {\n')
        assert '  "q\\\\";\n' in dot
        assert '  "a\\\\\\"b";\n' in dot
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        for line in dot.splitlines():
            # Outside its quoted IDs a line holds no quote or backslash.
            assert not re.search(r'["\\]', quoted.sub("", line)), line
        ids = {re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(dot)}
        assert ids - {"a", "b", "a,b"} == {"g\\", *names}
