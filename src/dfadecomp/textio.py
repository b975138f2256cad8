"""Text serialization: the line-oriented DFA document format, partition
literals, and Graphviz DOT export.

The document format is deliberately strict: every (state, symbol) pair must
appear exactly once, so a partial table is a parse error rather than a
silently completed automaton.  The reader checks each line once and fills the
transition table as it goes.
"""

from __future__ import annotations

from .automata import Dfa
from .errors import InputError, ParseError
from .partitions import Partition


def _token_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            out.append((lineno, tokens))
    return out


def _parse_document(lines: list[tuple[int, list[str]]], start: int) -> tuple[Dfa, int]:
    """Parse one document from token lines starting at ``start``; returns the
    automaton and the index just past its ``end`` line."""

    def need(pos: int, keyword: str) -> tuple[int, list[str]]:
        if pos >= len(lines):
            last = lines[-1][0] if lines else None
            raise ParseError(f"unexpected end of input, expected '{keyword}' line", last)
        lineno, tokens = lines[pos]
        if tokens[0] != keyword:
            raise ParseError(f"expected '{keyword}' line, found {tokens[0]!r}", lineno)
        return lineno, tokens

    pos = start
    lineno, tokens = need(pos, "dfa")
    if len(tokens) != 2:
        raise ParseError("'dfa' line takes exactly one name", lineno)
    name = tokens[1]
    pos += 1

    lineno, tokens = need(pos, "alphabet")
    if len(tokens) < 2:
        raise ParseError("'alphabet' line needs at least one symbol", lineno)
    alphabet = tuple(tokens[1:])
    column = {a: c for c, a in enumerate(alphabet)}
    if len(column) != len(alphabet):
        raise ParseError("duplicate symbol in alphabet", lineno)
    pos += 1

    lineno, tokens = need(pos, "states")
    if len(tokens) < 2:
        raise ParseError("'states' line needs at least one state", lineno)
    states = tuple(tokens[1:])
    index = {q: i for i, q in enumerate(states)}
    if len(index) != len(states):
        raise ParseError("duplicate state name", lineno)
    pos += 1

    lineno, tokens = need(pos, "initial")
    if len(tokens) != 2:
        raise ParseError("'initial' line takes exactly one state", lineno)
    initial = tokens[1]
    if initial not in index:
        raise ParseError(f"initial state {initial!r} is not a listed state", lineno)
    pos += 1

    lineno, tokens = need(pos, "accepting")
    accepting = tokens[1:]
    for q in accepting:
        if q not in index:
            raise ParseError(f"accepting state {q!r} is not a listed state", lineno)
    pos += 1

    rows = [[-1] * len(alphabet) for _ in states]
    end_line = None
    while pos < len(lines):
        lineno, tokens = lines[pos]
        if tokens[0] == "end":
            if len(tokens) != 1:
                raise ParseError("'end' line takes no arguments", lineno)
            end_line = lineno
            pos += 1
            break
        if tokens[0] != "trans":
            raise ParseError(f"expected 'trans' or 'end' line, found {tokens[0]!r}", lineno)
        if len(tokens) != 4:
            raise ParseError("'trans' line takes: state symbol state", lineno)
        _, src, sym, dst = tokens
        if src not in index:
            raise ParseError(f"transition from unknown state {src!r}", lineno)
        if sym not in column:
            raise ParseError(f"transition on unknown symbol {sym!r}", lineno)
        if dst not in index:
            raise ParseError(f"transition to unknown state {dst!r}", lineno)
        row, a = rows[index[src]], column[sym]
        if row[a] != -1:
            raise ParseError(f"duplicate transition for ({src!r}, {sym!r})", lineno)
        row[a] = index[dst]
        pos += 1
    else:
        raise ParseError("missing 'end' line", lines[-1][0])

    for q, row in zip(states, rows):
        if -1 in row:
            a = alphabet[row.index(-1)]
            raise ParseError(
                f"automaton is not complete: missing transition for ({q!r}, {a!r})", end_line
            )
    accepting_set = frozenset(map(index.__getitem__, accepting))
    return Dfa(name, states, alphabet, tuple(map(tuple, rows)), index[initial], accepting_set), pos


def parse_dfa(text: str) -> Dfa:
    """Parse exactly one DFA document."""
    lines = _token_lines(text)
    if not lines:
        raise ParseError("empty input")
    dfa, pos = _parse_document(lines, 0)
    if pos != len(lines):
        raise ParseError("trailing content after 'end'", lines[pos][0])
    return dfa


def parse_dfas(text: str) -> list[Dfa]:
    """Parse a stream of concatenated DFA documents."""
    lines = _token_lines(text)
    if not lines:
        raise ParseError("empty input")
    out = []
    pos = 0
    while pos < len(lines):
        dfa, pos = _parse_document(lines, pos)
        out.append(dfa)
    return out


def print_dfa(dfa: Dfa) -> str:
    """Canonical document text; ``parse_dfa(print_dfa(a))`` reproduces ``a``.

    Raises :class:`InputError` for an automaton with no symbols, whose
    ``alphabet`` line the reader refuses, and for the first name, symbol or
    state that the reader would not read back as one token: an empty one,
    or one holding whitespace or ``#``.  The later lines repeat these tokens
    only.
    """
    if not dfa.alphabet:
        raise InputError("an automaton with no symbols cannot be written as a document")
    lines = [
        f"dfa {dfa.name}",
        "alphabet " + " ".join(dfa.alphabet),
        "states " + " ".join(dfa.states),
    ]
    # The reader drops each line from a '#' on and splits the rest at whitespace.
    head = "\n".join(lines)
    tokens = ["dfa", dfa.name, "alphabet", *dfa.alphabet, "states", *dfa.states]
    if "#" in head or head.split() != tokens:
        named = [("name", dfa.name), *(("symbol", a) for a in dfa.alphabet)]
        named += [("state", q) for q in dfa.states]
        what, token = next((w, t) for w, t in named if "#" in t or t.split() != [t])
        raise InputError(f"{what} {token!r} cannot be written as one document token")
    lines += [
        f"initial {dfa.initial_state}",
        ("accepting " + " ".join(q for i, q in enumerate(dfa.states) if i in dfa.accepting)).rstrip(),
    ]
    for i, q in enumerate(dfa.states):
        for a, sym in enumerate(dfa.alphabet):
            lines.append(f"trans {q} {sym} {dfa.states[dfa.table[i][a]]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def format_partition(pi: Partition, dfa: Dfa) -> str:
    """Partition literal over state names: blocks split by '|', members by ','."""
    if pi.n != dfa.n:
        raise InputError("partition does not cover the automaton's state set")
    return "{" + "|".join(",".join(dfa.states[i] for i in b) for b in pi.blocks) + "}"


def parse_partition(text: str, dfa: Dfa) -> Partition:
    """Parse a partition literal against an automaton's state names."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise InputError("partition literal must be wrapped in braces")
    blocks = []
    for chunk in body[1:-1].split("|"):
        names = [tok.strip() for tok in chunk.split(",") if tok.strip()]
        if not names:
            raise InputError("partition literal has an empty block")
        blocks.append([dfa.state_index(q) for q in names])
    if sorted(i for block in blocks for i in block) != list(range(dfa.n)):
        raise InputError("partition literal does not cover every state exactly once")
    return Partition(blocks)


def _quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(dfa: Dfa, partition: Partition | None = None) -> str:
    """Graphviz digraph: point-node arrow into the initial state, accepting
    states double-circled, and, when a partition is given, one cluster per
    block."""
    lines = [
        f"digraph {_quote(dfa.name)} {{",
        "  rankdir=LR;",
        "  node [shape=circle];",
        "  __start__ [shape=point];",
    ]

    def declaration(i: int) -> str:
        shape = " [shape=doublecircle]" if i in dfa.accepting else ""
        return f"{_quote(dfa.states[i])}{shape};"

    if partition is None:
        for i in range(dfa.n):
            lines.append("  " + declaration(i))
    else:
        if partition.n != dfa.n:
            raise InputError("partition does not cover the automaton's state set")
        for pos, block in enumerate(partition.blocks):
            lines.append(f"  subgraph cluster_{pos} {{")
            for i in block:
                lines.append("    " + declaration(i))
            lines.append("  }")
    lines.append(f"  __start__ -> {_quote(dfa.initial_state)};")
    for i in range(dfa.n):
        by_target: dict[int, list[str]] = {}
        for a, sym in enumerate(dfa.alphabet):
            by_target.setdefault(dfa.table[i][a], []).append(sym)
        for target in sorted(by_target):
            label = ",".join(by_target[target])
            lines.append(
                f"  {_quote(dfa.states[i])} -> {_quote(dfa.states[target])} "
                f"[label={_quote(label)}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
