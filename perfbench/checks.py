"""Verdict checks, run outside the timed region.

Each check takes a job's standard output and returns None when the output
is right, or a one-line reason when it is not.  Emitted decompositions are
rebuilt from their printed partitions and re-checked with ``verify``;
minimized automata are re-checked for language equivalence.
"""

from __future__ import annotations

import json
import re

import dfadecomp
from dfadecomp import (
    Partition,
    brute_sp_partitions,
    decompose_sb,
    decompose_wai_sufficient,
    equivalent,
    is_sp,
    parse_dfa,
    parse_dfas,
    parse_partition,
    quotient,
    sp_lattice,
    trim,
)


def _sizes(entry) -> tuple[int, int]:
    return entry["a1_states"], entry["a2_states"]


def _partition(blocks, dfa):
    return Partition([dfa.state_index(q) for q in block] for block in blocks)


def _accepting_blocks(pi, finals) -> tuple[int, ...]:
    return tuple(sorted({pi.block_index[i] for i in finals}))


def decompose(out, kind, dfa, nonredundant=None, perfect=None, contains=None):
    """Every entry must verify as ``kind``; the listed sizes must show up."""
    entries = json.loads(out)
    for e in entries:
        p1, p2 = (_partition(blocks, dfa) for blocks in e["partitions"])
        if e["kind"] != kind or _sizes(e) != (p1.num_blocks, p2.num_blocks):
            return f"entry {e['partitions']} does not match its sizes or kind"
        if e["nontrivial"] != (max(_sizes(e)) < dfa.n) or e["perfect"] != (
            e["a1_states"] * e["a2_states"] == dfa.n
        ):
            return f"entry {e['partitions']} has wrong nontrivial/perfect flags"
        with_acc = kind in ("asb", "ai")
        finals = dfa.accepting if with_acc else ()
        a1 = quotient(dfa, p1, _accepting_blocks(p1, finals))
        a2 = quotient(dfa, p2, _accepting_blocks(p2, finals))
        result = dfadecomp.verify(kind, dfa, a1, a2)
        if not result:
            return f"entry {e['partitions']} does not verify: {result.reason}"
    if nonredundant is not None:
        found = sorted(_sizes(e) for e in entries if e["nontrivial"] and not e["redundant"])
        if found != sorted(nonredundant):
            return f"non-redundant sizes {found}, expected {nonredundant}"
    if perfect is not None and not any(e["perfect"] and _sizes(e) == perfect for e in entries):
        return f"no perfect {perfect} decomposition"
    if contains is not None and all(_sizes(e) != contains for e in entries):
        return f"no {contains} decomposition"
    return None


_CERTIFIED = re.compile(r"(\w+): no decomposition up to sizes \((\d+), (\d+)\); ")
_FOUND = re.compile(r"(\w+): counterexample found \(a1=(\d+) states, a2=(\d+) states\)")


def oracle(out, kind, dfa, max1, max2):
    """A find must verify within the budget; a certificate must cover the
    clamped budget and agree with the lattice constructions."""
    first, _, rest = out.partition("\n")
    eff1, eff2 = min(max1, dfa.n - 1), min(max2, dfa.n - 1)
    found = _FOUND.fullmatch(first)
    if found:
        a1, a2 = parse_dfas(rest)
        if (a1.n, a2.n) != (int(found[2]), int(found[3])) or a1.n > eff1 or a2.n > eff2:
            return f"pair sizes ({a1.n}, {a2.n}) disagree with {first!r} or the budget"
        result = dfadecomp.verify(kind, dfa, a1, a2)
        return None if result else f"printed pair does not verify: {result.reason}"
    certified = _CERTIFIED.match(first)
    if not certified or (int(certified[2]), int(certified[3])) != (eff1, eff2):
        return f"unexpected oracle output {first!r}"
    # A quotient pair within the budget is a candidate the search must find:
    # meet-zero pairs decompose si, acceptance-refining pairs decompose wai.
    constructive = {"si": decompose_sb, "wai": decompose_wai_sufficient}.get(kind)
    if constructive is not None:
        for e in constructive(dfa).entries:
            d = e.decomposition
            if d.a1.n <= eff1 and d.a2.n <= eff2:
                return f"certificate contradicts a ({d.a1.n}, {d.a2.n}) quotient pair"
    return None


def minimize(out, dfa, states):
    """Same language, no unreachable or mergeable state, expected size."""
    result = parse_dfa(out)
    if states is not None and result.n != states:
        return f"{result.n} states, expected {states}"
    if trim(result).n != result.n or dfadecomp.minimize(result)[0].n != result.n:
        return "result is not minimal"
    if not equivalent(dfa, result):
        return "result accepts another language"
    return None


def verify(out, kind, message):
    expected = f"{kind}: {message}"
    return None if out.startswith(expected) else f"expected {expected!r}, got {out[:80]!r}"


def lattice(out, dfa, count):
    """The header count, the listed partitions and their substitution property."""
    header, *rows = out.splitlines()
    if not header.startswith(f"# {count} substitution-property partitions"):
        return f"header {header!r}, expected {count} partitions"
    parts = {parse_partition(row, dfa) for row in rows}
    if len(parts) != count or len(rows) != count:
        return f"{len(parts)} distinct partitions listed, expected {count}"
    if not all(is_sp(dfa, pi) for pi in parts):
        return "a listed partition lacks the substitution property"
    return None


def lattice_size(dfa):
    """For at most 9 states: the lattice the program builds against brute force."""
    built = len(sp_lattice(dfa).elements)
    brute = len(brute_sp_partitions(dfa))
    return None if built == brute else f"lattice has {built} elements, brute force {brute}"
