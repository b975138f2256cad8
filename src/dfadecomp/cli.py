"""Command-line surface: generate, minimize, analyze and visualize automata.

Subcommands read one DFA document from a file argument or stdin, so they
compose in pipelines.  Exit codes: 0 success or decomposition found, 1 clean
"none found" or exhaustion certificate, 2 usage or input error, 3 budget
refusal, 141 when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .automata import Dfa
from .decompositions import (
    DecompositionKind,
    decompose_ai_sufficient,
    decompose_asb,
    decompose_sb,
    decompose_wai_sufficient,
    verify,
)
from .errors import BudgetError, InputError
from .families import (
    gen_a4b4_triple,
    gen_example31,
    gen_grid,
    gen_k_extension,
    gen_lkl,
    gen_ln,
    gen_sb_not_asb,
)
from .oracle import (
    ExhaustionCertificate,
    SearchBudget,
    _count_text,
    certify_undecomposable,
    estimate_search_space,
)
from .partitions import minimize, sp_lattice
from .textio import export_dot, format_partition, parse_dfa, parse_partition, print_dfa

_WITNESS_KIND = {
    DecompositionKind.SB: "embedding",
    DecompositionKind.ASB: "embedding",
    DecompositionKind.AI: "separation",
    DecompositionKind.SI: "mapping",
    DecompositionKind.WAI: "relation",
}


def _load_dfa(path: str | None) -> Dfa:
    stdin = path is None or path == "-"
    try:
        text = sys.stdin.read() if stdin else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {'stdin' if stdin else repr(path)}: {exc}") from None
    return parse_dfa(text)


def _gen_a4b4_triple(args: argparse.Namespace) -> list[Dfa]:
    triple = gen_a4b4_triple()
    if args.index is None:
        return list(triple)
    if not 0 <= args.index < 3:
        raise InputError("--index must be 0, 1 or 2")
    return [triple[args.index]]


# Family name -> (flags it requires, generator of the automata to print).
_FAMILIES = {
    "ln": (("n",), lambda args: [gen_ln(args.n)]),
    "lkl": (("k", "l"), lambda args: [gen_lkl(args.k, args.l)]),
    "grid": (("r", "s"), lambda args: [gen_grid(args.r, args.s)]),
    "kext": (("k",), lambda args: [gen_k_extension(_load_dfa(args.input), args.k)]),
    "example31_min": ((), lambda args: [gen_example31()[0]]),
    "example31_prime": ((), lambda args: [gen_example31()[1]]),
    "a4b4_triple": ((), _gen_a4b4_triple),
    "sb_not_asb": ((), lambda args: [gen_sb_not_asb()]),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    required, generate = _FAMILIES[args.family]
    missing = [f"--{n}" for n in required if getattr(args, n) is None]
    if missing:
        raise InputError(f"family {args.family!r} requires {', '.join(missing)}")
    sys.stdout.write("".join(print_dfa(d) for d in generate(args)))
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    result, _ = minimize(_load_dfa(args.input))
    sys.stdout.write(print_dfa(result))
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    dfa = _load_dfa(args.input)
    lattice = sp_lattice(dfa)
    print(f"# {len(lattice.elements)} substitution-property partitions of {dfa.name}")
    for pi in lattice.elements:
        print(format_partition(pi, dfa))
    return 0


# One report entry as json.dumps(entries, indent=2) lays it out, filled in
# order with the kind, the two sizes, the three flags, each partition's
# blocks and the witness kind.  The blocks are lists of quoted names, joined
# by the separators below.
_ENTRY_JSON = """{
    "kind": "%s",
    "a1_states": %d,
    "a2_states": %d,
    "nontrivial": %s,
    "perfect": %s,
    "redundant": %s,
    "partitions": [
      [
        [
          %s
        ]
      ],
      [
        [
          %s
        ]
      ]
    ],
    "witness_kind": "%s"
  }"""
_JSON_BLOCK_SEP = "\n        ],\n        [\n          "
_JSON_NAME_SEP = ",\n          "
_JSON_FLAG = ("false", "true")


def _cmd_decompose(args: argparse.Namespace) -> int:
    dfa = _load_dfa(args.input)
    handler = {
        "sb": decompose_sb,
        "asb": decompose_asb,
        "ai": decompose_ai_sufficient,
        "wai": decompose_wai_sufficient,
    }[args.kind]
    report = handler(dfa)
    entries = [
        e
        for e in report.entries
        if (not args.nonredundant or not e.redundant)
        and (not args.perfect_only or e.perfect)
    ]
    # Each lattice element is rendered once, however many entries it is in.
    if args.format == "json":
        # json.dumps of one string runs the C encoder, escaping as indent=2 does.
        quoted = [json.dumps(q) for q in dfa.states]
        shown = functools.cache(
            lambda pi: _JSON_BLOCK_SEP.join(
                _JSON_NAME_SEP.join([quoted[i] for i in b]) for b in pi.blocks
            )
        )
        # One entry at a time, laid out as json.dumps(list, indent=2) would:
        # encoding the whole list at once holds every chunk string alive.
        kind, witness = report.kind.value, _WITNESS_KIND[report.kind]
        sys.stdout.write("[")
        sep = "\n  "
        for e in entries:
            pa, pb = e.source_partitions
            flags = _JSON_FLAG[e.nontrivial], _JSON_FLAG[e.perfect], _JSON_FLAG[e.redundant]
            entry = (kind, pa.num_blocks, pb.num_blocks, *flags, shown(pa), shown(pb), witness)
            sys.stdout.write(sep + _ENTRY_JSON % entry)
            sep = ",\n  "
        print("\n]" if entries else "]")
    else:
        shown = functools.cache(lambda pi: format_partition(pi, dfa))
        print(f"# {len(entries)} {args.kind} decomposition(s) of {dfa.name}")
        for e in entries:
            pa, pb = e.source_partitions
            flags = (
                f"nontrivial={'yes' if e.nontrivial else 'no'} "
                f"perfect={'yes' if e.perfect else 'no'} "
                f"redundant={'yes' if e.redundant else 'no'}"
            )
            print(
                f"{report.kind.value} a1={pa.num_blocks} a2={pb.num_blocks} {flags} "
                f"pi1={shown(pa)} pi2={shown(pb)}"
            )
    return 0 if entries else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    dfa = _load_dfa(args.dfa)
    a1 = _load_dfa(args.a1)
    a2 = _load_dfa(args.a2)
    result = verify(args.kind, dfa, a1, a2)
    if result:
        print(f"{args.kind}: verified (a1={a1.n} states, a2={a2.n} states)")
        return 0
    print(f"{args.kind}: refused: {result.reason}")
    return 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    dfa = _load_dfa(args.input)
    budget = SearchBudget(args.max1, args.max2, canonical_only=not args.all_candidates)
    estimate = estimate_search_space(dfa, budget, args.kind)
    print(f"# search space estimate: {_count_text(estimate)}", file=sys.stderr)
    result = certify_undecomposable(args.kind, dfa, budget)
    if isinstance(result, ExhaustionCertificate):
        print(
            f"{args.kind}: no decomposition up to sizes "
            f"({result.effective_max_1}, {result.effective_max_2}); "
            f"{result.candidates_examined} candidate pairs examined"
        )
        return 1
    print(
        f"{args.kind}: counterexample found (a1={result.a1.n} states, "
        f"a2={result.a2.n} states)"
    )
    sys.stdout.write(print_dfa(result.a1))
    sys.stdout.write(print_dfa(result.a2))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    dfa = _load_dfa(args.input)
    pi = parse_partition(args.partition, dfa) if args.partition else None
    sys.stdout.write(export_dot(dfa, pi))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decomp",
        description="Solver/advisor decompositions of deterministic finite automata.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate a named automaton family member")
    p.add_argument(
        "--family",
        required=True,
        choices=list(_FAMILIES),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--index", type=int, help="pick one automaton of a multi-part family")
    p.add_argument("input", nargs="?", help="base automaton (kext family only)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("minimize", help="print the minimal equivalent automaton")
    p.add_argument("input", nargs="?")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("lattice", help="list all substitution-property partitions")
    p.add_argument("input", nargs="?")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("decompose", help="enumerate decompositions from the lattice")
    p.add_argument("--kind", required=True, choices=["sb", "asb", "ai", "wai"])
    p.add_argument("--nonredundant", action="store_true")
    p.add_argument("--perfect-only", dest="perfect_only", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("input", nargs="?")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="check a candidate decomposition pair")
    p.add_argument("--kind", required=True, choices=["sb", "asb", "ai", "si", "wai"])
    p.add_argument("dfa")
    p.add_argument("a1")
    p.add_argument("a2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive candidate search / certification")
    p.add_argument("--kind", required=True, choices=["ai", "si", "wai"])
    p.add_argument("--max1", type=int, required=True)
    p.add_argument("--max2", type=int, required=True)
    p.add_argument(
        "--all-candidates",
        dest="all_candidates",
        action="store_true",
        help="enumerate every candidate instead of canonical representatives",
    )
    p.add_argument("input", nargs="?")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("--partition", help="partition literal to render as clusters")
    p.add_argument("input", nargs="?")
    p.set_defaults(func=_cmd_dot)

    return parser


def _dispatch(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does.  The descriptor
        # now points at the null device, so the interpreter's flush at exit
        # has nothing to fail on, and the exit code is the one a shell reports
        # for a process that SIGPIPE ended (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
