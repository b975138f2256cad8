"""Spans and counters around the calls each layer receives, recorded from outside.

``Tracer.install`` swaps wrappers into the module namespaces that ``cli``,
``decompositions`` and ``oracle`` look names up in, so the program's own
calls go through them; ``uninstall`` puts the originals back.  Spans stay in
memory and are written out once, after the traced pass.  The sub-layer
probes of the lattice run in their own spans, outside every job span.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from contextlib import contextmanager
from time import process_time

from dfadecomp.partitions import min_sp_merging, sp_lattice

PROBE_ROUNDS = 5

DECOMPOSERS = (
    "decompose_sb",
    "decompose_asb",
    "decompose_ai_sufficient",
    "decompose_wai_sufficient",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.probe_s: Counter = Counter()  # fastest probe times, summed over automata
        self.job: str | None = None
        self.missing: list[str] = []  # hooks whose target no longer exists
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, process_time(), None, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = process_time()
            self._stack.pop()

    def _in(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def _swap(self, module, attr: str, make):
        original = getattr(module, attr, None)
        if original is None:  # renamed or removed: its metrics read 0
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def _timed(self, module, attr: str, name: str, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        self._swap(module, attr, make)

    def install(self) -> None:
        cli = sys.modules["dfadecomp.cli"]
        dec = sys.modules["dfadecomp.decompositions"]
        orc = sys.modules["dfadecomp.oracle"]
        c = self.counts

        def parsed(args, dfa):
            c["textio.states_parsed"] += dfa.n

        def minimized(args, result):
            c["automata.minimize_states_in"] += args[0].n
            c["automata.minimize_states_out"] += result[0].n

        def reported(args, report):
            c["decompositions.entries"] += len(report.entries)

        def redundant(args, flag):
            c["decompositions.redundant_entries"] += bool(flag)

        def estimated(args, value):
            c["oracle.estimate"] += value

        self._timed(cli, "parse_dfa", "textio.parse", parsed)
        self._timed(cli, "print_dfa", "textio.print")
        self._timed(cli, "format_partition", "textio.print")
        self._timed(cli, "minimize", "automata.minimize", minimized)
        self._timed(cli, "sp_lattice", "partitions.sp_lattice")
        for attr in DECOMPOSERS:
            self._timed(cli, attr, "decompositions.decompose", reported)
        self._timed(cli, "verify", "decompositions.verify")
        self._timed(cli, "estimate_search_space", "oracle.estimate", estimated)
        self._timed(cli, "certify_undecomposable", "oracle.certify")
        self._timed(dec, "sp_lattice", "partitions.sp_lattice")
        self._timed(dec, "is_redundant", "decompositions.redundancy", redundant)
        self._timed(dec, "quotient", "decompositions.quotient")

        def make_condition(original):
            # The scan asks for its condition from inside the decompose span;
            # is_redundant asks from inside its own span and is not counted.
            def wrapper(kind, a):
                condition = original(kind, a)
                if not self._in("decompositions.decompose"):
                    return condition

                def counted(x, y):
                    c["decompositions.pairs_scanned"] += 1
                    return condition(x, y)

                return counted

            return wrapper

        def make_bfs(original):
            def wrapper(*args):
                order, parents = original(*args)
                c["automata.product_triples"] += len(order)
                return order, parents

            return wrapper

        def make_candidates(original):
            def wrapper(*args, **kwargs):
                with self.span("oracle.candgen"):
                    return iter(list(original(*args, **kwargs)))

            return wrapper

        def make_examined(original):
            def wrapper(*args):
                c["oracle.candidates_examined"] += 1
                return original(*args)

            return wrapper

        self._swap(dec, "_emission_condition", make_condition)
        self._swap(dec, "_triple_bfs", make_bfs)
        self._swap(orc, "candidate_automata", make_candidates)
        self._swap(orc, "verify", make_examined)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def probe_lattice(self, dfa) -> None:
        """Atoms, join closure and self-check of one automaton's lattice, timed
        through the public calls outside any job span.  The three probes run
        in PROBE_ROUNDS interleaved rounds and each keeps its fastest time, so
        their differences compare runs made under the same conditions."""
        names = dfa.states
        probes = {
            "atoms": lambda: [
                min_sp_merging(dfa, names[p], names[t])
                for p in range(dfa.n)
                for t in range(p + 1, dfa.n)
            ],
            "lattice_unchecked": lambda: sp_lattice(dfa, check_meet_closure=False),
            "lattice_checked": lambda: sp_lattice(dfa),
        }
        job, self.job = self.job, None
        fastest = dict.fromkeys(probes, math.inf)
        results = {}
        for _ in range(PROBE_ROUNDS):
            for probe, call in probes.items():
                with self.span(f"probe.{probe}"):
                    results[probe] = call()
                fastest[probe] = min(fastest[probe], self.spans[-1][2] - self.spans[-1][1])
        self.job = job
        self.probe_s.update(fastest)
        atoms = results["atoms"]
        self.counts["partitions.atom_pairs"] += len(atoms)
        self.counts["partitions.atoms_distinct"] += len(set(atoms))
        self.counts["partitions.lattice_elements"] += len(results["lattice_checked"].elements)

    def to_json(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "job")
        return [dict(zip(keys, record)) for record in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts; "self" is a span minus its children."""
        total: Counter = Counter()
        child_time: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child_time[self.spans[parent][0]] += end - start

        def self_time(name):
            return total[name] - child_time[name]

        c = self.counts
        certify_s = total["oracle.certify"]
        return {
            "cli.overhead_s": self_time("cli.job"),
            "textio.parse_s": total["textio.parse"],
            "textio.print_s": total["textio.print"],
            "textio.states_parsed": c["textio.states_parsed"],
            "automata.minimize_s": total["automata.minimize"],
            "automata.minimize_states_in": c["automata.minimize_states_in"],
            "automata.minimize_states_out": c["automata.minimize_states_out"],
            "automata.product_triples": c["automata.product_triples"],
            "partitions.atoms_s": self.probe_s["atoms"],
            "partitions.atom_pairs": c["partitions.atom_pairs"],
            "partitions.atoms_distinct": c["partitions.atoms_distinct"],
            "partitions.closure_s": self.probe_s["lattice_unchecked"] - self.probe_s["atoms"],
            "partitions.selfcheck_s": self.probe_s["lattice_checked"]
            - self.probe_s["lattice_unchecked"],
            "partitions.lattice_elements": c["partitions.lattice_elements"],
            "decompositions.redundancy_s": total["decompositions.redundancy"],
            "decompositions.redundant_entries": c["decompositions.redundant_entries"],
            "decompositions.scan_s": self_time("decompositions.decompose"),
            "decompositions.quotient_s": total["decompositions.quotient"],
            "decompositions.pairs_scanned": c["decompositions.pairs_scanned"],
            "decompositions.entries": c["decompositions.entries"],
            "decompositions.hit_ratio": _ratio(
                c["decompositions.entries"], c["decompositions.pairs_scanned"]
            ),
            "decompositions.verify_s": total["decompositions.verify"],
            "oracle.candgen_s": total["oracle.candgen"],
            "oracle.search_s": self_time("oracle.certify"),
            "oracle.candidates_examined": c["oracle.candidates_examined"],
            "oracle.estimate": c["oracle.estimate"],
            "oracle.examined_ratio": _ratio(c["oracle.candidates_examined"], c["oracle.estimate"]),
            "oracle.examined_per_s": _ratio(c["oracle.candidates_examined"], certify_s),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Counters that must repeat exactly across traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "partitions.atom_pairs",
    "partitions.atoms_distinct",
    "partitions.lattice_elements",
    "decompositions.pairs_scanned",
    "decompositions.entries",
    "decompositions.redundant_entries",
    "oracle.candidates_examined",
    "automata.product_triples",
)
