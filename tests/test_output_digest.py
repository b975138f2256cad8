"""One digest of every CLI output over fixed inputs.

Each run below goes through ``cli.main`` in process, and its argv, exit code,
stdout and stderr are hashed, one sha256 per subcommand.  Two checkouts give
the same outputs on these runs iff they print the same lines:

    PYTHONPATH=src python tests/test_output_digest.py

The inputs are the fixture families and seeded random automata, binary and
ternary, some of them untrimmed.  No run is an argparse usage error, whose
text varies across Python versions.  A change that alters outputs on purpose
regenerates ``TOTAL`` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from dfadecomp import (
    Partition,
    gen_a4b4_triple,
    gen_example31,
    gen_example31_partitions,
    gen_grid,
    gen_k_extension,
    gen_lkl,
    gen_ln,
    gen_sb_not_asb,
    print_dfa,
    quotient,
    random_dfa,
    separates_finals,
)
from dfadecomp.cli import main
from dfadecomp.textio import format_partition

TOTAL = "7a19b1a61b43a7aaa6f190174d90a943461cf2c36bde238c64ea9ab2a1d38cce"


def _inputs():
    """Every automaton that the runs read from stdin."""
    fixed = [
        *(gen_ln(n) for n in (1, 2, 4, 6)),
        gen_lkl(2, 2),
        gen_lkl(2, 3),
        gen_grid(2, 2),
        gen_grid(2, 3),
        gen_grid(3, 3),
        gen_k_extension(gen_lkl(2, 2), 2),
        *gen_example31(),
        *gen_a4b4_triple(),
        gen_sb_not_asb(),
    ]
    randoms = []
    for seed in range(36):
        rng = random.Random(seed)
        alphabet = ("a", "b", "c")[: 2 + seed % 2]
        randoms.append(random_dfa(rng, rng.randint(1, 6), alphabet, trim_unreachable=seed % 3 > 0))
    return fixed + randoms


def _oracle_runs(doc: str, max1: int, max2: int):
    """The oracle runs of one automaton at caps (max1, max2): every kind,
    with and without ``--all-candidates``."""
    for kind in ("ai", "si", "wai"):
        for mode in ([], ["--all-candidates"]):
            argv = ["oracle", "--kind", kind, "--max1", str(max1), "--max2", str(max2), *mode]
            yield "oracle", argv, doc


def _runs(folder: Path):
    """(subcommand, argv, stdin text) of every run.  The ln, example31 and
    a4b4 fixtures are also searched at (3, 3), where the fan skips first
    factors under every kind."""
    for a in _inputs():
        doc = print_dfa(a)
        yield "minimize", ["minimize"], doc
        yield "lattice", ["lattice"], doc
        for kind in ("sb", "asb", "ai", "wai"):
            for fmt in ("text", "json"):
                for mode in ([], ["--nonredundant"], ["--perfect-only"]):
                    yield "decompose", ["decompose", "--kind", kind, "--format", fmt, *mode], doc
        yield from _oracle_runs(doc, 2, 3)
        split = Partition.from_assignment(i in a.accepting for i in range(a.n))
        yield "dot", ["dot"], doc
        yield "dot", ["dot", "--partition", format_partition(split, a)], doc
    for a in (*(gen_ln(n) for n in (1, 2, 4, 6)), *gen_example31(), *gen_a4b4_triple()):
        yield from _oracle_runs(print_dfa(a), 3, 3)
    # The 6-state example's quotients by its fixture partition pair, each
    # accepting the blocks of the separation witness, against both examples.
    example31_min, prime = gen_example31()
    pi1, pi2 = gen_example31_partitions()
    witness = separates_finals(pi1, pi2, prime.accepting)
    factors = (
        quotient(prime, pi1, witness.blocks_from_1, name="ex31_q1"),
        quotient(prime, pi2, witness.blocks_from_2, name="ex31_q2"),
    )
    triples = [gen_a4b4_triple(), (prime, *factors), (example31_min, *factors)]
    for t, triple in enumerate(triples):
        paths = []
        for r, dfa in enumerate(triple):
            path = folder / f"t{t}_{r}.dfa"
            path.write_text(print_dfa(dfa))
            paths.append(str(path))
        for kind in ("sb", "asb", "ai", "si", "wai"):
            yield "verify", ["verify", "--kind", kind, *paths], None


def digests() -> dict[str, str]:
    """sha256 per subcommand of its runs' argv, exit code, stdout and stderr,
    and under ``total`` the sha256 of those lines."""
    hashes = {}
    with tempfile.TemporaryDirectory() as folder:
        for command, argv, stdin in _runs(Path(folder)):
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                sys.stdin = saved
            shown = argv if stdin is not None else argv[:3]  # not the temporary paths
            record = f"{shown!r}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"
            hashes.setdefault(command, hashlib.sha256()).update(record.encode())
    lines = {command: h.hexdigest() for command, h in sorted(hashes.items())}
    lines["total"] = hashlib.sha256(
        "".join(f"{c} {d}\n" for c, d in lines.items()).encode()
    ).hexdigest()
    return lines


def test_outputs_match_the_pinned_digest():
    assert digests()["total"] == TOTAL


if __name__ == "__main__":
    for command, digest in digests().items():
        print(command, digest)
