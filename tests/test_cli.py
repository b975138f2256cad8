import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfadecomp
from dfadecomp import (
    SearchBudget,
    decompose_ai_sufficient,
    decompose_asb,
    decompose_sb,
    decompose_wai_sufficient,
    estimate_search_space,
    gen_a4b4_triple,
    gen_example31,
    gen_grid,
    gen_lkl,
    parallel_connection,
    parse_dfa,
    parse_dfas,
    print_dfa,
    trim,
)
from dfadecomp.cli import _FAMILIES, main

import helpers


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_grid_document(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--family", "grid", "--r", "2", "--s", "2"])
        assert code == 0
        assert parse_dfa(out).n == 4

    def test_missing_parameters_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--family", "grid", "--r", "2"])
        assert code == 2
        assert "--s" in err

    def test_triple_family_emits_three_documents(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--family", "a4b4_triple"])
        assert code == 0
        assert [d.n for d in parse_dfas(out)] == [9, 6, 4]

    def test_triple_family_with_index(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--family", "a4b4_triple", "--index", "2"])
        assert code == 0
        assert parse_dfa(out).n == 4

    def test_kext_reads_the_base_from_stdin(self, capsys, monkeypatch):
        base = print_dfa(gen_grid(2, 2))
        code, out, _ = run_cli(
            capsys,
            ["gen", "--family", "kext", "--k", "2"],
            stdin=base,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert parse_dfa(out).n == 6

    def test_triple_family_rejects_index_three(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "--family", "a4b4_triple", "--index", "3"])
        assert code == 2 and out == ""
        assert err == "error: --index must be 0, 1 or 2\n"

    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_every_family_writes_parseable_documents(self, family, capsys, monkeypatch):
        required, _ = _FAMILIES[family]
        flags = [arg for name in required for arg in (f"--{name}", "2")]
        code, out, _ = run_cli(
            capsys,
            ["gen", "--family", family, *flags],
            stdin=print_dfa(gen_grid(2, 2)),  # the base that kext extends
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert parse_dfas(out)

    @pytest.mark.parametrize("family", [f for f, (required, _) in _FAMILIES.items() if required])
    def test_missing_flags_are_all_named(self, family, capsys):
        code, out, err = run_cli(capsys, ["gen", "--family", family])
        missing = ", ".join(f"--{name}" for name in _FAMILIES[family][0])
        assert code == 2 and out == ""
        assert err == f"error: family {family!r} requires {missing}\n"


class TestPipelines:
    def test_gen_decompose_pipeline(self, capsys, monkeypatch):
        doc = print_dfa(gen_grid(3, 5))
        code, out, _ = run_cli(
            capsys,
            ["decompose", "--kind", "sb", "--nonredundant"],
            stdin=doc,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(lines) == 1
        assert "a1=3 a2=5" in lines[0]

    def test_minimize_pipeline(self, capsys, monkeypatch):
        _, a_prime = gen_example31()
        code, out, _ = run_cli(
            capsys, ["minimize"], stdin=print_dfa(a_prime), monkeypatch=monkeypatch
        )
        assert code == 0
        assert parse_dfa(out).n == 5

    def test_derived_names_that_collide_are_prefixed(self, capsys, monkeypatch):
        # quotient names the block {a, b} a+b, so the state a+b becomes _a+b.
        code, out, err = run_cli(
            capsys, ["minimize"], stdin=helpers.PLUS_NAMED_DOC, monkeypatch=monkeypatch
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[:5] == [
            "dfa ab_min",
            "alphabet y z",
            "states a+b _a+b",
            "initial a+b",
            "accepting _a+b",
        ]
        assert parse_dfa(out).n == 2
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--kind", "wai", "--max1", "2", "--max2", "2"],
            stdin=helpers.PLUS_NAMED_DOC,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.splitlines()[0] == "wai: counterexample found (a1=1 states, a2=2 states)"

    def test_lattice_lists_partitions(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["lattice"], stdin=print_dfa(gen_grid(2, 2)), monkeypatch=monkeypatch
        )
        assert code == 0
        literals = [ln for ln in out.splitlines() if ln.startswith("{")]
        assert len(literals) == 7

    def test_dot_with_partition(self, capsys, monkeypatch):
        _, a_prime = gen_example31()
        code, out, _ = run_cli(
            capsys,
            ["dot", "--partition", "{a0|a1|b0,b1|R0,R1}"],
            stdin=print_dfa(a_prime),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.count("subgraph cluster_") == 4


class TestExitCodes:
    def test_none_found_is_exit_one(self, capsys, monkeypatch):
        a_min, _ = gen_example31()
        code, _, _ = run_cli(
            capsys,
            ["decompose", "--kind", "sb"],
            stdin=print_dfa(a_min),
            monkeypatch=monkeypatch,
        )
        assert code == 1

    @pytest.mark.parametrize("kind", ["sb", "asb"])
    def test_an_undecomposable_hub_is_exit_one_without_its_lattice(
        self, kind, capsys, monkeypatch
    ):
        # hub(17)'s lattice has Bell(15) + 2 elements; the sink atoms decide.
        doc = print_dfa(helpers.hub(17))
        header = f"# 0 {kind} decomposition(s) of hub17\n"
        for fmt, expected in (("text", header), ("json", "[]\n")):
            argv = ["decompose", "--kind", kind, "--format", fmt]
            assert run_cli(capsys, argv, stdin=doc, monkeypatch=monkeypatch) == (1, expected, "")

    def test_verify_success_and_refusal(self, capsys, tmp_path):
        a, a1, a2 = gen_a4b4_triple()
        paths = []
        for dfa in (a, a1, a2):
            p = tmp_path / f"{dfa.name}.dfa"
            p.write_text(print_dfa(dfa))
            paths.append(str(p))
        code, out, _ = run_cli(capsys, ["verify", "--kind", "ai", *paths])
        assert code == 0 and "verified" in out
        code, out, _ = run_cli(capsys, ["verify", "--kind", "sb", *paths])
        assert code == 1 and "refused" in out

    def test_usage_error_is_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, ["decompose", "--kind", "nope"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["no-such-command"])
        assert code == 2

    def test_no_subcommand_is_exit_two(self, capsys):
        code, out, err = run_cli(capsys, [])
        assert code == 2
        assert out == "" and err.startswith("usage: ")

    def test_unreadable_file_is_exit_two(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.dfa")
        code, out, err = run_cli(capsys, ["minimize", missing])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {missing!r}: ")

    def test_undecodable_file_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.dfa"
        bad.write_bytes(b"dfa x\xff\n")
        code, out, err = run_cli(capsys, ["minimize", str(bad)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {str(bad)!r}: ")
        assert err.count("\n") == 1

    def test_undecodable_stdin_is_exit_two(self, capsys, monkeypatch):
        # A strictly decoding stdin, as PYTHONIOENCODING=utf-8 gives.
        stdin = io.TextIOWrapper(io.BytesIO(b"dfa x\xff\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, ["minimize"])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read stdin: ")
        assert err.count("\n") == 1

    def test_oracle_estimate_past_the_digit_limit_is_exit_three(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            ["oracle", "--kind", "si", "--max1", "499", "--max2", "499"],
            stdin=print_dfa(gen_grid(20, 25)),
            monkeypatch=monkeypatch,
        )
        estimate, error = err.splitlines()
        assert (code, out) == (3, "")
        assert estimate.startswith("# search space estimate: ")
        assert error.startswith("error: estimated candidate count ")
        assert error.endswith(" exceeds the feasibility bound 100000000")
        if getattr(sys, "get_int_max_str_digits", lambda: 0)():
            assert estimate.startswith("# search space estimate: at least 2**")

    def test_oracle_estimate_within_the_digit_limit_prints_every_digit(
        self, capsys, monkeypatch
    ):
        code, _, err = run_cli(
            capsys,
            ["oracle", "--kind", "si", "--max1", "60", "--max2", "60"],
            stdin=print_dfa(gen_grid(8, 8)),
            monkeypatch=monkeypatch,
        )
        estimate = estimate_search_space(gen_grid(8, 8), SearchBudget(60, 60), "si")
        assert code == 3
        assert err.splitlines()[0] == f"# search space estimate: {estimate}"

    def test_oracle_cap_below_one_is_exit_two(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            ["oracle", "--kind", "si", "--max1", "0", "--max2", "1"],
            stdin=print_dfa(gen_grid(2, 2)),
            monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (2, "", "error: budget caps must be at least 1\n")

    def test_oracle_caps_clamped_to_zero_examine_nothing(self, capsys, monkeypatch):
        # One state leaves no strictly smaller automaton: both caps clamp to 0.
        code, doc, _ = run_cli(capsys, ["gen", "--family", "ln", "--n", "1"])
        assert code == 0
        code, out, err = run_cli(
            capsys,
            ["oracle", "--kind", "si", "--max1", "3", "--max2", "3"],
            stdin=doc,
            monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (
            1,
            "si: no decomposition up to sizes (0, 0); 0 candidate pairs examined\n",
            "# search space estimate: 0\n",
        )

    def test_dot_partition_naming_a_state_twice_is_exit_two(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            ["dot", "--partition", "{q0_0,q0_0|q0_1|q1_0,q1_1}"],
            stdin=print_dfa(gen_grid(2, 2)),
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (2, "")
        assert err == "error: partition literal does not cover every state exactly once\n"

    @pytest.mark.parametrize("literal", ["{q0_0,q0_1||q1_0,q1_1}", "{q0_0,q0_1|q1_0,q1_1|}"])
    def test_dot_partition_with_an_empty_block_is_exit_two(self, capsys, monkeypatch, literal):
        code, out, err = run_cli(
            capsys,
            ["dot", "--partition", literal],
            stdin=print_dfa(gen_grid(2, 2)),
            monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (2, "", "error: partition literal has an empty block\n")

    def test_malformed_input_is_exit_two(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["minimize"], stdin="dfa x\nbogus\n", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "error:" in err

    def test_budget_refusal_is_exit_three(self, capsys, monkeypatch):
        doc = print_dfa(gen_grid(4, 4))
        code, _, err = run_cli(
            capsys,
            ["oracle", "--kind", "ai", "--max1", "8", "--max2", "8", "--all-candidates"],
            stdin=doc,
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert "error:" in err

    def test_oracle_exhaustion_is_exit_one(self, capsys, monkeypatch):
        from dfadecomp import gen_ln

        code, out, err = run_cli(
            capsys,
            ["oracle", "--kind", "wai", "--max1", "3", "--max2", "3"],
            stdin=print_dfa(gen_ln(4)),
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "36 candidate pairs" in out
        assert "estimate" in err

    def test_oracle_counterexample_is_exit_zero(self, capsys, monkeypatch):
        from dfadecomp import gen_lkl

        code, out, _ = run_cli(
            capsys,
            ["oracle", "--kind", "ai", "--max1", "3", "--max2", "3"],
            stdin=print_dfa(gen_lkl(2, 2)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert len(parse_dfas(out.split("\n", 1)[1])) == 2


class TestBrokenPipe:
    """A reader that closes stdout early, as ``| head -1`` does, ends the
    process with exit 141 and nothing on stderr: no traceback, and no
    "Exception ignored" line from the interpreter's flush at exit."""

    @pytest.mark.parametrize(
        "argv, document, first",
        [
            (["lattice"], gen_grid(5, 5), b"# 1506 substitution-property partitions of grid5x5\n"),
            (["decompose", "--kind", "sb"], gen_grid(3, 5), b"# 680 sb decomposition(s) of grid3x5\n"),
        ],
    )
    def test_closed_stdout_ends_quietly(self, argv, document, first):
        # Each output is more than twice a 64 KiB pipe buffer, so the process is
        # still writing when the reader closes its end.
        env = dict(os.environ, PYTHONPATH=str(Path(dfadecomp.__file__).parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-m", "dfadecomp.cli", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        child.stdin.write(print_dfa(document).encode())
        child.stdin.close()
        assert child.stdout.readline() == first
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert err == b""


_REPORT_KINDS = [
    ("sb", decompose_sb, "embedding"),
    ("asb", decompose_asb, "embedding"),
    ("ai", decompose_ai_sufficient, "separation"),
    ("wai", decompose_wai_sufficient, "relation"),
]


def _escaping_grid():
    """grid(2, 3) with state names that JSON must escape: a quote, a
    backslash, non-ASCII letters and a literal ``\\u00e9``."""
    return dataclasses.replace(
        gen_grid(2, 3), states=('q"0', "a\\b", "é", 'x"\\', "\\u00e9", "ß")
    )


def _json_entries(a, kind, decompose, witness_kind):
    """The report of ``decompose`` as the list that ``decompose --format
    json`` prints, read off each entry's built decomposition."""
    return [
        {
            "kind": kind,
            "a1_states": e.decomposition.a1.n,
            "a2_states": e.decomposition.a2.n,
            "nontrivial": e.nontrivial,
            "perfect": e.perfect,
            "redundant": e.redundant,
            "partitions": [
                [[a.states[i] for i in block] for block in pi.blocks]
                for pi in e.decomposition.source_partitions
            ],
            "witness_kind": witness_kind,
        }
        for e in decompose(a).entries
    ]


class TestJsonReport:
    def test_schema_keys_are_stable(self, capsys, monkeypatch):
        doc = print_dfa(gen_grid(2, 2))
        code, out, _ = run_cli(
            capsys,
            ["decompose", "--kind", "asb", "--format", "json"],
            stdin=doc,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        entries = json.loads(out)
        assert entries
        expected_keys = {
            "kind",
            "a1_states",
            "a2_states",
            "nontrivial",
            "perfect",
            "redundant",
            "partitions",
            "witness_kind",
        }
        for entry in entries:
            assert set(entry) == expected_keys
            assert entry["kind"] == "asb"
            assert isinstance(entry["partitions"], list) and len(entry["partitions"]) == 2

    def test_perfect_only_filter(self, capsys, monkeypatch):
        doc = print_dfa(gen_grid(2, 2))
        code, out, _ = run_cli(
            capsys,
            ["decompose", "--kind", "sb", "--perfect-only", "--format", "json"],
            stdin=doc,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert all(e["perfect"] for e in json.loads(out))

    @pytest.mark.parametrize("kind, decompose, witness_kind", _REPORT_KINDS)
    def test_layout_and_escaping_equal_json_dumps(
        self, kind, decompose, witness_kind, capsys, monkeypatch
    ):
        # State names with a quote, a backslash and non-ASCII letters must be
        # escaped exactly as json.dumps escapes them, in its indent=2 layout.
        a = _escaping_grid()
        entries = _json_entries(a, kind, decompose, witness_kind)
        assert entries
        code, out, err = run_cli(
            capsys,
            ["decompose", "--kind", kind, "--format", "json"],
            stdin=print_dfa(a),
            monkeypatch=monkeypatch,
        )
        assert (code, err) == (0, "")
        assert out == json.dumps(entries, indent=2) + "\n"

    @pytest.mark.parametrize("kind, decompose, witness_kind", _REPORT_KINDS)
    @pytest.mark.parametrize("automaton", ["escaping", "grid3x5"])
    def test_rendered_without_the_pure_python_encoder(
        self, automaton, kind, decompose, witness_kind, capsys, monkeypatch
    ):
        # json.dumps(..., indent=2) runs CPython's pure-Python encoder, which
        # costs a report more than everything it prints; the report quotes
        # names with the C encoder and joins the layout itself.
        a = _escaping_grid() if automaton == "escaping" else gen_grid(3, 5)
        entries = _json_entries(a, kind, decompose, witness_kind)
        assert len(entries) == 680 if automaton == "grid3x5" else entries
        expected = json.dumps(entries, indent=2) + "\n"

        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        code, out, err = run_cli(
            capsys,
            ["decompose", "--kind", kind, "--format", "json"],
            stdin=print_dfa(a),
            monkeypatch=monkeypatch,
        )
        assert (code, err) == (0, "")
        assert out == expected


class TestDecomposeReadsOnlyPartitions:
    """The report prints sizes, flags and partitions, all read off the two
    lattice elements, so no entry's quotients are ever built."""

    @pytest.mark.parametrize("kind", ["sb", "asb", "ai", "wai"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("flags", [[], ["--nonredundant"], ["--perfect-only"]])
    def test_no_quotient_is_built(self, kind, fmt, flags, capsys, monkeypatch):
        built = []
        real = dfadecomp.decompositions.quotient

        def counted(*args, **kwargs):
            built.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(dfadecomp.decompositions, "quotient", counted)
        code, out, err = run_cli(
            capsys,
            ["decompose", "--kind", kind, "--format", fmt, *flags],
            stdin=print_dfa(gen_grid(3, 5)),
            monkeypatch=monkeypatch,
        )
        assert (code, err) == (0, "")
        assert "a1=3 a2=5" in out or '"a2_states": 5' in out
        assert built == []


GRID_2X3_AI = """\
# 15 ai decomposition(s) of grid2x3
ai a1=2 a2=3 nontrivial=yes perfect=yes redundant=no pi1={q0_0,q0_1,q0_2|q1_0,q1_1,q1_2} pi2={q0_0,q1_0|q0_1,q1_1|q0_2,q1_2}
ai a1=2 a2=4 nontrivial=yes perfect=no redundant=yes pi1={q0_0,q0_1,q0_2|q1_0,q1_1,q1_2} pi2={q0_0|q0_1,q1_1|q0_2,q1_2|q1_0}
ai a1=2 a2=5 nontrivial=yes perfect=no redundant=yes pi1={q0_0,q0_1,q0_2|q1_0,q1_1,q1_2} pi2={q0_0|q0_1|q0_2,q1_2|q1_0|q1_1}
ai a1=3 a2=3 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1,q0_2|q1_0,q1_1,q1_2} pi2={q0_0,q1_0|q0_1,q1_1|q0_2,q1_2}
ai a1=3 a2=4 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1,q0_2|q1_0,q1_1,q1_2} pi2={q0_0|q0_1,q1_1|q0_2,q1_2|q1_0}
ai a1=3 a2=4 nontrivial=yes perfect=no redundant=yes pi1={q0_0,q1_0|q0_1,q1_1|q0_2,q1_2} pi2={q0_0|q0_1|q0_2|q1_0,q1_1,q1_2}
ai a1=3 a2=4 nontrivial=yes perfect=no redundant=yes pi1={q0_0,q1_0|q0_1,q1_1|q0_2,q1_2} pi2={q0_0|q0_1,q0_2|q1_0|q1_1,q1_2}
ai a1=3 a2=5 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1,q0_2|q1_0,q1_1,q1_2} pi2={q0_0|q0_1|q0_2,q1_2|q1_0|q1_1}
ai a1=3 a2=5 nontrivial=yes perfect=no redundant=yes pi1={q0_0,q1_0|q0_1,q1_1|q0_2,q1_2} pi2={q0_0|q0_1|q0_2|q1_0|q1_1,q1_2}
ai a1=4 a2=4 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1|q0_2|q1_0,q1_1,q1_2} pi2={q0_0|q0_1,q1_1|q0_2,q1_2|q1_0}
ai a1=4 a2=4 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1,q0_2|q1_0|q1_1,q1_2} pi2={q0_0|q0_1,q1_1|q0_2,q1_2|q1_0}
ai a1=4 a2=5 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1|q0_2|q1_0,q1_1,q1_2} pi2={q0_0|q0_1|q0_2,q1_2|q1_0|q1_1}
ai a1=4 a2=5 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1,q0_2|q1_0|q1_1,q1_2} pi2={q0_0|q0_1|q0_2,q1_2|q1_0|q1_1}
ai a1=4 a2=5 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1,q1_1|q0_2,q1_2|q1_0} pi2={q0_0|q0_1|q0_2|q1_0|q1_1,q1_2}
ai a1=5 a2=5 nontrivial=yes perfect=no redundant=yes pi1={q0_0|q0_1|q0_2|q1_0|q1_1,q1_2} pi2={q0_0|q0_1|q0_2,q1_2|q1_0|q1_1}
"""


EXAMPLE31_MIN_AI = """\
ai: counterexample found (a1=3 states, a2=3 states)
dfa cand3
alphabet a b
states s0 s1 s2
initial s0
accepting s0 s2
trans s0 a s0
trans s0 b s1
trans s1 a s1
trans s1 b s2
trans s2 a s1
trans s2 b s1
end
dfa cand3
alphabet a b
states s0 s1 s2
initial s0
accepting s0
trans s0 a s1
trans s0 b s2
trans s1 a s0
trans s1 b s1
trans s2 a s0
trans s2 b s0
end
"""

EXAMPLE31_PRIME_WAI = """\
wai: counterexample found (a1=3 states, a2=3 states)
dfa cand3
alphabet a b
states s0 s1 s2
initial s0
accepting
trans s0 a s0
trans s0 b s1
trans s1 a s1
trans s1 b s2
trans s2 a s1
trans s2 b s1
end
dfa cand3
alphabet a b
states s0 s1 s2
initial s0
accepting
trans s0 a s1
trans s0 b s2
trans s1 a s0
trans s1 b s1
trans s2 a s0
trans s2 b s0
end
"""

GRID23_AI_ALL = """\
ai: counterexample found (a1=2 states, a2=3 states)
dfa cand2
alphabet a b
states s0 s1
initial s1
accepting s0
trans s0 a s0
trans s0 b s0
trans s1 a s0
trans s1 b s1
end
dfa cand3
alphabet a b
states s0 s1 s2
initial s2
accepting s0
trans s0 a s0
trans s0 b s0
trans s1 a s1
trans s1 b s0
trans s2 a s2
trans s2 b s1
end
"""


class TestGoldenOutput:
    """Exact stdout of a few runs: names, block order, entry order and
    orientation, and the word a refusal reports."""

    def test_minimize_names_merged_blocks_in_state_order(self, capsys, monkeypatch):
        _, a_prime = gen_example31()
        code, out, _ = run_cli(
            capsys, ["minimize"], stdin=print_dfa(a_prime), monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == (
            "dfa example31_prime_min\n"
            "alphabet a b\n"
            "states a0 a1 b0 b1 R0+R1\n"
            "initial a0\n"
            "accepting a0 b0\n"
            "trans a0 a a1\n"
            "trans a0 b b1\n"
            "trans a1 a a0\n"
            "trans a1 b R0+R1\n"
            "trans b0 a R0+R1\n"
            "trans b0 b b1\n"
            "trans b1 a R0+R1\n"
            "trans b1 b b0\n"
            "trans R0+R1 a R0+R1\n"
            "trans R0+R1 b R0+R1\n"
            "end\n"
        )

    def test_lattice_lists_blocks_in_state_order(self, capsys, monkeypatch):
        # The states line lists the states out of breadth-first order, so the
        # least state of a block need not be the first one a run reaches.
        _, a_prime = gen_example31()
        text = print_dfa(a_prime).replace(
            "states a0 a1 b0 b1 R0 R1\n", "states R1 b1 a0 R0 b0 a1\n"
        )
        code, out, _ = run_cli(capsys, ["lattice"], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out == (
            "# 9 substitution-property partitions of example31_prime\n"
            "{R1|b1|a0|R0|b0|a1}\n"
            "{R1,R0|b1|a0|b0|a1}\n"
            "{R1,b1|a0|R0,b0|a1}\n"
            "{R1,R0|b1,b0|a0|a1}\n"
            "{R1,b1|a0,a1|R0,b0}\n"
            "{R1,b1,R0,b0|a0|a1}\n"
            "{R1,b1|a0,R0,b0,a1}\n"
            "{R1,b1,R0,b0|a0,a1}\n"
            "{R1,b1,a0,R0,b0,a1}\n"
        )

    def test_decompose_ai_text_order_and_orientation(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["decompose", "--kind", "ai"],
            stdin=print_dfa(gen_grid(2, 3)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == GRID_2X3_AI

    def test_decompose_asb_json(self, capsys, monkeypatch):
        from dfadecomp import gen_lkl

        code, out, _ = run_cli(
            capsys,
            ["decompose", "--kind", "asb", "--format", "json"],
            stdin=print_dfa(gen_lkl(2, 3)),
            monkeypatch=monkeypatch,
        )
        expected = {
            "kind": "asb",
            "a1_states": 2,
            "a2_states": 3,
            "nontrivial": True,
            "perfect": True,
            "redundant": False,
            "partitions": [
                [["q0_0", "q0_1", "q0_2"], ["q1_0", "q1_1", "q1_2"]],
                [["q0_0", "q1_0"], ["q0_1", "q1_1"], ["q0_2", "q1_2"]],
            ],
            "witness_kind": "embedding",
        }
        assert code == 0
        assert out == json.dumps([expected], indent=2) + "\n"

    def test_oracle_ai_find_on_example31_min(self, capsys, monkeypatch):
        a_min, _ = gen_example31()
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--kind", "ai", "--max1", "3", "--max2", "3"],
            stdin=print_dfa(a_min),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == EXAMPLE31_MIN_AI

    def test_oracle_wai_find_on_the_non_minimal_example31_prime(self, capsys, monkeypatch):
        _, a_prime = gen_example31()
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--kind", "wai", "--max1", "3", "--max2", "3"],
            stdin=print_dfa(a_prime),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == EXAMPLE31_PRIME_WAI

    def test_oracle_ai_find_through_nonzero_initial_states(self, capsys, monkeypatch):
        # a1 starts at s1 and a2 at s2: the pair comes from the search that
        # starts the second automaton at state 2, not from the one at state 0.
        code, out, err = run_cli(
            capsys,
            ["oracle", "--kind", "ai", "--max1", "2", "--max2", "3", "--all-candidates"],
            stdin=print_dfa(gen_grid(2, 3)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == GRID23_AI_ALL
        assert err == "# search space estimate: 2291380\n"

    def test_verify_refusal_names_the_first_word_in_bfs_order(self, capsys, tmp_path):
        # The shortest words grid(2,3) accepts, abb, bab and bba, all lie outside
        # example31_min; breadth-first search in alphabet order reaches abb first.
        a_min, _ = gen_example31()
        paths = {}
        for key, dfa in (("grid", gen_grid(2, 3)), ("min", a_min)):
            paths[key] = tmp_path / f"{key}.dfa"
            paths[key].write_text(print_dfa(dfa))
        argv = ["verify", "--kind", "ai", *map(str, (paths["grid"], paths["grid"], paths["min"]))]
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        assert out == "ai: refused: languages differ on word 'abb'\n"

    @pytest.mark.parametrize(
        "kind, reason",
        [
            ("ai", "languages differ on word 'aaaaaaaaaaaaaaaaaaaaaaaa'"),
            ("asb", "languages differ on word 'aaaaaaaaaaaaaaaaaaaaaaaa'"),
            ("sb", "state is reached through two distinct pairs; "
                   "the embedding cannot be injective"),
        ],
    )
    def test_verify_refusal_word_deep_in_the_product(self, capsys, tmp_path, kind, reason):
        # A counts a's mod 6 and b's mod 12; A1 also rejects lengths 4 mod 5,
        # so the first word of L(A) it loses is a^24, 24 levels into the search.
        factors = {
            "a": trim(parallel_connection(gen_lkl(2, 3), gen_lkl(3, 4))),
            "a1": parallel_connection(gen_lkl(2, 3), helpers.length_counter(5, range(4), "len5")),
            "a2": parallel_connection(gen_lkl(3, 4), helpers.length_counter(7, range(7), "len7")),
        }
        paths = []
        for key, dfa in factors.items():
            paths.append(tmp_path / f"{key}.dfa")
            paths[-1].write_text(print_dfa(dfa))
        code, out, _ = run_cli(capsys, ["verify", "--kind", kind, *map(str, paths)])
        assert code == 1
        assert out == f"{kind}: refused: {reason}\n"
