"""Command-line interface: exit codes, output stability, export formats."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import wfregions.cli as cli
import wfregions.regions as regions
from wfregions import Decision, SoundnessError, build_ctree
from wfregions.cli import main

from conftest import FIXTURES, mutated_texts, nested_and


def fx(name: str) -> str:
    return str(FIXTURES / f"{name}.ecws")


def _src_env() -> dict[str, str]:
    """The environment for a CLI subprocess that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── analyze ──────────────────────────────────────────────────────────────────


def test_analyze_identical_pair(capsys):
    code, out, _ = run(capsys, "analyze", fx("nested"), fx("nested"))
    assert code == 0
    payload = json.loads(out)
    assert payload["scr"] == []
    assert payload["pscr_exists"] is True
    assert payload["pscr"] == []


def test_analyze_claims_pair(capsys):
    code, out, _ = run(capsys, "analyze", fx("claims_old"), fx("claims_new"))
    assert code == 0
    payload = json.loads(out)
    assert payload["scr"] == ["PC", "PC_enabled", "u1", "u2", "u3"]
    assert payload["pscr"] == ["PC", "PC_enabled"]
    assert payload["per_place"]["u1"] == "overestimation"


def test_analyze_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "analyze", fx("training_old"), fx("training_new"))
    _, second, _ = run(capsys, "analyze", fx("training_old"), fx("training_new"))
    assert first == second
    # keys arrive sorted for diff-friendly output
    payload = json.loads(first)
    assert list(payload) == sorted(payload)


def test_analyze_with_marking_decision(capsys):
    code, out, _ = run(
        capsys,
        "analyze", fx("claims_old"), fx("claims_new"),
        "--marking", "u1,PC",
    )
    assert code == 0
    assert json.loads(out)["decision"] == "non_migratable"

    code, out, _ = run(
        capsys,
        "analyze", fx("claims_old"), fx("claims_new"),
        "--marking", "u1,c2",
    )
    assert json.loads(out)["decision"] == "migratable"


def test_analyze_unknown_marking_place(capsys):
    code, _, err = run(
        capsys,
        "analyze", fx("nested"), fx("nested"),
        "--marking", "p1,zz",
    )
    assert code == 3
    assert "unknown places" in err


@pytest.mark.parametrize("marking", ["p1,p6", "p2"])
def test_analyze_unreachable_marking(capsys, marking):
    # p1 and p6 are never marked together; p2 is always marked with p4 or p5
    code, out, err = run(
        capsys,
        "analyze", fx("parallel_old"), fx("branchswap_new"),
        "--marking", marking,
    )
    assert code == 3
    assert out == ""
    assert err == f"error: marking {marking} is not reachable in the old net\n"


def test_analyze_malformed_marking(capsys):
    code, _, err = run(
        capsys,
        "analyze", fx("nested"), fx("nested"),
        "--marking", "p2,,",
    )
    assert code == 3
    assert "malformed" in err


@pytest.mark.parametrize("marking, code, builds", [("u2,PC", 0, 2), ("u2,,PC", 3, 0)])
def test_analyze_builds_each_ctree_once_after_reading_the_marking(
    capsys, monkeypatch, marking, code, builds
):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_ctree(*args, **kwargs)

    monkeypatch.setattr(regions, "build_ctree", counted)
    monkeypatch.setattr(cli, "build_ctree", counted)
    got, _, _ = run(capsys, "analyze", fx("claims_old"), fx("claims_new"), "--marking", marking)
    assert (got, len(calls)) == (code, builds)


def test_a_marking_that_does_not_scan_fails_fast():
    # in its own process, so a label pattern that backtracks exponentially
    # fails the timeout instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "wfregions.cli", "analyze", fx("claims_old"), fx("claims_new"),
         "--marking", "a" + "1_" * 40 + "!"],
        capture_output=True,
        env=_src_env(),
        timeout=30,
    )
    assert proc.returncode == 3 and proc.stdout == b""
    assert b"is not a label" in proc.stderr and b"Traceback" not in proc.stderr


def test_analyze_marking_with_a_repeated_label(capsys):
    # two tokens on one place are not a marking of a safe net
    code, out, err = run(capsys, "analyze", fx("nested"), fx("nested"), "--marking", "p1,p1")
    assert code == 3 and not out
    assert "'p1' occurs twice" in err


def test_analyze_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.ecws"), fx("nested"))
    assert code == 2
    assert "cannot read" in err


def test_analyze_parse_error_names_file(capsys, tmp_path):
    bad = tmp_path / "bad.ecws"
    bad.write_text("p1t1\n")
    code, _, err = run(capsys, "analyze", str(bad), fx("nested"))
    assert code == 2
    assert "bad.ecws" in err and "unexpected 't1'" in err
    assert f"{bad}:1:3:" in err


def test_analyze_text_that_is_not_utf8_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.ecws"
    bad.write_bytes(b"\xff\xfep1t1p2\n")
    code, out, err = run(capsys, "analyze", str(bad), fx("nested"))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: cannot read byte 0: not UTF-8 text\n"


def test_a_byte_order_mark_changes_no_output(capsys, tmp_path):
    # editors on some systems save text with a UTF-8 byte-order mark
    paths = []
    for name in ("claims_old", "claims_new"):
        path = tmp_path / f"{name}.ecws"
        path.write_bytes(b"\xef\xbb\xbf" + Path(fx(name)).read_bytes())
        paths.append(str(path))
    for command, *flags in (["analyze"], ["oracle"], ["compare", "--json"]):
        plain = run(capsys, command, fx("claims_old"), fx("claims_new"), *flags)
        assert plain[0] == 0
        assert run(capsys, command, *paths, *flags) == plain


def test_a_bad_byte_after_a_byte_order_mark_is_named_by_its_file_offset(capsys, tmp_path):
    bad = tmp_path / "bad.ecws"
    bad.write_bytes(b"\xef\xbb\xbfp1 t1 \xff p2\n")
    code, out, err = run(capsys, "analyze", str(bad), fx("nested"))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: cannot read byte 9: not UTF-8 text\n"


@pytest.mark.parametrize("depth, code", [(64, 0), (65, 2)])
def test_analyze_nesting_bound(capsys, tmp_path, depth, code):
    path = tmp_path / "deep.ecws"
    path.write_text(nested_and(depth))
    got, _, err = run(capsys, "analyze", str(path), str(path))
    assert got == code
    assert "Traceback" not in err
    if code:
        assert "nesting" in err


def test_mutated_texts_exit_0_or_2_with_a_position(capsys, tmp_path):
    # every 10th of the pinned byte-level mutations, read whole by the CLI
    path = tmp_path / "net.ecws"
    for data in mutated_texts()[::10]:
        path.write_bytes(data)
        code, out, err = run(capsys, "analyze", str(path), str(path))
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["scr"] == []
        else:
            assert code == 2 and out == ""
            assert re.fullmatch(rf"error: {re.escape(str(path))}:\d+:\d+: .+\n", err)


# ── oracle ───────────────────────────────────────────────────────────────────


def test_oracle_reports_agreement(capsys):
    code, out, _ = run(capsys, "oracle", fx("parallel_old"), fx("branchswap_new"))
    assert code == 0
    payload = json.loads(out)
    assert payload["reachable_old"] == 6
    assert payload["non_migratable"] == ["p2,p5", "p3,p4"]
    assert payload["semantic_pscr_exists"] is False
    assert payload["agreement"]["all"] is True


def test_oracle_respects_state_cap(capsys):
    code, _, err = run(capsys, "oracle", fx("nested"), fx("nested"), "--cap", "5")
    assert code == 4
    assert "more than 5 markings" in err


# ── compare ──────────────────────────────────────────────────────────────────


def test_compare_table(capsys):
    code, out, _ = run(capsys, "compare", fx("relabel_old"), fx("relabel_new"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == [
        "approach", "totalMarkings", "correctDecisions",
        "falseNegatives", "falsePositives", "unknowns",
    ]
    assert len(lines) == 3
    assert lines[1].startswith("PSCR") and lines[2].startswith("SESE")
    assert not [line for line in out.splitlines() if line != line.rstrip()]


def test_compare_json_rows(capsys):
    code, out, _ = run(
        capsys, "compare", fx("relabel_old"), fx("relabel_new"), "--json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0] == {
        "approach": "PSCR",
        "totalMarkings": 8,
        "correctDecisions": 8,
        "falseNegatives": 0,
        "falsePositives": 0,
        "unknowns": 0,
    }
    assert rows[1]["approach"] == "SESE"
    assert rows[1]["correctDecisions"] == 0
    assert rows[1]["falseNegatives"] == 8


def test_compare_uses_scr_when_no_perfect_region(capsys):
    _, out, _ = run(
        capsys, "compare", fx("parallel_old"), fx("branchswap_new"), "--json"
    )
    rows = json.loads(out)["rows"]
    assert rows[0]["approach"] == "SCR"
    assert rows[0]["unknowns"] == 4
    assert rows[0]["falseNegatives"] == rows[0]["falsePositives"] == 0


# ── export ───────────────────────────────────────────────────────────────────


def test_export_ctree_mgs(capsys):
    code, out, _ = run(capsys, "export", fx("nested"), "--what", "ctree", "--format", "mgs")
    assert code == 0
    assert out.strip() == "{p1,p2,p3,({p4,({p5,p7},{p6,p8}),p9},{p10,p11}),p12}"


def test_export_gcs_mgs(capsys):
    code, out, _ = run(
        capsys, "export", fx("nested"), "--what", "gcs", "p6", "--format", "mgs"
    )
    assert code == 0
    assert out.strip() == "{({p5,p7},{p10,p11})}"


def test_export_gcs_needs_place(capsys):
    code, _, err = run(capsys, "export", fx("nested"), "--what", "gcs")
    assert code == 2
    assert "needs a place label" in err


def test_export_gcs_of_an_unknown_place_exits_3(capsys):
    code, out, err = run(capsys, "export", fx("nested"), "--what", "gcs", "nope")
    assert code == 3
    assert out == ""
    assert err == "error: place 'nope' does not occur in the tree\n"


def test_export_net_dot(capsys):
    code, out, _ = run(capsys, "export", fx("xorloop_old"), "--what", "net")
    assert code == 0
    assert out.startswith("digraph wfnet {")
    assert '"p1" [shape=circle];' in out
    assert '"t1" [shape=box];' in out
    assert '"p1" -> "t1";' in out


def test_export_net_refuses_mgs(capsys):
    code, _, err = run(
        capsys, "export", fx("xorloop_old"), "--what", "net", "--format", "mgs"
    )
    assert code == 2
    assert "only export as dot" in err


def test_export_ctree_dot(capsys):
    code, out, _ = run(capsys, "export", fx("nested"), "--what", "ctree", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph ctree {")


@pytest.mark.parametrize(
    "what, extra",
    [(["ctree", "p6"], "p6"), (["net", "p6"], "p6"), (["gcs", "p6", "p7", "junk"], "p7 junk")],
)
def test_export_refuses_extra_what_values(capsys, what, extra):
    code, out, err = run(capsys, "export", fx("nested"), "--what", *what)
    assert code == 2
    assert out == ""
    assert err == f"error: unexpected values after --what {what[0]}: {extra}\n"


def test_export_unknown_target(capsys):
    code, _, err = run(capsys, "export", fx("nested"), "--what", "pdf")
    assert code == 2
    assert "unknown export target" in err


# ── fuzz ─────────────────────────────────────────────────────────────────────


def test_fuzz_reports_agreement(capsys):
    code, out, _ = run(capsys, "fuzz", "--count", "30", "--seed", "7")
    assert code == 0
    assert out.strip() == "checked 30 pairs: full agreement"


def test_fuzz_is_deterministic_per_seed(capsys):
    _, first, _ = run(capsys, "fuzz", "--count", "20", "--seed", "3")
    _, second, _ = run(capsys, "fuzz", "--count", "20", "--seed", "3")
    assert first == second


def test_fuzz_without_seed_prints_a_replayable_seed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_pair_agreement", lambda old, new, cap: ["forced"])
    code, _, err = run(capsys, "fuzz", "--count", "5")
    assert code == 1
    first_line, report = err.split("\n", 1)
    seed = re.fullmatch(r"fuzz seed: (\d+)", first_line).group(1)
    assert report.startswith(f"disagreement after 1 pairs (seed {seed}):")
    code, _, replay = run(capsys, "fuzz", "--count", "5", "--seed", seed)
    assert code == 1
    assert replay == report


# ── exit codes ───────────────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "kind, code",
    [*cli._EXIT_CODES.items(), (SoundnessError, 1)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, kind, code):
    def fails(args):
        raise kind("boom")

    monkeypatch.setattr(cli, "cmd_fuzz", fails)
    assert run(capsys, "fuzz") == (code, "", "error: boom\n")


# ── argument errors ──────────────────────────────────────────────────────────


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "{analyze,oracle,compare,export,fuzz}" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", fx("parallel_old"), fx("branchswap_new"), "--json"],
        ["export", fx("parallel_old"), "--seed", "1"],
    ],
)
def test_flags_of_other_subcommands_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", fx("nested"), fx("nested"), "--cap", "0"],
         "--cap: must be at least 1, not 0"),
        (["compare", fx("nested"), fx("nested"), "--cap", "-1"],
         "--cap: must be at least 1, not -1"),
        (["fuzz", "--count", "-3"], "--count: must be at least 1, not -3"),
        (["fuzz", "--cap", "many"], "--cap: not an integer: 'many'"),
    ],
)
def test_cap_and_count_must_be_positive_integers(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["export", fx("nested"), "--what", "ctree", "--format", "dot"],
        ["fuzz", "--count", "3", "--seed", "1"],
    ],
)
def test_closed_output_pipe_exits_141_quietly(argv):
    # as in ``wfregions ... | head -1``: the reader leaves before the output
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wfregions.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_src_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


# ── README ───────────────────────────────────────────────────────────────────

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_examples_match_the_code(capsys, monkeypatch):
    # the Library snippet: each commented value is what its line gives
    (library,) = [b for b in _readme_blocks("python") if "analyze(old, new)" in b]
    names = {"Decision": Decision}
    shown = 0
    for line in library.splitlines():
        code, _, value = line.partition("  # ")
        if value:
            assert eval(code, names) == eval(value, names), line
            shown += 1
        else:
            exec(code, names)
    assert shown == 4
    # the shown `$ wfregions ...` runs: the JSON fields of analyze, and
    # the compare table line for line
    monkeypatch.chdir(README.parent)
    runs = {}
    for block in _readme_blocks("sh"):
        if block.startswith("$ wfregions "):
            command, *output = block.replace("\\\n", " ").splitlines()
            argv = shlex.split(command)[2:]
            runs[argv[0]] = (argv, output)
    argv, output = runs["analyze"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    fields = dict(
        json.loads("{" + line.rstrip(",") + "}").popitem()
        for line in output
        if line.startswith('  "')
    )
    assert sorted(fields) == ["decision", "pscr", "pscr_exists", "scr"]
    assert {key: payload[key] for key in fields} == fields
    argv, output = runs["compare"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == output
