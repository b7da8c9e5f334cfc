"""repro-triage CLI: formats, output files, and the baseline gate."""

from __future__ import annotations

import json

import pytest

from repro.triage.cli import main

ARGS = ["kernel:radix", "--fault", "flip", "-n", "30", "-t", "4",
        "--seed", "7", "--no-telemetry"]


def run_cli(extra, capsys):
    code = main(ARGS + extra)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_report_to_stdout(capsys):
    code, out, _ = run_cli(["--format", "text"], capsys)
    assert code == 0
    assert out.startswith("triage: radix branch-flip")


def test_json_report_to_file(tmp_path, capsys):
    target = str(tmp_path / "report.json")
    code, out, _ = run_cli(["--format", "json", "-o", target], capsys)
    assert code == 0
    with open(target, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["campaign"]["program"] == "radix"
    assert payload["summary"]["clusters"] >= 1


def test_update_then_gate_clean(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    code, out, _ = run_cli(["--baseline", baseline, "--update-baseline"],
                           capsys)
    assert code == 0
    assert "triage baseline updated" in out
    # Identical campaign: nothing beyond the baseline.
    code, _, err = run_cli(["--baseline", baseline], capsys)
    assert code == 0
    assert "beyond baseline" not in err


def test_gate_fails_on_new_failure_mode(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    code, _, _ = run_cli(["--baseline", baseline, "--update-baseline"],
                         capsys)
    assert code == 0
    # A different seed reaches different sites: drift must exit 1 and
    # name the new modes on stderr.
    args = [arg if arg != "7" else "9" for arg in ARGS]
    code = main(args + ["--baseline", baseline])
    captured = capsys.readouterr()
    assert code == 1
    assert "beyond baseline" in captured.err
    assert "new failure mode" in captured.err


def test_missing_baseline_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["--baseline", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_unknown_kernel_is_reported():
    # Spec translation rejects bad kernel refs with the shared
    # SystemExit path (same surface as repro-minic inject).
    with pytest.raises(SystemExit, match="unknown kernel"):
        main(["kernel:nonexistent", "-n", "5"])


@pytest.mark.parametrize("layout", ["missing-dir", "directory-target"])
def test_update_unwritable_target_exits_two(tmp_path, capsys, layout):
    if layout == "missing-dir":
        target = tmp_path / "no-such-dir" / "baseline.json"
    else:
        target = tmp_path / "baseline.json"
        target.mkdir()  # os.replace onto a directory fails after the write
    code, out, err = run_cli(["--baseline", str(target),
                              "--update-baseline"], capsys)
    assert code == 2
    assert "triage baseline updated" not in out
    assert err.startswith("error: cannot write")
    assert err.count("\n") == 1
    leftovers = [p.name for p in tmp_path.rglob("*") if ".tmp." in p.name]
    assert leftovers == []
