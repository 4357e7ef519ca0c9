"""The ``pdc-san`` CLI: modes, formats, exit codes."""

import json

import pytest

from repro.sanitizers.__main__ import main

RACY = """\
import threading

counter = 0

def worker():
    global counter
    counter += 1

def main():
    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
"""


class TestListRules:
    def test_lists_the_dynamic_rule_table(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "PDC301" in out and "PDC302" in out and "PDC303" in out
        assert "dynamic-data-race" in out


class TestFixtureMode:
    def test_racy_fixture_exits_one(self, capsys):
        assert main(["--fixture", "racy_counter_twin"]) == 1
        assert "PDC301" in capsys.readouterr().out

    def test_locked_fixture_exits_zero(self, capsys):
        assert main(["--fixture", "locked_counter_twin"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_corpus_mode_runs_every_runnable_fixture(self, capsys):
        assert main(["--corpus", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "pdc-san"
        assert payload["summary"].get("PDC301", 0) >= 1
        assert payload["summary"].get("PDC302", 0) >= 1


class TestPathMode:
    def test_instruments_and_runs_a_file(self, tmp_path, capsys):
        target = tmp_path / "prog.py"
        target.write_text(RACY)
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "PDC301" in out and str(target) in out

    def test_missing_file_exits_two(self, capsys):
        assert main([str("/no/such/file.py")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_no_inputs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSarifOutput:
    def test_sarif_log_is_valid_and_complete(self, capsys):
        assert main(["--fixture", "racy_counter_twin", "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "pdc-san"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"PDC301", "PDC302", "PDC303"} <= rule_ids
        assert run["results"]
        result = run["results"][0]
        assert result["ruleId"] == "PDC301"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


class TestCrossvalMode:
    def test_text_table_exits_zero_when_corpus_agrees(self, capsys):
        assert main(["--crossval"]) == 0
        out = capsys.readouterr().out
        assert "EXONERATED" in out and "precision=" in out

    def test_json_payload(self, capsys):
        assert main(["--crossval", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        assert "forkjoin_handoff_twin" in payload["exonerated"]["sanitize"]

    def test_sarif_is_rejected_for_crossval(self):
        with pytest.raises(SystemExit) as exc:
            main(["--crossval", "--format", "sarif"])
        assert exc.value.code == 2
