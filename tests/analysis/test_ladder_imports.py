"""The lint → sanitize → verify CLIs start without numpy or networkx,
and report lock-order cycles identically under every hash seed."""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: An ABBA pair plus a 3-lock cycle through the same pair.
CYCLES = """\
import threading

a = threading.Lock()
b = threading.Lock()
c = threading.Lock()


def fwd():
    with a:
        with b:
            pass


def rev():
    with b:
        with a:
            pass


def tri():
    with b:
        with c:
            pass
    with c:
        with a:
            pass


def main():
    for target in (fwd, rev, tri):
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
"""


@pytest.fixture(scope="module")
def module_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ladder") / "cycles.py"
    path.write_text(CYCLES)
    return str(path)


def _run(args, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "cli, extra, rule",
    [
        ("repro.analysis", [], "PDC102"),
        ("repro.analysis", ["--whole-program"], "PDC102"),
        ("repro.sanitizers", [], "PDC302"),
        ("repro.verify", [], "PDC302"),
    ],
)
def test_cli_imports_neither_numpy_nor_networkx(module_path, cli, extra, rule):
    proc = _run(
        ["-X", "importtime", "-m", cli, module_path, "--no-cache", *extra]
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert rule in proc.stdout
    imported = {
        line.rsplit("|", 1)[-1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "threading" in imported  # the importtime trace is there
    assert not imported & {"numpy", "networkx"}


def test_per_file_json_is_hash_seed_independent(module_path):
    outputs = {
        _run(
            ["-m", "repro.analysis", module_path, "--no-cache", "--format",
             "json"],
            hash_seed=seed,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(outputs) == 1
    (output,) = outputs
    assert output.count('"rule": "PDC102"') == 2
