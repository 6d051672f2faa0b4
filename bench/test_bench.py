"""Tests of the benchmark itself (not of morse_topo); a few seconds in all.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import meshgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from morse_topo.cli import main as cli_main  # noqa: E402

with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as _fh:
    REFS = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as _fh:
    META = json.load(_fh)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _argv(job, directory):
    return [a.replace(directory, "<dir>") for a in job.argv]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b, c = (str(tmp_path / x) for x in "abc")
    jobs_a = workloads.build(workload, 7, a, REFS)
    jobs_b = workloads.build(workload, 7, b, REFS)
    assert _files(a) == _files(b)
    assert [_argv(j, a) for j in jobs_a] == [_argv(j, b) for j in jobs_b]
    workloads.build(workload, 8, c, REFS)
    assert _files(a) != _files(c)


def test_recorded_variants_are_morse():
    small = [k for k in REFS if not k.startswith("_") and int(k.split("/")[1]) <= 40]
    assert small
    for key in small:
        family, n, f, _ = key.split("/")
        mesh = meshgen.base_mesh(family, int(n), int(f), REFS[key]["phases"])
        assert meshgen.is_morse(mesh[1], mesh[2], mesh[3]), key


def _outcome(job):
    return run.invoke(cli_main, job.argv)


def _first(jobs, prefix):
    return next(j for j in jobs if j.id.startswith(prefix))


@pytest.fixture(scope="module")
def forms(tmp_path_factory):
    return workloads.build("forms-classify", 3, str(tmp_path_factory.mktemp("f")), REFS)


@pytest.fixture(scope="module")
def sp(tmp_path_factory):
    return workloads.build("sp-factor", 3, str(tmp_path_factory.mktemp("s")), REFS)


def _assert_rejects(job, code, out, err, corrupt):
    assert checks.check(job.expect, code, out, err, REFS) is None
    bad = corrupt(out)
    assert bad != out
    assert checks.check(job.expect, code, bad, err, REFS) is not None


def test_reeb_check_rejects_corruption(tmp_path):
    jobs = workloads.build("reeb-events", 3, str(tmp_path), REFS)
    job = next(j for j in jobs if "-12-2" in j.id)
    code, out, err = _outcome(job)
    _assert_rejects(job, code, out, err, lambda o: o.replace('kind="Min"', 'kind="Max"', 1))
    _assert_rejects(job, code, out, err, lambda o: o.replace('"c1":', '"c1":1', 1))
    # a renumbering that keeps the graph is still accepted
    swapped = out.replace(" v0 ", " vX ").replace(" v1 ", " v0 ").replace(" vX ", " v1 ")
    assert checks.check(job.expect, code, swapped, err, REFS) is None


def test_word_checks_reject_corruption(sp):
    for prefix in ("decompose-g5", "factor-g5"):
        job = _first(sp, prefix)
        code, out, err = _outcome(job)
        word_line = out.splitlines()[-1]
        _assert_rejects(job, code, out, err, lambda o: o.replace(word_line, "Tb1 " + word_line))
        _assert_rejects(job, code, out, err, lambda o: o.replace(word_line, word_line + " Ta2"))


def test_forms_checks_reject_corruption(forms):
    canon = _first(forms, "canonical")
    _assert_rejects(canon, *_outcome(canon), lambda o: o.replace('kind="Saddle3"', 'kind="Star2"', 1))
    _assert_rejects(canon, *_outcome(canon), lambda o: o.replace(" -> ", " -> v0 [id=9];\n  v1 -> ", 1))
    gens = _first(forms, "generators")
    _assert_rejects(gens, *_outcome(gens), lambda o: o.replace('"admissible":"Yes"', '"admissible":"No"', 1))
    _assert_rejects(gens, *_outcome(gens), lambda o: o.split("\n", 1)[1])
    cls = _first(forms, "classify")
    _assert_rejects(cls, *_outcome(cls), lambda o: o.replace("true", "false") if "true" in o else o.replace("false", "true"))


def test_error_check_tells_json_error_from_traceback(forms):
    job = _first(forms, "malformed-hmesh-bad-record")
    code, out, err = _outcome(job)
    assert code == 1 and checks.check(job.expect, code, out, err, REFS) is None
    crash = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert checks.check(job.expect, 1, out, crash, REFS) is not None
    assert checks.check(job.expect, 0, out, "", REFS) is not None


def test_metrics_are_declared():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layers == run.per_layer_units()
    assert set(META["layer_to_end_to_end"]) == set(layers)
    for entry in META["layer_to_end_to_end"].values():
        assert set(entry["moves"]) <= set(declared)
        assert set(entry["on"]) <= set(workloads.WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_only_declared_metrics(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "forms-classify",
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # counts are of the pass's distinct jobs, not of timed executions
    jobs = workloads.build("forms-classify", 1, str(tmp_path), REFS)
    assert result["attempted"] == len(jobs)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sp-factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
