"""Golden-output gate: the CLI keeps its exact output on the bench jobs.

Every job of the four bench workloads at seed 1, plus ``reeb`` on each
corpus mesh, runs in process through ``cli.main``.  The SHA-256 of its
(exit code, stdout, stderr), with the input directory replaced by a fixed
token, must equal the digest in ``tests/golden.json``.  A change that
alters output on purpose records the file again and says in CHANGES.md
which jobs changed and why:

    python tests/test_golden.py --record

``--digests`` reads [input directory, {job id: argv}] as JSON on stdin and
prints the digests of those jobs; the test runs it in a fresh
``python -O`` with another hash seed, so output depends neither on asserts
nor on hashing.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(ROOT, "bench")
GOLDEN = os.path.join(HERE, "golden.json")
SEED = 1
SUBSET_PER_WORKLOAD = 4
TOKEN = "<dir>"

for _path in (HERE, os.path.join(ROOT, "src"), BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# the gate only reads the bench modules; keep their bytecode out of bench/
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    import meshes  # noqa: E402
    import workloads  # noqa: E402
    from run import invoke  # noqa: E402
finally:
    sys.dont_write_bytecode = _dont_write

from morse_topo.cli import main as cli_main  # noqa: E402
from morse_topo.mesh import format_hmesh  # noqa: E402


def golden_jobs(workdir: str) -> dict[str, list[str]]:
    """{job id: argv}, with every input written under ``workdir``."""
    with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    jobs = {}
    corpus = os.path.join(workdir, "corpus")
    os.makedirs(corpus)
    for name, mesh in meshes.corpus().items():
        path = os.path.join(corpus, f"{name}.hmesh")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_hmesh(mesh))
        jobs[f"corpus/{name}"] = ["reeb", path]
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, SEED, os.path.join(workdir, workload), refs):
            jobs[f"{workload}/{job.id}"] = job.argv
    return jobs


def digests(workdir: str, jobs: dict[str, list[str]]) -> dict[str, str]:
    # json.dumps escapes the directory the way it appears in the dumped text
    escaped = json.dumps(workdir)[1:-1]
    out = {}
    for job_id, argv in jobs.items():
        code, stdout, stderr = invoke(cli_main, argv)
        text = json.dumps([code, stdout, stderr]).replace(escaped, TOKEN)
        out[job_id] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def read_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def changed(jobs: dict[str, list[str]], got: dict[str, str], golden: dict) -> list[str]:
    """'job id (subcommand)' for each job whose digest differs between
    ``got`` and ``golden``."""
    return [
        f"{job_id} ({jobs[job_id][0] if job_id in jobs else 'no longer built'})"
        for job_id in sorted(set(golden) | set(got))
        if golden.get(job_id) != got.get(job_id)
    ]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("golden"))
    return workdir, golden_jobs(workdir)


def test_cli_output_matches_golden(built):
    workdir, jobs = built
    got = digests(workdir, jobs)
    bad = changed(jobs, got, read_golden())
    assert not bad, f"{len(bad)} jobs changed output: " + ", ".join(bad)


def test_golden_subset_under_optimised_other_hash_seed(built):
    workdir, jobs = built
    count = collections.Counter()
    subset = {}
    for job_id, argv in jobs.items():  # the corpus, then a few per workload
        group = job_id.partition("/")[0]
        count[group] += 1
        if group == "corpus" or count[group] <= SUBSET_PER_WORKLOAD:
            subset[job_id] = argv
    proc = subprocess.run(
        [sys.executable, "-O", "-B", os.path.abspath(__file__), "--digests"],
        input=json.dumps([workdir, subset]), capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="12345"), cwd=ROOT, check=True,
    )
    got = json.loads(proc.stdout)
    assert len(got) == len(meshes.corpus()) + SUBSET_PER_WORKLOAD * len(workloads.WORKLOADS)
    golden = read_golden()
    bad = changed(subset, got, {job_id: golden.get(job_id) for job_id in subset})
    assert not bad, f"{len(bad)} jobs changed output under -O: " + ", ".join(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite golden.json")
    mode.add_argument("--digests", action="store_true", help="digest the jobs on stdin")
    args = parser.parse_args(argv)
    if args.digests:
        workdir, jobs = json.load(sys.stdin)
        print(json.dumps(digests(workdir, jobs)))
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        got = digests(workdir, golden_jobs(workdir))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(got, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(got)} digests in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
