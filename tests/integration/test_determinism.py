"""Hash-seed determinism: same seed, same bytes, regardless of process.

Everything seeded in this repo claims replayability: the benchmark
generator, the checker's message stream, and the difftest campaign. A
stray ``hash()``-ordered set iteration or string-seeded RNG breaks that
silently — within one process the output still looks stable. These
tests run the same work in two fresh subprocesses with *different*
``PYTHONHASHSEED`` values and require byte-identical output.
"""

import glob
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
SRC = os.path.join(REPO_ROOT, "src")
DB_UNITS = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "db", "*.c")))


def _run_snippet(code: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _both_hash_seeds(code: str) -> tuple[str, str]:
    return _run_snippet(code, "0"), _run_snippet(code, "4242")


GENERATOR_SNIPPET = """
from repro.bench.generator import generate_program
program = generate_program(
    modules=2, filler_functions=2, scenarios_per_module=2, seed=11,
)
for name in sorted(program.files):
    print(f"=== {name} ===")
    print(program.files[name])
print(program.functions)
print(program.scenarios)
"""

CHECKER_SNIPPET = """
from repro.bench.dbexample import db_sources
from repro.bench.seeding import BugKind
from repro.core.api import Checker
from repro.difftest.mutations import MutationEngine
programs = [db_sources(0)]
programs += [MutationEngine(kinds=(kind,)).variant(0).files for kind in BugKind]
codes = set()
for files in programs:
    for message in Checker().check_sources(files).messages:
        codes.add(message.code.name)
        print(message.render())
# one plant of each kind draws every memory-error code
assert {"ARRAY_BOUNDS", "BAD_TRANSFER", "DOUBLE_RELEASE", "LEAK_SCOPE",
        "NULL_DEREF", "UNINIT_FIELD", "USE_AFTER_RELEASE",
        "USE_BEFORE_DEF"} <= codes, codes
"""

DIFFTEST_SNIPPET = """
from repro.difftest import CampaignConfig, run_campaign
result = run_campaign(
    CampaignConfig(seeds=10, jobs=1, corpus_dir=None,
                   flag_args=("-usereleased",))
)
print(result.render())
for outcome in result.outcomes:
    print(outcome.seed, outcome.planted_class, outcome.plant_confirmed,
          [ (d.direction, d.error_class) for d in outcome.discrepancies ])
for item in result.shrunk:
    print(item.case.name, list(item.case.window), item.probes)
"""


@pytest.mark.parametrize(
    "name,snippet",
    [
        ("generator", GENERATOR_SNIPPET),
        ("checker", CHECKER_SNIPPET),
        ("difftest", DIFFTEST_SNIPPET),
    ],
    ids=["generator", "checker", "difftest"],
)
def test_output_is_hash_seed_independent(name, snippet):
    first, second = _both_hash_seeds(snippet)
    assert first == second, (
        f"{name} output depends on PYTHONHASHSEED — a hash-ordered "
        f"iteration or non-integer RNG seed crept in"
    )
    assert first.strip(), f"{name} snippet produced no output"


SIZED_GENERATOR_SNIPPET = """
import hashlib
from repro.bench.generator import generate_program_of_size
program = generate_program_of_size({target_loc})
digest = hashlib.sha256()
for name in sorted(program.files):
    digest.update(name.encode())
    digest.update(program.files[name].encode())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("target_loc", [2000, 50000])
def test_sized_generator_is_hash_seed_independent(target_loc):
    # The scaling benchmark and the distributed byte-identity checks
    # lean on the generator producing the same corpus in every process;
    # a hash-seed dependency would silently break cross-process cache
    # sharing.
    first, second = _both_hash_seeds(
        SIZED_GENERATOR_SNIPPET.format(target_loc=target_loc)
    )
    assert first == second
    assert first.strip()


def _dump(tmp_path, label: str, hash_seed: str, *options: str) -> bytes:
    """The bytes ``-dump`` writes for examples/db from a fresh process."""
    library = tmp_path / f"{label}.lcd"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *options, "-quiet",
         "-dump", str(library), *DB_UNITS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return library.read_bytes()


def test_dump_writes_the_same_bytes_on_every_run(tmp_path):
    """A library that changes bytes between identical runs can be
    neither diffed nor cached: a cold and a warm cache directory must
    not show in it, and no parsed prelude is kept on disk."""
    cache = str(tmp_path / "cache")
    cold = _dump(tmp_path, "cold", "0", "--cache-dir", cache)
    warm = _dump(tmp_path, "warm", "4242", "--cache-dir", cache)
    plain = _dump(tmp_path, "plain", "0")
    assert cold == warm == plain
    assert "prelude" not in os.listdir(cache)
