"""Property tests for the seeded mutation engine.

A differential campaign is only replayable if every variant is a pure
function of its integer seed — no wall clock, no hash-randomized
iteration order. These tests pin that: the engine's output is stable
within a process (hypothesis over random seeds), identical across
subprocesses launched with *different* ``PYTHONHASHSEED`` values, and
every emitted variant — planted or clean, across all ten bug kinds —
parses cleanly with the checker's parser and with the reference
expression cascade patched in (``tests.oracles.reference_parser``), so a
mutation recipe can never silently degrade a campaign into parse-error
exclusions.
"""

import hashlib
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.bench.seeding import BugKind
from repro.core.api import Checker
from repro.difftest.mutations import MutationEngine
from tests.oracles import reference_parser

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def _fingerprint(seed: int) -> str:
    """A stable digest of everything observable about one variant."""
    variant = MutationEngine().variant(seed)
    payload = {
        "files": variant.files,
        "scenarios": variant.scenarios,
        "target": variant.target,
        "planted": (
            variant.planted.to_dict() if variant.planted is not None else None
        ),
        "window": list(variant.window_lines),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


_SUBPROCESS_PROG = """
import json, sys
sys.path.insert(0, {src!r})
from tests.property.test_mutation_props import _fingerprint
print(json.dumps([_fingerprint(s) for s in {seeds!r}]))
"""


def _fingerprints_under_hashseed(seeds: list[int], hashseed: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(SRC_DIR.parent)]
    )
    prog = _SUBPROCESS_PROG.format(src=str(SRC_DIR), seeds=seeds)
    out = subprocess.run(
        [sys.executable, "-c", prog],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


class TestSeedPurity:
    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_variant_is_a_pure_function_of_seed(self, seed):
        assert _fingerprint(seed) == _fingerprint(seed)

    def test_variants_identical_across_hash_seeds(self):
        # Seeds chosen to cover planted variants of several kinds plus a
        # plain clean control and a guard-idiom control (clean_every=8).
        seeds = [0, 1, 7, 10, 12, 15, 26, 63]
        a = _fingerprints_under_hashseed(seeds, "0")
        b = _fingerprints_under_hashseed(seeds, "424242")
        assert a == b


def _parse_errors(engines, files: dict[str, str]) -> list[str]:
    """Parse every .c unit of a variant under *engines*, preprocessed
    against the variant's own headers; returns all frontend problems."""
    problems = []
    with engines:
        checker = Checker()
        for name, text in files.items():
            if name.endswith(".h"):
                checker.sources.add(name, text)
        for name, text in files.items():
            if name.endswith(".h"):
                continue
            pu = checker.parse_unit(text, name)
            if pu.fatal_error is not None:
                problems.append(f"{name}: {pu.fatal_error.description}")
            problems.extend(f"{name}: {e}" for e in pu.parse_errors)
    return problems


class TestVariantsParse:
    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_every_variant_parses_with_both_engines(self, seed):
        variant = MutationEngine().variant(seed)
        assert _parse_errors(nullcontext(), variant.files) == []
        assert _parse_errors(reference_parser(), variant.files) == []

    def test_every_bug_kind_recipe_parses(self):
        # Deterministic sweep: keep drawing seeds until every kind has
        # appeared at least once, parsing each draw along the way.
        engine = MutationEngine()
        remaining = set(BugKind)
        for seed in range(120):
            variant = engine.variant(seed)
            if variant.planted is not None:
                remaining.discard(variant.planted.kind)
            assert _parse_errors(nullcontext(), variant.files) == [], seed
            if not remaining:
                break
        assert not remaining
