"""The seeded mutation engine: one labelled bug per program variant.

Each variant starts from :func:`repro.bench.generator.generate_program`
output and receives exactly one mutation: the body of one driver
scenario function is replaced by a bug recipe from the paper's error
catalogue (:func:`repro.bench.seeding.bug_body` — null dereference,
use-after-free, double free, invalid free, uninitialized read, leak,
out-of-bounds store, partial-struct field read, aliased double free).
The mutation carries machine-readable ground truth: the planted error
class, the containing function, and the line window of the spliced
statements. A fraction of variants stays clean so false positives are
measurable; clean controls cycle between the unmutated program and the
guard idioms of :data:`repro.bench.seeding.GUARD_CLEAN_IDIOMS` (``?:``
with a null guard, assignment-in-condition), which once drew spurious
null-dereference messages — a guard-analysis regression resurfaces as a
static-fp discrepancy in any campaign.

The statement window doubles as the shrinking substrate: the
delta-debugging shrinker re-emits the same variant with subsets of the
window's lines through :func:`rebuild_variant`.

Everything here is a pure function of the integer seed — no wall clock,
no hash-randomized iteration — so a campaign is replayable across
processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..bench.generator import GeneratedProgram, generate_program
from ..bench.seeding import (
    GUARD_CLEAN_IDIOMS,
    BugKind,
    bug_body,
    guard_clean_body,
)

#: The error classes a campaign plants and scores: every
#: :class:`repro.runtime.heap.RuntimeEventKind` class plus the static
#: refinement classes (a partial-struct field read manifests at run time
#: as an uninitialized read, an aliased double free as a double free).
CAMPAIGN_CLASSES: tuple[str, ...] = (
    "null-dereference",
    "uninitialized-read",
    "use-after-free",
    "double-free",
    "invalid-free",
    "leak",
    "out-of-bounds",
    "uninit-field-read",
    "double-free-alias",
)

#: The classes that witness a planted class, on either side. A planted
#: double free's static witness arrives as the use-after-free class (a
#: second free *is* a use of released storage), and the instrumented
#: heap has no notion of the static refinements: it reports a
#: partial-struct field read as an uninitialized read and an aliased
#: double free as a double free (or, with intervening reuse, a
#: use-after-free). Plant confirmation and run-time TP scoring read it.
STATIC_EQUIVALENTS: dict[str, frozenset[str]] = {
    **{cls: frozenset({cls}) for cls in CAMPAIGN_CLASSES},
    "double-free": frozenset({"double-free", "use-after-free"}),
    "uninit-field-read": frozenset(
        {"uninit-field-read", "uninitialized-read"}
    ),
    "double-free-alias": frozenset(
        {"double-free-alias", "double-free", "use-after-free"}
    ),
}


class MutationError(Exception):
    """The engine could not apply a mutation (malformed generator output)."""


@dataclass(frozen=True)
class PlantedBug:
    """Ground truth for one mutation."""

    kind: BugKind
    error_class: str
    scenario: str          # function the bug lives in
    file: str              # file the mutation was applied to
    line_start: int        # first line of the spliced statement window
    line_end: int          # last line of the window (inclusive)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "error_class": self.error_class,
            "scenario": self.scenario,
            "file": self.file,
            "line_start": self.line_start,
            "line_end": self.line_end,
        }

    @staticmethod
    def from_dict(data: dict) -> "PlantedBug":
        return PlantedBug(
            kind=BugKind(data["kind"]),
            error_class=data["error_class"],
            scenario=data["scenario"],
            file=data["file"],
            line_start=int(data["line_start"]),
            line_end=int(data["line_end"]),
        )


@dataclass
class Variant:
    """One generated program plus its (possibly empty) mutation."""

    seed: int
    files: dict[str, str]
    scenarios: list[str]            # every scenario entry point
    target: str                     # the scenario the engine mutated/targeted
    planted: PlantedBug | None      # None => clean control variant
    window_lines: tuple[str, ...] = ()   # current statement window text

    @property
    def is_clean(self) -> bool:
        return self.planted is None


def function_span(text: str, name: str) -> tuple[int, int, int]:
    """Locate ``void name(void) { ... }`` in *text*.

    Returns 0-based line indices ``(header, open_brace, close_brace)``.
    Brace depth is tracked, so single-line ``if (...) { ... }`` bodies
    (as in the offset-free recipe) do not terminate the span early.
    """
    lines = text.split("\n")
    header = f"void {name}(void)"
    for i, line in enumerate(lines):
        if line.strip() != header:
            continue
        depth = 0
        open_at: int | None = None
        for k in range(i, len(lines)):
            depth += lines[k].count("{") - lines[k].count("}")
            if open_at is None and "{" in lines[k]:
                open_at = k
            if open_at is not None and depth == 0:
                return i, open_at, k
        raise MutationError(f"unterminated body for {name!r}")
    raise MutationError(f"no function {name!r} in text")


def _body_lines(body: str) -> list[str]:
    return [line for line in body.split("\n") if line.strip()]


def _splice(
    driver: str, name: str, helper_lines: list[str], body_lines: list[str]
) -> tuple[str, int, int]:
    """Replace *name*'s body with *body_lines*; returns the new text and
    the 1-based inclusive line window of the spliced statements."""
    lines = driver.split("\n")
    header, open_at, close_at = function_span(driver, name)
    new_lines = (
        lines[:header]
        + helper_lines
        + lines[header : open_at + 1]
        + body_lines
        + lines[close_at:]
    )
    start = len(lines[:header]) + len(helper_lines) + (open_at + 1 - header) + 1
    return "\n".join(new_lines), start, start + len(body_lines) - 1


@dataclass
class MutationEngine:
    """Derives one :class:`Variant` per integer seed.

    ``clean_every`` controls the planted/clean mix: every n-th seed emits
    an unmutated control variant (the false-positive probe).
    """

    modules: int = 1
    filler_functions: int = 1
    scenarios_per_module: int = 2
    clean_every: int = 8
    kinds: tuple[BugKind, ...] = tuple(BugKind)

    def variant(self, seed: int) -> Variant:
        rng = random.Random(0x9E3779B1 * (seed + 1) % (2**63))
        base = generate_program(
            modules=self.modules,
            filler_functions=self.filler_functions,
            scenarios_per_module=self.scenarios_per_module,
            seed=seed,
        )
        target = rng.choice(base.scenarios)
        files = dict(base.files)
        if self.clean_every > 0 and seed % self.clean_every == self.clean_every - 1:
            # Clean controls cycle deterministically between the plain
            # unmutated program and the guard-idiom recipes, so every
            # campaign probes the idioms that historically drew false
            # positives (?: arms, assignment-in-condition).
            choice = (seed // self.clean_every) % (1 + len(GUARD_CLEAN_IDIOMS))
            if choice == 0:
                _, open_at, close_at = function_span(files["driver.c"], target)
                window = tuple(
                    files["driver.c"].split("\n")[open_at + 1 : close_at]
                )
                return Variant(
                    seed=seed, files=files, scenarios=list(base.scenarios),
                    target=target, planted=None, window_lines=window,
                )
            idiom = GUARD_CLEAN_IDIOMS[choice - 1]
            module = rng.randrange(self.modules)
            helpers, body = guard_clean_body(idiom, module, target)
            helper_lines = (
                helpers.strip("\n").split("\n") if helpers.strip() else []
            )
            body_lines = _body_lines(body)
            mutated, _, _ = _splice(
                files["driver.c"], target, helper_lines, body_lines
            )
            files["driver.c"] = mutated
            return Variant(
                seed=seed, files=files, scenarios=list(base.scenarios),
                target=target, planted=None, window_lines=tuple(body_lines),
            )
        kind = self.kinds[rng.randrange(len(self.kinds))]
        module = rng.randrange(self.modules)
        helpers, body = bug_body(kind, module, target)
        helper_lines = helpers.strip("\n").split("\n") if helpers.strip() else []
        body_lines = _body_lines(body)
        mutated, start, end = _splice(
            files["driver.c"], target, helper_lines, body_lines
        )
        files["driver.c"] = mutated
        planted = PlantedBug(
            kind=kind,
            error_class=kind.error_class,
            scenario=target,
            file="driver.c",
            line_start=start,
            line_end=end,
        )
        return Variant(
            seed=seed, files=files, scenarios=list(base.scenarios),
            target=target, planted=planted, window_lines=tuple(body_lines),
        )

    def rebuild_variant(
        self, variant: Variant, window_lines: list[str]
    ) -> Variant:
        """The same variant with the statement window replaced.

        This is the shrinker's probe constructor: it regenerates the base
        program from the seed and re-splices, so line ranges stay honest.
        """
        fresh = self.variant(variant.seed)
        driver = fresh.files["driver.c"]
        new_driver, start, end = _splice(
            driver, fresh.target, [], list(window_lines)
        )
        files = dict(fresh.files)
        files["driver.c"] = new_driver
        planted = fresh.planted
        if planted is not None:
            planted = replace(planted, line_start=start, line_end=end)
        return Variant(
            seed=fresh.seed, files=files, scenarios=fresh.scenarios,
            target=fresh.target, planted=planted,
            window_lines=tuple(window_lines),
        )
