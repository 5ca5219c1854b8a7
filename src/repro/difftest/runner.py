"""The dual runner: one variant, two detectors, structured verdicts.

A variant is parsed once (:func:`repro.runtime.interp.load_program`),
for both sides. The static side checks every translation unit
against the merged interface (:mod:`repro.core.api`) — no execution.
The dynamic side executes scenario functions one at a time under the
instrumented-heap interpreter with a step budget; each scenario gets a
fresh interpreter over the shared ASTs so events attribute cleanly.

Interpreter failures are verdicts, never crashes: an
:class:`~repro.runtime.interp.InterpreterError`, an exhausted step
budget, or a blown recursion limit comes back as a
:class:`ScenarioRun` with a ``failure`` string, and the campaign keeps
going.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..bench.seeding import STATIC_SIGNATURES
from ..flags.registry import DEFAULT_FLAGS, Flags
from ..messages.message import Message, MessageCode
from ..runtime.interp import (
    InterpreterError,
    LoadedProgram,
    StepBudgetExceeded,
    load_program,
)
from .mutations import STATIC_EQUIVALENTS, PlantedBug, Variant


@dataclass
class ScenarioRun:
    """One scenario executed under the instrumented heap."""

    scenario: str
    event_kinds: list[str] = field(default_factory=list)   # RuntimeEventKind values
    event_classes: list[str] = field(default_factory=list)  # error_class slugs
    exit_code: int = 0
    steps: int = 0
    failure: str | None = None   # interpreter gave up; still a verdict


@dataclass
class StaticVerdict:
    messages: list[Message]
    classes: dict[str, int]           # error class -> message count
    window_hit: bool                  # planted signature matched in window
    parse_errors: int = 0
    internal_errors: int = 0


@dataclass
class DualVerdict:
    """Everything the comparer needs about one variant."""

    seed: int
    planted_class: str | None
    static: StaticVerdict
    oracle: ScenarioRun               # the target scenario, always executed
    runs: list[ScenarioRun]           # the "test suite" subset actually run
    tested: list[str]                 # scenario names in the test suite

    @property
    def oracle_classes(self) -> set[str]:
        return set(self.oracle.event_classes)

    @property
    def plant_confirmed(self) -> bool:
        """Did the instrumented heap observe the planted class at all?

        Static refinement classes are confirmed by their coarser run-time
        witness (:data:`repro.difftest.mutations.STATIC_EQUIVALENTS`): the
        heap reports a partial-struct field read as an uninitialized read.
        """
        if self.planted_class is None:
            return True
        witnesses = STATIC_EQUIVALENTS[self.planted_class]
        return bool(witnesses & set(self.oracle.event_classes))


def _window_hit(planted: PlantedBug, messages: list[Message], units) -> bool:
    """Does a message of the plant's static signature fall inside its
    scenario function, or on the line after its closing brace?"""
    span = None
    for unit in units:
        for fdef in unit.functions():
            if fdef.name == planted.scenario:
                end = (fdef.body.end_location or fdef.location).line
                span = fdef.location.filename, fdef.location.line, end
    if span is None:
        return False
    filename, start, end = span
    signature = STATIC_SIGNATURES[planted.kind]
    return any(
        m.code in signature and m.location.filename == filename
        and start <= m.location.line <= end + 1
        for m in messages
    )


class DualRunner:
    """Runs both detectors over variants with shared configuration."""

    def __init__(
        self,
        flags: Flags | None = None,
        max_steps: int = 200_000,
        max_call_depth: int = 128,
    ) -> None:
        self.flags = flags or DEFAULT_FLAGS
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth

    # -- static side ----------------------------------------------------

    def _check_static(
        self, variant: Variant, pv: LoadedProgram
    ) -> StaticVerdict:
        result = pv.checker.check_units(pv.parsed)
        classes: dict[str, int] = {}
        for msg in result.messages:
            cls = msg.code.error_class
            if cls is not None:
                classes[cls] = classes.get(cls, 0) + 1
        window_hit = variant.planted is not None and _window_hit(
            variant.planted, result.messages, result.units
        )
        parse_errors = sum(
            1 for m in result.messages if m.code is MessageCode.PARSE_ERROR
        )
        return StaticVerdict(
            messages=result.messages,
            classes=classes,
            window_hit=window_hit,
            parse_errors=parse_errors,
            internal_errors=result.internal_errors,
        )

    def check_static(self, variant: Variant) -> StaticVerdict:
        pv = load_program(variant.files, self.flags)
        return self._check_static(variant, pv)

    # -- dynamic side ---------------------------------------------------

    def _run_scenario(self, pv: LoadedProgram, scenario: str) -> ScenarioRun:
        try:
            result = pv.interpreter(
                max_steps=self.max_steps,
                max_call_depth=self.max_call_depth,
            ).run(scenario)
        except (InterpreterError, StepBudgetExceeded, RecursionError) as exc:
            return ScenarioRun(
                scenario=scenario,
                failure=f"{type(exc).__name__}: {exc}",
            )
        return ScenarioRun(
            scenario=scenario,
            event_kinds=[e.kind.value for e in result.events],
            event_classes=sorted({e.kind.error_class for e in result.events}),
            exit_code=result.exit_code,
            steps=result.steps,
        )

    def run_scenario(self, variant: Variant, scenario: str) -> ScenarioRun:
        pv = load_program(variant.files, self.flags)
        return self._run_scenario(pv, scenario)

    # -- both -----------------------------------------------------------

    def test_suite(self, variant: Variant, coverage: float) -> list[str]:
        """The deterministic, seed-derived 'tests that were written'."""
        rng = random.Random(0x51ED270 ^ (variant.seed * 2654435761 % 2**31))
        count = max(0, min(len(variant.scenarios),
                           round(len(variant.scenarios) * coverage)))
        return sorted(rng.sample(variant.scenarios, count))

    def run_variant(
        self, variant: Variant, coverage: float = 0.5
    ) -> DualVerdict:
        """Check statically, execute the oracle, execute the test suite.

        The test suite is the paper's knob: a deterministic fraction of
        the variant's scenarios actually runs under the run-time
        detector. The oracle always executes the mutation target, so
        ground truth is observed, not assumed.
        """
        pv = load_program(variant.files, self.flags)
        static = self._check_static(variant, pv)
        oracle = self._run_scenario(pv, variant.target)
        tested = self.test_suite(variant, coverage)
        runs = [self._run_scenario(pv, name) for name in tested]
        return DualVerdict(
            seed=variant.seed,
            planted_class=(
                variant.planted.error_class
                if variant.planted is not None else None
            ),
            static=static,
            oracle=oracle,
            runs=runs,
            tested=tested,
        )
