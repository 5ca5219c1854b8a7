"""Exhaustiveness of the shared error-class vocabulary.

The difftest comparer aligns the two detectors through error-class
slugs. These tests pin the partition: every static message code maps to
at most one class, every class is a campaign class, and every run-time
event kind is reachable from some equivalence row — so adding a code,
kind, or class without wiring it through the verdict tables fails here
rather than silently dropping scores.
"""

from repro.bench.seeding import STATIC_SIGNATURES, BugKind
from repro.difftest.mutations import CAMPAIGN_CLASSES, STATIC_EQUIVALENTS
from repro.difftest.verdict import CORROBORATED_BY
from repro.flags.registry import FLAG_REGISTRY
from repro.messages.message import MEMORY_ERROR_CLASSES, MessageCode
from repro.runtime.heap import RuntimeEventKind


class TestStaticSide:
    def test_every_code_has_at_most_one_class(self):
        # dict membership already guarantees uniqueness; pin that the
        # property accessor agrees and non-members answer None.
        for code in MessageCode:
            cls = code.error_class
            if code in MEMORY_ERROR_CLASSES:
                assert cls == MEMORY_ERROR_CLASSES[code]
            else:
                assert cls is None

    def test_every_class_is_a_campaign_class(self):
        assert set(MEMORY_ERROR_CLASSES.values()) <= set(CAMPAIGN_CLASSES)

    def test_every_classed_code_is_flag_controlled(self):
        for code in MEMORY_ERROR_CLASSES:
            assert code.flag in FLAG_REGISTRY, code

    def test_new_refinement_codes_have_distinct_classes(self):
        assert MessageCode.ARRAY_BOUNDS.error_class == "out-of-bounds"
        assert MessageCode.UNINIT_FIELD.error_class == "uninit-field-read"
        assert MessageCode.DOUBLE_RELEASE.error_class == "double-free-alias"


class TestRuntimeSide:
    def test_every_event_kind_class_is_a_campaign_class(self):
        for kind in RuntimeEventKind:
            assert kind.error_class in CAMPAIGN_CLASSES, kind

    def test_every_event_kind_is_reachable_from_an_equivalence_row(self):
        # Every run-time class must be able to corroborate some claim
        # and witness some plant — otherwise observing it can never
        # move a confusion matrix.
        corroborates = set().union(*CORROBORATED_BY.values())
        witnesses = set().union(*STATIC_EQUIVALENTS.values())
        for kind in RuntimeEventKind:
            assert kind.error_class in corroborates, kind
            assert kind.error_class in witnesses, kind


class TestPlantingSide:
    def test_every_bug_kind_has_a_static_signature(self):
        # a plant is found only by codes of its own class or of a class
        # that witnesses it
        assert set(STATIC_SIGNATURES) == set(BugKind)
        for kind, codes in STATIC_SIGNATURES.items():
            classes = {code.error_class for code in codes}
            assert classes <= STATIC_EQUIVALENTS[kind.error_class], kind

    def test_every_planted_class_has_a_runtime_witness(self):
        # the oracle can confirm every plant: some run-time event class
        # witnesses it
        runtime_classes = {kind.error_class for kind in RuntimeEventKind}
        for kind in BugKind:
            assert STATIC_EQUIVALENTS[kind.error_class] & runtime_classes, kind

    def test_refinement_plants_witnessed_by_coarser_classes(self):
        assert STATIC_EQUIVALENTS["uninit-field-read"] == frozenset(
            {"uninit-field-read", "uninitialized-read"}
        )
        assert STATIC_EQUIVALENTS["double-free-alias"] == frozenset(
            {"double-free-alias", "double-free", "use-after-free"}
        )

    def test_equivalence_tables_span_exactly_the_campaign_classes(self):
        assert set(CORROBORATED_BY) == set(CAMPAIGN_CLASSES)
        assert set(STATIC_EQUIVALENTS) == set(CAMPAIGN_CLASSES)
