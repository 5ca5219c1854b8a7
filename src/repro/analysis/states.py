"""Dataflow value lattices (paper section 5).

Three values are associated with each reference: the *definition state*,
the *null state*, and the *allocation state*. Values merge at confluence
points; when allocation states cannot be sensibly combined (storage
released on only one path, or ``kept`` on one path and ``only`` on the
other as in Figure 5) the merge reports a confluence anomaly and the
state is poisoned with a special error marker, exactly as the paper
describes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter

from ..annotations.kinds import AllocAnn, AnnotationSet, DefAnn, NullAnn

_tuple_new = tuple.__new__


class DefState(enum.Enum):
    """How much of the storage reachable from a reference is defined."""

    UNDEFINED = "undefined"      # no value assigned
    ALLOCATED = "allocated"      # points to allocated but undefined storage
    PARTIAL = "partially defined"
    DEFINED = "completely defined"
    DEAD = "dead"                # storage released; reference is dangling
    ERROR = "error"              # poisoned after a confluence anomaly

    def can_use_as_rvalue(self) -> bool:
        return self not in (DefState.UNDEFINED, DefState.DEAD, DefState.ERROR)


#: Lattice order for the merge (weakest assumption wins); DEAD and ERROR are
#: handled specially by :func:`merge_def`.
_DEF_ORDER = {
    DefState.UNDEFINED: 0,
    DefState.ALLOCATED: 1,
    DefState.PARTIAL: 2,
    DefState.DEFINED: 3,
}


class NullState(enum.Enum):
    NOTNULL = "notnull"
    MAYBENULL = "possibly null"
    ISNULL = "null"
    RELNULL = "relnull"
    UNKNOWN = "unknown"

    def possibly_null(self) -> bool:
        return self in (NullState.MAYBENULL, NullState.ISNULL)

    def definitely_null(self) -> bool:
        return self is NullState.ISNULL


class AllocState(enum.Enum):
    """Allocation / sharing state of the storage a reference points to."""

    FRESH = "fresh"            # newly allocated, obligation held locally
    ONLY = "only"              # sole reference with release obligation
    KEEP = "keep"              # parameter annotation: obligation + caller use ok
    KEPT = "kept"              # obligation satisfied; still safely usable
    TEMP = "temp"              # temporary: no new aliases, no release
    OWNED = "owned"            # owns storage shared by dependents
    DEPENDENT = "dependent"    # shares an owned reference's storage
    SHARED = "shared"          # arbitrarily shared; never released
    REFCOUNTED = "refcounted"
    OBSERVER = "observer"      # returned storage that must not be modified
    STATIC = "static"          # static storage: string literals, &globals
    IMPLICIT = "implicit"      # unannotated: no tracked obligation
    DEAD = "dead"              # released or obligation transferred away
    ERROR = "error"            # poisoned after a confluence anomaly

    def holds_obligation(self) -> bool:
        """True if this reference is responsible for releasing the storage."""
        return self in (AllocState.FRESH, AllocState.ONLY, AllocState.OWNED,
                        AllocState.KEEP)

    def may_be_released(self) -> bool:
        """True if passing this to an ``only`` parameter is legitimate."""
        return self.holds_obligation()

    def usable(self) -> bool:
        return self not in (AllocState.DEAD, AllocState.ERROR)


@dataclass(frozen=True)
class MergeAnomaly:
    """A confluence clash detected while merging two states."""

    kind: str        # 'alloc' or 'def'
    left: str
    right: str

    def describe(self, refname: str) -> str:
        return (
            f"Storage {refname} has inconsistent states at merge point: "
            f"{self.left} on one path, {self.right} on the other"
        )


def merge_def(a: DefState, b: DefState) -> tuple[DefState, MergeAnomaly | None]:
    """Combine definition states at a confluence point (weakest assumption)."""
    if a is b:
        return a, None
    if DefState.ERROR in (a, b):
        return DefState.ERROR, None
    if DefState.DEAD in (a, b):
        # Released on one path only: the paper reports this as an anomaly.
        return DefState.ERROR, MergeAnomaly("def", a.value, b.value)
    weakest = a if _DEF_ORDER[a] <= _DEF_ORDER[b] else b
    return weakest, None


def merge_null(a: NullState, b: NullState) -> NullState:
    if a is b:
        return a
    if NullState.UNKNOWN in (a, b):
        return NullState.UNKNOWN
    if NullState.RELNULL in (a, b):
        return NullState.RELNULL
    # Any disagreement among notnull / maybenull / isnull weakens to maybenull.
    return NullState.MAYBENULL


#: Allocation-state pairs that merge cleanly to a combined value.
_ALLOC_COMPATIBLE: dict[frozenset[AllocState], AllocState] = {
    frozenset((AllocState.FRESH, AllocState.ONLY)): AllocState.ONLY,
    frozenset((AllocState.IMPLICIT, AllocState.FRESH)): AllocState.FRESH,
    frozenset((AllocState.IMPLICIT, AllocState.ONLY)): AllocState.ONLY,
    frozenset((AllocState.IMPLICIT, AllocState.TEMP)): AllocState.TEMP,
    frozenset((AllocState.IMPLICIT, AllocState.KEPT)): AllocState.KEPT,
    frozenset((AllocState.IMPLICIT, AllocState.STATIC)): AllocState.IMPLICIT,
    frozenset((AllocState.IMPLICIT, AllocState.DEPENDENT)): AllocState.DEPENDENT,
    frozenset((AllocState.IMPLICIT, AllocState.SHARED)): AllocState.SHARED,
    frozenset((AllocState.TEMP, AllocState.STATIC)): AllocState.TEMP,
    frozenset((AllocState.STATIC, AllocState.KEPT)): AllocState.KEPT,
    frozenset((AllocState.OWNED, AllocState.ONLY)): AllocState.OWNED,
    frozenset((AllocState.DEPENDENT, AllocState.TEMP)): AllocState.DEPENDENT,
    frozenset((AllocState.IMPLICIT, AllocState.OBSERVER)): AllocState.OBSERVER,
    frozenset((AllocState.DEPENDENT, AllocState.OBSERVER)): AllocState.OBSERVER,
    frozenset((AllocState.STATIC, AllocState.OBSERVER)): AllocState.OBSERVER,
    frozenset((AllocState.TEMP, AllocState.OBSERVER)): AllocState.OBSERVER,
}


def merge_alloc(a: AllocState, b: AllocState) -> tuple[AllocState, MergeAnomaly | None]:
    """Combine allocation states; clashing obligations are anomalies.

    The canonical clash is Figure 5: ``kept`` on the true branch (the
    obligation was satisfied) and ``only`` on the false branch (it was
    not) -- "there is no sensible way to combine the allocation states".
    """
    if a is b:
        return a, None
    if AllocState.ERROR in (a, b):
        return AllocState.ERROR, None
    combined = _ALLOC_COMPATIBLE.get(frozenset((a, b)))
    if combined is not None:
        return combined, None
    obligation_clash = a.holds_obligation() != b.holds_obligation()
    if obligation_clash:
        return AllocState.ERROR, MergeAnomaly("alloc", a.value, b.value)
    # Both sides agree about obligations; pick deterministically.
    return min((a, b), key=lambda s: s.value), None


def initial_null(ann: AnnotationSet, is_pointer: bool) -> NullState:
    """Null state implied by annotations at an interface point."""
    if not is_pointer:
        return NullState.NOTNULL
    if ann.null is NullAnn.NULL:
        return NullState.MAYBENULL
    if ann.null is NullAnn.RELNULL:
        return NullState.RELNULL
    return NullState.NOTNULL


def initial_def(ann: AnnotationSet) -> DefState:
    """Definition state implied by annotations at an interface point."""
    if ann.definition is DefAnn.OUT:
        return DefState.ALLOCATED
    if ann.definition is DefAnn.UNDEF:
        return DefState.UNDEFINED
    if ann.definition is DefAnn.PARTIAL:
        return DefState.PARTIAL
    return DefState.DEFINED


_ALLOC_FROM_ANN = {
    AllocAnn.ONLY: AllocState.ONLY,
    AllocAnn.KEEP: AllocState.KEEP,
    AllocAnn.TEMP: AllocState.TEMP,
    AllocAnn.OWNED: AllocState.OWNED,
    AllocAnn.DEPENDENT: AllocState.DEPENDENT,
    AllocAnn.SHARED: AllocState.SHARED,
    AllocAnn.REFCOUNTED: AllocState.REFCOUNTED,
    AllocAnn.KILLREF: AllocState.REFCOUNTED,
}


def initial_alloc(ann: AnnotationSet, default: AllocState = AllocState.IMPLICIT) -> AllocState:
    """Allocation state implied by annotations at an interface point."""
    if ann.alloc is None:
        return default
    return _ALLOC_FROM_ANN[ann.alloc]


# Integer value intervals ``(lo, hi)``: ``None`` at either end means
# unbounded in that direction, and a range of ``None`` means no knowledge
# at all (the common case). Carried by :class:`RefState` for integer
# references so the out-of-bounds checker can compare indexes against
# known array extents.

def merge_range(
    a: tuple[int | None, int | None] | None,
    b: tuple[int | None, int | None] | None,
) -> tuple[int | None, int | None] | None:
    """Confluence of two value ranges: the interval hull (weakest wins)."""
    if a is None or b is None:
        return None
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    if lo is None and hi is None:
        return None
    return (lo, hi)


def intersect_range(
    a: tuple[int | None, int | None] | None,
    b: tuple[int | None, int | None] | None,
) -> tuple[int | None, int | None] | None:
    """Refinement of a range by a guard fact (strongest wins)."""
    if a is None:
        return b
    if b is None:
        return a
    lo = a[0] if b[0] is None else (b[0] if a[0] is None else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None else min(a[1], b[1]))
    return (lo, hi)


class RefState(tuple):
    """The three dataflow values for one reference at one program point.

    ``rng`` is a fourth, optional component: the known integer value
    interval of the reference (constant assignments, guard refinement and
    canonical loop bounds feed it; anything else clears it to ``None``).

    A tuple with named read-only fields, like the references it is kept
    for (see :mod:`~repro.analysis.storage`): states are built on every
    assignment, and the ``with_*`` copies build the tuple in C.
    """

    __slots__ = ()

    definition = property(itemgetter(0))
    null = property(itemgetter(1))
    alloc = property(itemgetter(2))
    rng = property(itemgetter(3))  # tuple[int | None, int | None] | None

    def __new__(
        cls,
        definition: DefState = DefState.DEFINED,
        null: NullState = NullState.NOTNULL,
        alloc: AllocState = AllocState.IMPLICIT,
        rng: tuple[int | None, int | None] | None = None,
    ) -> "RefState":
        return _tuple_new(cls, (definition, null, alloc, rng))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"RefState(definition={self[0]!r}, null={self[1]!r}, "
            f"alloc={self[2]!r}, rng={self[3]!r})"
        )

    def with_definition(self, definition: DefState) -> "RefState":
        return _tuple_new(RefState, (definition, self[1], self[2], self[3]))

    def with_null(self, null: NullState) -> "RefState":
        return _tuple_new(RefState, (self[0], null, self[2], self[3]))

    def with_alloc(self, alloc: AllocState) -> "RefState":
        return _tuple_new(RefState, (self[0], self[1], alloc, self[3]))

    def with_range(
        self, rng: tuple[int | None, int | None] | None
    ) -> "RefState":
        return _tuple_new(RefState, (self[0], self[1], self[2], rng))

    def merged(self, other: "RefState") -> tuple["RefState", list[MergeAnomaly]]:
        anomalies: list[MergeAnomaly] = []
        definition, def_anom = merge_def(self.definition, other.definition)
        live: "RefState | None" = None
        if def_anom is not None:
            # Storage released on one path only. That is an anomaly when
            # the live side still holds a release obligation (Figure 5's
            # pattern). If the live side is definitely NULL there is no
            # storage to lose ('if (r != NULL) { ... free(r); }'), and if
            # its obligation was already satisfied (kept / transferred),
            # the combination is simply dead.
            live = other if self.definition is DefState.DEAD else self
            if live.null.definitely_null():
                definition = DefState.DEAD
            elif live.alloc.holds_obligation() or live.alloc is AllocState.TEMP:
                anomalies.append(def_anom)
            else:
                definition = DefState.DEAD
        null = merge_null(self.null, other.null)
        alloc, alloc_anom = merge_alloc(self.alloc, other.alloc)
        if alloc_anom is not None:
            if live is not None and live.null.definitely_null():
                alloc = AllocState.DEAD
            else:
                anomalies.append(alloc_anom)
        rng = merge_range(self.rng, other.rng)
        return RefState(definition, null, alloc, rng), anomalies


def from_annotations(
    ann: AnnotationSet,
    is_pointer: bool,
    default_alloc: AllocState = AllocState.IMPLICIT,
) -> RefState:
    """Interface state for an annotated declaration (function entry rule)."""
    return RefState(
        definition=initial_def(ann),
        null=initial_null(ann, is_pointer),
        alloc=initial_alloc(ann, default_alloc) if is_pointer else AllocState.IMPLICIT,
    )
