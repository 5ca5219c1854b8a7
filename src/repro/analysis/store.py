"""The abstract store: dataflow values per reference, per program point.

The store maps :class:`~repro.analysis.storage.Ref` to
:class:`~repro.analysis.states.RefState` and carries the may-alias map.
States for derived references (``l->next->this``) are *materialized
lazily* from the parent's state plus the declared annotations of the
field being accessed — this is how, at Figure 5's function entry, the
analysis knows ``l->next`` is possibly-null and ``only`` without ever
having seen an assignment to it.

Branches copy the store; confluence points merge stores pairwise,
reporting anomalies for states that cannot be sensibly combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from .states import AllocState, DefState, MergeAnomaly, RefState
from .storage import AliasMap, Ref


class StateEnv(Protocol):
    """Environment giving the store declared-interface defaults."""

    def base_default(self, ref: Ref) -> RefState:
        """Entry state for an un-materialized base reference."""
        ...  # pragma: no cover

    def derived_default(self, ref: Ref, parent: RefState) -> RefState:
        """Entry state for a derived reference given its parent's state."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class MergeReport:
    ref: Ref
    anomaly: MergeAnomaly


class Store:
    """One program point's abstract state.

    Copies are **copy-on-write**: branching copies the store at every
    ``if``/loop/call boundary, but most copies are never written (or only
    read) before being merged away, so :meth:`copy` just shares the three
    backing containers and marks both stores shared. The first mutation
    through either store takes private ownership (one eager clone, the
    same cost the old unconditional copy paid every time). All writes —
    including lazy state materialization and alias/site updates — go
    through methods on this class so the shared containers are never
    mutated in place; dict contents and iteration order are identical to
    the eager-copy representation.
    """

    __slots__ = ("env", "states", "aliases", "unreachable", "sites", "_shared")

    def __init__(self, env: StateEnv) -> None:
        self.env = env
        self.states: dict[Ref, RefState] = {}
        self.aliases = AliasMap()
        self.unreachable = False  # after return/break/continue/exit()
        # Where a reference last acquired a noteworthy state: keys are
        # (ref, kind) with kind in {'null', 'fresh', 'release'}, values
        # the position of the statement (see repro.frontend.cast.Position);
        # used for the indented sub-locations in messages (paper
        # footnote 3).
        self.sites: dict[tuple[Ref, str], object] = {}
        self._shared = False

    # -- copying -------------------------------------------------------------

    def copy(self) -> "Store":
        clone = Store.__new__(Store)
        clone.env = self.env
        clone.states = self.states
        clone.aliases = self.aliases
        clone.unreachable = self.unreachable
        clone.sites = self.sites
        clone._shared = True
        self._shared = True
        return clone

    def _own(self) -> None:
        """Take private ownership of the backing containers before a write."""
        self.states = dict(self.states)
        self.aliases = self.aliases.copy()
        self.sites = dict(self.sites)
        self._shared = False

    def absorb(self, other: "Store") -> None:
        """Adopt *other*'s entire contents (ternary-evaluation rebind)."""
        self.states = other.states
        self.aliases = other.aliases
        self.sites = other.sites
        self.unreachable = other.unreachable
        # Both stores now alias the same containers, so both must be
        # marked shared — inheriting the donor's (possibly private)
        # flag would let a later write through either side mutate the
        # other in place.
        self._shared = True
        other._shared = True

    # -- state access ----------------------------------------------------------

    def state(self, ref: Ref) -> RefState:
        existing = self.states.get(ref)
        if existing is not None:
            return existing
        parent = ref.parent()
        if parent is None:
            st = self.env.base_default(ref)
        else:
            st = self.env.derived_default(ref, self.state(parent))
        if self._shared:
            self._own()
        self.states[ref] = st
        return st

    def peek(self, ref: Ref) -> RefState | None:
        """State if materialized, else None (no materialization)."""
        return self.states.get(ref)

    def set_state(self, ref: Ref, st: RefState) -> None:
        if self._shared:
            self._own()
        self.states[ref] = st

    def drop_state(self, ref: Ref) -> None:
        """Forget a materialized state (scope exit of a local)."""
        if ref in self.states:
            if self._shared:
                self._own()
            self.states.pop(ref, None)

    def update(self, ref: Ref, fn: Callable[[RefState], RefState]) -> None:
        self.set_state(ref, fn(self.state(ref)))

    def update_with_aliases(self, ref: Ref, fn: Callable[[RefState], RefState]) -> None:
        """Apply a state change to *ref* and everything it may alias."""
        for target in self.aliases.closure(ref):
            self.update(target, fn)

    # -- alias / site access ---------------------------------------------------

    def add_alias(self, a: Ref, b: Ref) -> None:
        if self._shared:
            self._own()
        self.aliases.add(a, b)

    def clear_aliases(self, ref: Ref) -> None:
        if ref not in self.aliases:
            return  # nothing to clear: a shared store stays shared
        if self._shared:
            self._own()
        self.aliases.clear(ref)

    def set_site(self, ref: Ref, kind: str, loc: object) -> None:
        if self._shared:
            self._own()
        self.sites[(ref, kind)] = loc

    def kill_derived(self, ref: Ref) -> None:
        """Forget states and aliases of references derived from *ref*.

        Used when *ref* is assigned a new value: ``l = l->next`` must not
        let the old ``l->next`` state shadow the new one.
        """
        # ref.is_prefix_of(k), inline: this runs on every assignment.
        base, path = ref
        cut = len(path)
        state_keys = [
            k for k in self.states
            if len(k[1]) > cut and k[0] == base and k[1][:cut] == path
        ]
        alias_keys = [
            k for k in self.aliases.refs()
            if len(k[1]) > cut and k[0] == base and k[1][:cut] == path
        ]
        if not state_keys and not alias_keys:
            return
        if self._shared:
            self._own()
        for key in state_keys:
            del self.states[key]
        for key in alias_keys:
            self.aliases.clear(key)

    def materialized(self) -> list[Ref]:
        return list(self.states)

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "Store") -> tuple["Store", list[MergeReport]]:
        """Confluence of two branches (paper: union of aliases, per-state
        combination rules, anomaly + error marker on clashes)."""
        if self.unreachable and not other.unreachable:
            return other.copy(), []
        if other.unreachable and not self.unreachable:
            return self.copy(), []
        out = Store(self.env)
        out.unreachable = self.unreachable and other.unreachable
        reports: list[MergeReport] = []
        keys = set(self.states) | set(other.states)
        for ref in sorted(keys):
            mine = self.state(ref)
            theirs = other.state(ref)
            merged, anomalies = mine.merged(theirs)
            if anomalies and self._live_side_is_null(ref, mine, theirs, other):
                # Storage released on one path, while on the other path an
                # ancestor is definitely NULL: there was never storage to
                # release there ('if (e != NULL) { free(e->key); ... }').
                merged = merged.with_definition(DefState.DEAD).with_alloc(
                    AllocState.DEAD
                )
                anomalies = []
            out.states[ref] = merged
            for anomaly in anomalies:
                reports.append(MergeReport(ref, anomaly))
        out.aliases = self.aliases.merged(other.aliases)
        out.sites = {**other.sites, **self.sites}
        return out, reports

    def _live_side_is_null(
        self, ref: Ref, mine: RefState, theirs: RefState, other: "Store"
    ) -> bool:
        """For a released-on-one-path clash on a derived ref, check whether
        the live side's ancestors are definitely NULL (no storage there)."""
        if ref.depth == 0:
            return False
        dead_here = (
            mine.definition is DefState.DEAD or mine.alloc is AllocState.DEAD
        )
        dead_there = (
            theirs.definition is DefState.DEAD or theirs.alloc is AllocState.DEAD
        )
        if dead_here == dead_there:
            return False
        live_store = other if dead_here else self
        return any(
            live_store.state(ancestor).null.definitely_null()
            for ancestor in ref.ancestors()
        )


def merge_all(stores: list[Store]) -> tuple[Store, list[MergeReport]]:
    """Merge any number of stores (switch confluence, loop exits)."""
    assert stores, "merge_all requires at least one store"
    result = stores[0]
    reports: list[MergeReport] = []
    for nxt in stores[1:]:
        result, more = result.merge(nxt)
        reports.extend(more)
    return result, reports
