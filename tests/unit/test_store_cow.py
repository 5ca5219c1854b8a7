"""Copy-on-write store: sharing, ownership transfer, and confluence.

The cold-path overhaul made :meth:`Store.copy` constant-time: a copy
shares the three backing containers (states, aliases, sites) with its
source, and the first write through either side takes private
ownership. These tests pin the contract the checker's branch/merge
discipline relies on: shared containers are never mutated in place,
every write path triggers ownership, and the observable behaviour —
including merge results and iteration order — is identical to the old
eager-copy representation.
"""

from repro.analysis.states import DefState, NullState, RefState
from repro.analysis.storage import Ref
from repro.analysis.store import Store, merge_all

from .test_store import SimpleEnv


def store():
    return Store(SimpleEnv())


X = Ref.local("x")
Y = Ref.local("y")
P = Ref.local("p")


def populated():
    s = store()
    s.set_state(X, RefState(null=NullState.ISNULL))
    s.set_state(Y, RefState(definition=DefState.ALLOCATED))
    s.add_alias(X, Y)
    s.set_site(X, "null", "site-x")
    return s


class TestSharing:
    def test_copy_shares_containers(self):
        s = populated()
        clone = s.copy()
        assert clone.states is s.states
        assert clone.aliases is s.aliases
        assert clone.sites is s.sites

    def test_reads_do_not_unshare(self):
        s = populated()
        clone = s.copy()
        assert clone.state(X).null is NullState.ISNULL
        assert clone.peek(Y) is not None
        assert clone.materialized() == s.materialized()
        assert clone.states is s.states

    def test_write_through_clone_takes_ownership(self):
        s = populated()
        clone = s.copy()
        clone.set_state(X, RefState(null=NullState.NOTNULL))
        assert clone.states is not s.states
        assert s.state(X).null is NullState.ISNULL
        assert clone.state(X).null is NullState.NOTNULL

    def test_write_through_original_protects_clone(self):
        s = populated()
        clone = s.copy()
        s.set_state(X, RefState(null=NullState.NOTNULL))
        assert clone.state(X).null is NullState.ISNULL

    def test_materialization_is_a_write(self):
        """state() on an unseen ref fills the dict — must not leak into
        the sibling sharing that dict."""
        s = populated()
        clone = s.copy()
        clone.state(P)  # materializes P's default in the clone
        assert P in clone.states
        assert P not in s.states

    def test_chained_copies_are_independent(self):
        s = populated()
        child = s.copy()
        grandchild = child.copy()
        grandchild.set_state(X, RefState(null=NullState.NOTNULL))
        child.set_site(Y, "fresh", "site-y")
        assert s.state(X).null is NullState.ISNULL
        assert (Y, "fresh") not in s.sites
        assert child.state(X).null is NullState.ISNULL
        assert grandchild.sites.get((Y, "fresh")) is None


class TestWritePaths:
    """Every mutator must unshare before touching a shared container."""

    def test_add_alias(self):
        s = populated()
        clone = s.copy()
        clone.add_alias(Y, P)
        assert P in clone.aliases.closure(Y)
        assert P not in s.aliases.closure(Y)

    def test_clear_aliases(self):
        s = populated()
        clone = s.copy()
        clone.clear_aliases(X)
        assert Y in s.aliases.closure(X)
        assert list(clone.aliases.closure(X)) == [X]

    def test_clearing_an_unaliased_ref_keeps_both_stores_shared(self):
        s = populated()
        clone = s.copy()
        clone.clear_aliases(P)  # P has no alias entry: nothing to clear
        assert clone.aliases is s.aliases
        assert clone.states is s.states
        assert clone.sites is s.sites
        clone.set_state(P, RefState())  # a real write still unshares
        assert clone.states is not s.states
        assert P not in s.states

    def test_set_site(self):
        s = populated()
        clone = s.copy()
        clone.set_site(Y, "release", "site-r")
        assert (Y, "release") in clone.sites
        assert (Y, "release") not in s.sites

    def test_drop_state(self):
        s = populated()
        clone = s.copy()
        clone.drop_state(X)
        assert clone.peek(X) is None
        assert s.peek(X) is not None

    def test_kill_derived(self):
        s = store()
        s.set_state(P.arrow("f"), RefState(null=NullState.ISNULL))
        clone = s.copy()
        clone.kill_derived(P)
        assert clone.peek(P.arrow("f")) is None
        assert s.peek(P.arrow("f")) is not None

    def test_update_with_aliases(self):
        s = populated()
        clone = s.copy()
        clone.update_with_aliases(
            X, lambda st: st.with_null(NullState.ISNULL)
        )
        assert clone.state(Y).null is NullState.ISNULL
        assert s.state(Y).null is not NullState.ISNULL


class TestAbsorb:
    def test_absorb_shares_then_write_is_safe(self):
        s = populated()
        donor = store()
        donor.set_state(X, RefState(null=NullState.NOTNULL))
        s.absorb(donor)
        assert s.state(X).null is NullState.NOTNULL
        s.set_state(X, RefState(null=NullState.ISNULL))
        assert donor.state(X).null is NullState.NOTNULL


class TestConfluenceEquivalence:
    """Branch/merge through CoW copies gives the same store an eager
    deep copy would — same states, same reports, same iteration order."""

    def _eager_copy(self, s):
        clone = Store(s.env)
        clone.states = dict(s.states)
        clone.aliases = s.aliases.copy()
        clone.sites = dict(s.sites)
        clone.unreachable = s.unreachable
        return clone

    def _branch_and_merge(self, base, copier):
        then_side = copier(base)
        else_side = copier(base)
        then_side.set_state(X, RefState(null=NullState.NOTNULL))
        then_side.set_site(X, "fresh", "then")
        else_side.set_state(X, RefState(null=NullState.ISNULL))
        else_side.add_alias(X, P)
        merged, reports = then_side.merge(else_side)
        return merged, reports

    def test_merge_matches_eager_semantics(self):
        cow_merged, cow_reports = self._branch_and_merge(
            populated(), Store.copy
        )
        eager_merged, eager_reports = self._branch_and_merge(
            populated(), self._eager_copy
        )
        assert cow_merged.states == eager_merged.states
        assert list(cow_merged.states) == list(eager_merged.states)
        assert cow_merged.sites == eager_merged.sites
        assert cow_reports == eager_reports
        assert sorted(cow_merged.aliases.refs()) == sorted(
            eager_merged.aliases.refs()
        )

    def test_merge_leaves_base_untouched(self):
        base = populated()
        before = dict(base.states)
        self._branch_and_merge(base, Store.copy)
        assert base.states == before

    def test_merge_all_with_shared_copies(self):
        base = populated()
        branches = [base.copy() for _ in range(4)]
        for i, branch in enumerate(branches):
            branch.set_state(
                Ref.local(f"v{i}"), RefState(null=NullState.ISNULL)
            )
        merged, _ = merge_all(branches)
        for i in range(4):
            # ISNULL on one branch joins the other branches' default
            # (not-null) to possibly-null at confluence.
            assert merged.state(
                Ref.local(f"v{i}")
            ).null is NullState.MAYBENULL
        # Merging materializes defaults into the (privately owned)
        # branches, but the shared base store must stay untouched.
        for i in range(4):
            assert Ref.local(f"v{i}") not in base.states
