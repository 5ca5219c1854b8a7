"""Expression-level transfer functions (paper sections 4 and 5).

This module provides :class:`ExprMixin`, the expression evaluator mixed
into :class:`~repro.analysis.checker.FunctionChecker`. It computes
abstract :class:`Value` results, performs use checks (use before
definition, use after release, dereference of possibly-null pointers)
and implements the assignment rules: release-obligation transfer, leak
detection on overwrite, annotation-transfer mismatches, alias updates,
and definition-state propagation to base storage.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from ..annotations.kinds import AllocAnn, DefAnn
from ..frontend import cast as A
from ..frontend.ctypes import (
    Array,
    CType,
    is_pointerish,
    pointee_type,
    strip_typedefs,
)
from ..frontend.render import render_expr
from ..messages.message import MessageCode
from .guards import is_null_literal
from .states import AllocState, DefState, NullState, RefState
from .storage import Ref
from .store import Store

_tuple_new = tuple.__new__


class Value(tuple):
    """Abstract result of evaluating an expression.

    A tuple with named read-only fields, like the references and states
    it carries (see :mod:`~repro.analysis.storage`): one is built for
    nearly every expression evaluated.
    """

    __slots__ = ()

    state = property(itemgetter(0))  # RefState
    ref = property(itemgetter(1))  # Ref | None
    ctype = property(itemgetter(2))  # CType | None
    null_literal = property(itemgetter(3))  # bool
    fresh_call = property(itemgetter(4))  # callee that produced a fresh obligation
    alias_refs = property(itemgetter(5))  # frozenset[Ref]

    def __new__(
        cls,
        state: RefState,
        ref: Ref | None = None,
        ctype: CType | None = None,
        null_literal: bool = False,
        fresh_call: str | None = None,
        alias_refs: frozenset[Ref] = frozenset(),
    ) -> "Value":
        return _tuple_new(
            cls, (state, ref, ctype, null_literal, fresh_call, alias_refs)
        )

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"Value(state={self[0]!r}, ref={self[1]!r}, ctype={self[2]!r}, "
            f"null_literal={self[3]!r}, fresh_call={self[4]!r}, "
            f"alias_refs={self[5]!r})"
        )

    @staticmethod
    def plain(ctype: CType | None = None) -> "Value":
        """A defined, non-null, unobligated scalar value."""
        if ctype is None:
            return _PLAIN
        return Value(_PLAIN_STATE, ctype=ctype)

    @staticmethod
    def null(ctype: CType | None = None) -> "Value":
        return Value(
            RefState(DefState.DEFINED, NullState.ISNULL, AllocState.IMPLICIT),
            ctype=ctype,
            null_literal=True,
        )


_PLAIN_STATE = RefState(DefState.DEFINED, NullState.NOTNULL, AllocState.IMPLICIT)
#: ``Value.plain()``: values are immutable, so every untyped one is this one.
_PLAIN = Value(_PLAIN_STATE)
_STATIC_STATE = RefState(DefState.DEFINED, NullState.NOTNULL, AllocState.STATIC)


def _index_key(index_expr: A.Expr) -> str:
    """Reference key for an index under +strictindex: constant indexes
    denote distinct elements; unknown indexes share one '?' element."""
    if isinstance(index_expr, A.IntLit):
        return str(index_expr.value)
    if isinstance(index_expr, A.CharLit):
        return str(index_expr.value)
    return "?"


@lru_cache(maxsize=4096, typed=True)
def _constant_value(value: int) -> Value:
    """An integer constant: a plain value carrying its exact range (and
    the null-literal marker for 0). Values are immutable, so each
    constant's is built once."""
    null = NullState.ISNULL if value == 0 else NullState.NOTNULL
    state = RefState(DefState.DEFINED, null, AllocState.IMPLICIT, (value, value))
    return Value(state, null_literal=value == 0)


class LazyText:
    """Message text computed only if the message fires.

    ``str()`` — which an f-string applies — returns ``fn(*args)``. The
    checks run on every assignment and call, and rendering an expression
    or describing a reference costs more than the check when, as almost
    always, nothing is reported.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn, *args) -> None:
        self.fn = fn
        self.args = args

    def __str__(self) -> str:
        return self.fn(*self.args)


class Handlers(dict):
    """The ``prefix + node class name`` handler of each (checker class,
    node class) pair, looked up on first use and kept as a plain function.

    Only the ``_eval_*`` / ``_exec_*`` handlers are held here. The
    methods a handler calls onward (``handle_call``, ``handle_assignment``,
    ``exec_stmt``, ``eval_condition``, ``check_exit``) are still looked up
    on the instance at every call, so a subclass or a wrapper installed on
    the class after import sees every call.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key: tuple[type, type]):
        owner, node_cls = key
        handler = getattr(owner, f"{self.prefix}{node_cls.__name__.lower()}", None)
        self[key] = handler
        return handler


_EVAL_HANDLERS = Handlers("_eval_")


#: The allocation state a target annotated only/owned takes on receiving
#: an obligation; anything else (an unannotated local) holds it as fresh.
_OBLIGATION_STATES = {AllocAnn.ONLY: AllocState.ONLY, AllocAnn.OWNED: AllocState.OWNED}


class ExprMixin:
    """Expression evaluation; mixed into FunctionChecker.

    Host requirements (provided by FunctionChecker): ``reporter``,
    ``flags``, ``resolve_name``, ``local_ref``, ``global_ref``,
    ``ref_type``, ``declared_annotations``,
    ``effective_alloc_ann``, ``decl_site``, ``describe_ref``,
    ``signature``, ``handle_call``, ``materialize_children``,
    ``eval_condition`` and ``_report_merges``.
    """

    # -- reference resolution (also used by guard analysis) -----------------

    def resolve_ref_quiet(self, expr: A.Expr, store: Store) -> Ref | None:
        """Resolve an expression to a reference without reporting checks."""
        if isinstance(expr, A.Ident):
            kind, info = self.resolve_name(expr.name)
            if kind == "local":
                return self.local_ref(expr.name)
            if kind == "global":
                return self.global_ref(expr.name)
            return None
        if isinstance(expr, A.Member):
            base = self.resolve_ref_quiet(expr.obj, store)
            if base is None:
                return None
            return base.arrow(expr.fieldname) if expr.arrow else base.dot(expr.fieldname)
        if isinstance(expr, A.Index):
            base = self.resolve_ref_quiet(expr.array, store)
            if base is None:
                return None
            return base.index(strict=self.flags.enabled("strictindex"),
                              key=_index_key(expr.index))
        if isinstance(expr, A.Unary) and expr.op == "*":
            base = self.resolve_ref_quiet(expr.operand, store)
            return base.deref() if base is not None else None
        if isinstance(expr, A.Cast):
            return self.resolve_ref_quiet(expr.operand, store)
        if isinstance(expr, A.Assign) and expr.op == "=":
            # The value of '(p = e)' is whatever p now holds, so a guard
            # on the assignment expression refines p itself — the
            # 'if ((s = malloc(n)) == NULL)' idiom (paper section 4).
            return self.resolve_ref_quiet(expr.target, store)
        return None

    # -- use checks --------------------------------------------------------------

    def check_usable(self, ref: Ref, store: Store, expr: A.Expr) -> None:
        """Checks for using *ref*, read by *expr*, as an rvalue (paper
        section 3)."""
        st = store.state(ref)
        if st.definition is DefState.UNDEFINED:
            ann = self.declared_annotations(ref)
            if ann.definition in (DefAnn.RELDEF, DefAnn.PARTIAL):
                # relaxed definition checking: assumed defined when used
                store.set_state(ref, st.with_definition(DefState.DEFINED))
                return
            name = self.describe_ref(ref)
            code = MessageCode.USE_BEFORE_DEF
            text = f"Value {name} used before definition"
            if ref.path and ref.path[-1][0] in ("dot", "arrow") and (
                self.flags.enabled("fielddef")
            ):
                # Reading an unwritten field of a struct that *other*
                # writes left partially defined is its own class; a read
                # from wholly-undefined storage stays use-before-def.
                parent = ref.parent()
                if parent is not None and (
                    store.state(parent).definition is DefState.PARTIAL
                ):
                    code = MessageCode.UNINIT_FIELD
                    text = (
                        f"Field {name} read while "
                        f"{self.describe_ref(parent)} is only partially "
                        f"initialized"
                    )
            self.reporter.report(code, expr.location, text)
            # poison to avoid cascades
            store.set_state(ref, st.with_definition(DefState.ERROR))
        elif st.definition is DefState.DEAD or st.alloc is AllocState.DEAD:
            self.reporter.report(
                MessageCode.USE_AFTER_RELEASE, expr.location,
                f"Storage {self.describe_ref(ref)} used after release",
                subs=self._site_subs(store, ref, "release"),
            )
            store.set_state(
                ref, RefState(DefState.ERROR, st.null, AllocState.ERROR)
            )

    def check_deref(
        self, base: Value, store: Store, how: str, expr: A.Expr
    ) -> None:
        """Check a dereference (``*p``, ``p->f``, ``p[i]``) for null misuse."""
        st = base.state
        if st.null is NullState.RELNULL:
            return
        if not st.null.possibly_null():
            return
        name = self.describe_ref(base.ref) if base.ref is not None else render_expr(expr)
        access = {
            "arrow": "Arrow access from",
            "deref": "Dereference of",
            "index": "Index of",
        }[how]
        kind = "null" if st.null.definitely_null() else "possibly null"
        self.reporter.report(
            MessageCode.NULL_DEREF, expr.location,
            f"{access} {kind} pointer {name}: {render_expr(expr)}",
            subs=self._site_subs(store, base.ref, "null") if base.ref else None,
        )
        if base.ref is not None:
            # Assume the check was meant: stop repeating the message.
            store.update_with_aliases(
                base.ref, lambda s: s.with_null(NullState.NOTNULL)
            )

    def _site_subs(
        self, store: Store, ref: Ref | None, kind: str
    ) -> list[tuple[A.Position, str]] | None:
        if ref is None:
            return None
        pos = store.sites.get((ref, kind))
        if pos is None:
            return None
        name = self.describe_ref(ref)
        text = {
            "null": f"Storage {name} may become null",
            "release": f"Storage {name} is released",
        }[kind]
        return [(pos, text)]

    # -- rvalue / lvalue evaluation ---------------------------------------------

    # Each dispatches through the handler table itself: these run for
    # every expression, so a shared dispatcher would cost a frame each.

    def eval_rvalue(self, expr: A.Expr, store: Store) -> Value:
        handler = _EVAL_HANDLERS[self.__class__, expr.__class__]
        if handler is None:
            return _PLAIN
        return handler(self, expr, store, False)

    def eval_lvalue(self, expr: A.Expr, store: Store) -> Value:
        handler = _EVAL_HANDLERS[self.__class__, expr.__class__]
        if handler is None:
            return _PLAIN
        return handler(self, expr, store, True)

    # Each _eval_* handler: (expr, store, want_lvalue) -> Value.

    def _eval_intlit(self, expr: A.IntLit, store: Store, want_lvalue: bool) -> Value:
        return _constant_value(expr.value)

    def _eval_floatlit(self, expr, store, want_lvalue) -> Value:
        return Value.plain()

    def _eval_charlit(self, expr: A.CharLit, store, want_lvalue) -> Value:
        return _constant_value(expr.value)

    def _eval_stringlit(self, expr, store, want_lvalue) -> Value:
        return Value(_STATIC_STATE)

    def _eval_ident(self, expr: A.Ident, store: Store, want_lvalue: bool) -> Value:
        kind, info = self.resolve_name(expr.name)
        if kind == "local":
            ref = self.local_ref(expr.name)
        elif kind == "global":
            ref = self.global_ref(expr.name)
            self.note_global_use(expr.name)
        elif kind == "func":
            return Value(_STATIC_STATE)
        elif kind == "enum":
            return _constant_value(info) if isinstance(info, int) else Value.plain()
        else:
            return Value.plain()
        if not want_lvalue:
            self.check_usable(ref, store, expr)
        return Value(store.state(ref), ref=ref, ctype=self.ref_type(ref))

    def _eval_member(self, expr: A.Member, store: Store, want_lvalue: bool) -> Value:
        if expr.arrow:
            obj = self.eval_rvalue(expr.obj, store)
            self.check_deref(obj, store, "arrow", expr)
        else:
            obj = self.eval_lvalue(expr.obj, store)
        if obj.ref is None:
            return Value.plain()
        ref = (
            obj.ref.arrow(expr.fieldname)
            if expr.arrow
            else obj.ref.dot(expr.fieldname)
        )
        if not want_lvalue:
            self.check_usable(ref, store, expr)
        return Value(store.state(ref), ref=ref, ctype=self.ref_type(ref))

    def _eval_index(self, expr: A.Index, store: Store, want_lvalue: bool) -> Value:
        # Indexing an array names its storage without reading the array
        # designator itself; indexing a pointer reads (and dereferences)
        # the pointer value.
        qref = self.resolve_ref_quiet(expr.array, store)
        base_is_array = False
        if qref is not None:
            qtype = self.ref_type(qref)
            base_is_array = qtype is not None and isinstance(
                strip_typedefs(qtype), Array
            )
        evaluate = self.eval_lvalue if base_is_array else self.eval_rvalue
        arr = evaluate(expr.array, store)
        self.eval_rvalue(expr.index, store)
        if not base_is_array and arr.ctype is not None and is_pointerish(arr.ctype):
            self.check_deref(arr, store, "index", expr)
        if qref is not None and self.flags.enabled("bounds"):
            self._check_index_bounds(qref, expr, store)
        if arr.ref is None:
            return Value.plain()
        ref = arr.ref.index(strict=self.flags.enabled("strictindex"),
                            key=_index_key(expr.index))
        if not want_lvalue:
            self.check_usable(ref, store, expr)
        return Value(store.state(ref), ref=ref, ctype=self.ref_type(ref))

    def _index_extent(self, qref: Ref) -> int | None:
        """The known element count of the indexed storage: a constant
        array extent, or a ``/*@size(N)@*/`` annotation on a pointer."""
        qtype = self.ref_type(qref)
        if qtype is not None:
            stripped = strip_typedefs(qtype)
            if isinstance(stripped, Array) and stripped.size is not None:
                return stripped.size
        ann = self.declared_annotations(qref)
        return ann.size_bound

    def _check_index_bounds(self, qref: Ref, expr: A.Index, store: Store) -> None:
        """Out-of-bounds index checking against known extents.

        Only indexes with *known* value information (a constant, or a
        range established by constant assignment, guard refinement or a
        canonical loop bound) can violate: unknown indexes stay silent,
        which keeps the checker quiet on code it cannot reason about.
        """
        extent = self._index_extent(qref)
        if extent is None:
            return
        name = LazyText(self.describe_ref, qref)
        const = self._const_int(expr.index)
        if const is not None:
            if const < 0 or const >= extent:
                self.reporter.report(
                    MessageCode.ARRAY_BOUNDS, expr.location,
                    f"Likely out-of-bounds access of {name} (index {const}, "
                    f"{extent} elements): {render_expr(expr)}",
                )
            return
        iref = self.resolve_ref_quiet(expr.index, store)
        if iref is None:
            return
        st = store.peek(iref)
        rng = st.rng if st is not None else None
        if rng is None:
            return
        lo, hi = rng
        if lo is not None and hi is not None and lo > hi:
            return  # infeasible: a guard contradicted the known value
        if hi is not None and hi >= extent:
            worst = hi
        elif lo is not None and lo < 0:
            worst = lo
        else:
            return
        self.reporter.report(
            MessageCode.ARRAY_BOUNDS, expr.location,
            f"Possible out-of-bounds access of {name} (index may reach "
            f"{worst}, {extent} elements): {render_expr(expr)}",
        )
        # Assume the access was meant to be in range: forget the range so
        # the same index does not re-report at every later access.
        store.update(iref, lambda s: s.with_range(None))

    def _eval_unary(self, expr: A.Unary, store: Store, want_lvalue: bool) -> Value:
        op = expr.op
        if op == "*":
            operand = self.eval_rvalue(expr.operand, store)
            self.check_deref(operand, store, "deref", expr)
            if operand.ref is None:
                return Value.plain()
            ref = operand.ref.deref()
            if not want_lvalue:
                self.check_usable(ref, store, expr)
            return Value(store.state(ref), ref=ref, ctype=self.ref_type(ref))
        if op == "&":
            inner = self.eval_lvalue(expr.operand, store)
            return Value(
                _STATIC_STATE,
                alias_refs=frozenset({inner.ref} if inner.ref else ()),
            )
        if op in ("++", "--", "p++", "p--"):
            target = self.eval_rvalue(expr.operand, store)
            if target.ref is not None:
                # The mutated value no longer matches any recorded range.
                store.update(
                    target.ref,
                    lambda s: s.with_definition(DefState.DEFINED).with_range(None),
                )
            return Value(target.state, ctype=target.ctype)
        if op == "!":
            self.eval_rvalue(expr.operand, store)
            return Value.plain()
        # '-', '+', '~'
        self.eval_rvalue(expr.operand, store)
        return Value.plain()

    def _eval_binary(self, expr: A.Binary, store: Store, want_lvalue: bool) -> Value:
        lhs = self.eval_rvalue(expr.lhs, store)
        rhs = self.eval_rvalue(expr.rhs, store)
        if expr.op not in ("+", "-"):
            return _PLAIN
        # Pointer arithmetic yields an offset pointer into the same object:
        # it shares the storage but must not carry the release obligation.
        for side in (lhs, rhs):
            if side.ctype is not None and is_pointerish(side.ctype):
                offset_state = RefState(
                    side.state.definition, side.state.null, AllocState.DEPENDENT
                )
                return Value(offset_state, ctype=side.ctype)
        return _PLAIN

    def _eval_ternary(self, expr: A.Ternary, store: Store, want_lvalue: bool) -> Value:
        # The condition guards each arm exactly like an if/else:
        # 'p ? *p : 0' evaluates '*p' knowing p is not null (Figure 2's
        # guard recognition, applied at expression granularity).
        true_store, false_store = self.eval_condition(expr.cond, store)
        then = self.eval_rvalue(expr.then, true_store)
        other = self.eval_rvalue(expr.other, false_store)
        merged_store, reports = true_store.merge(false_store)
        self._report_merges(reports, A.position(expr))
        store.absorb(merged_store)
        merged, _ = then.state.merged(other.state)
        return Value(merged, ctype=then.ctype or other.ctype)

    def _eval_comma(self, expr: A.Comma, store: Store, want_lvalue: bool) -> Value:
        result = Value.plain()
        for item in expr.exprs:
            result = self.eval_rvalue(item, store)
        return result

    def _eval_cast(self, expr: A.Cast, store: Store, want_lvalue: bool) -> Value:
        if is_null_literal(expr.operand):
            return Value.null(expr.to_type)
        evaluate = self.eval_lvalue if want_lvalue else self.eval_rvalue
        inner = evaluate(expr.operand, store)
        return Value(
            inner.state, ref=inner.ref, ctype=expr.to_type,
            null_literal=inner.null_literal, fresh_call=inner.fresh_call,
            alias_refs=inner.alias_refs,
        )

    def _eval_sizeofexpr(self, expr: A.SizeofExpr, store: Store, want_lvalue: bool) -> Value:
        # sizeof does not evaluate (or need the definedness of) its operand.
        return Value.plain()

    def _eval_sizeoftype(self, expr, store, want_lvalue) -> Value:
        return Value.plain()

    def _eval_call(self, expr: A.Call, store: Store, want_lvalue: bool) -> Value:
        return self.handle_call(expr, store)

    def _eval_assign(self, expr: A.Assign, store: Store, want_lvalue: bool) -> Value:
        return self.handle_assignment(expr, store)

    # -- assignment -----------------------------------------------------------

    def handle_assignment(self, expr: A.Assign, store: Store) -> Value:
        loc = A.position(expr)
        if expr.op != "=":
            # Compound assignment: target is read and written; no pointer
            # obligation semantics (arithmetic on the pointed value).
            self.eval_rvalue(expr.target, store)
            value = self.eval_rvalue(expr.value, store)
            target = self.eval_lvalue(expr.target, store)
            if target.ref is not None:
                store.update(
                    target.ref,
                    lambda s: s.with_definition(DefState.DEFINED).with_range(None),
                )
            return value

        value = self.eval_rvalue(expr.value, store)
        target = self.eval_lvalue(expr.target, store)
        tref = target.ref
        if tref is None:
            return value

        # Observer storage must not be modified through derived references
        # (Appendix B: "Returned storage must not be modified ... by caller").
        if tref.path:
            for ancestor in tref.ancestors():
                if store.state(ancestor).alloc is AllocState.OBSERVER:
                    self.reporter.report(
                        MessageCode.OBSERVER_MODIFIED, loc,
                        f"Suspect modification of observer storage "
                        f"{self.describe_ref(ancestor)}: {render_expr(expr)}",
                    )
                    break

        if tref.base.kind == "global":
            self.note_global_assignment(tref.base.name, loc)

        equivalents = self.equivalent_refs(tref, store)
        old = store.state(tref)

        self._check_overwrite_leak(tref, old, value, store, loc, expr)
        new_alloc = self._transfer_obligation(tref, value, store, loc, expr)
        new_state = RefState(
            definition=self._assigned_definition(value),
            null=value.state.null,
            alloc=new_alloc,
            rng=value.state.rng,
        )

        self._degrade_or_promote_ancestors(tref, new_state, store, equivalents)

        # Snapshot the source's derived storage and its alias candidates
        # BEFORE mutating the store: after 'x = y', x->f carries y->f's
        # state, and after 'l = l->next' the old target must be named
        # through a stable reference (argl->next), not the rebound l —
        # so the candidates must be computed while l's aliases survive.
        derived_states: list[tuple[Ref, RefState]] = []
        alias_candidates = value.alias_refs
        src = value.ref
        if src is not None:
            base, path = src
            cut = len(path)
            derived_states = [
                (k, st)
                for k, st in store.states.items()
                if len(k[1]) > cut and k[0] == base and k[1][:cut] == path
            ]
            alias_candidates = alias_candidates | self.equivalent_refs(src, store)
        if alias_candidates:
            alias_candidates = {
                cand
                for cand in alias_candidates
                if cand != tref and not tref.is_prefix_of(cand)
            }

        targets = equivalents if tref.path else (tref,)
        for target_ref in targets:
            store.kill_derived(target_ref)
            store.set_state(target_ref, new_state)
            if new_state.null.possibly_null():
                store.set_site(target_ref, "null", loc)
        if not tref.path:
            store.clear_aliases(tref)
        if value.ref is not None:
            for target_ref in targets:
                for k, st in derived_states:
                    store.set_state(
                        k.replace_prefix(value.ref, target_ref), st
                    )

        # New aliases: the target now refers to whatever the value did.
        for target_ref in targets:
            for cand in alias_candidates:
                if cand != target_ref:
                    store.add_alias(target_ref, cand)

        return Value(new_state, ref=tref, ctype=target.ctype)

    def _assigned_definition(self, value: Value) -> DefState:
        d = value.state.definition
        if d in (DefState.DEAD, DefState.ERROR):
            return DefState.DEFINED  # already reported at the use
        return d

    def _check_overwrite_leak(
        self,
        tref: Ref,
        old: RefState,
        value: Value,
        store: Store,
        loc: A.Position,
        expr: A.Assign,
    ) -> None:
        """Paper Figure 4: 'Only storage gname not released before assignment'."""
        if self.flags.gc_mode:
            return
        if not old.alloc.holds_obligation():
            return
        if old.definition in (DefState.UNDEFINED, DefState.DEAD, DefState.ERROR):
            return
        if old.null.definitely_null():
            return  # a null pointer carries no storage to release
        if old.alloc is not AllocState.FRESH and old.null.possibly_null():
            # Annotation-derived only storage that may be null (an unvisited
            # list link, say) may hold no storage at all; storage the frame
            # allocated itself (FRESH) is reported regardless.
            return
        if value.ref is not None and store.aliases.may_alias(tref, value.ref):
            return  # self-assignment through an alias
        name = self.describe_ref(tref)
        ann_word = "only" if old.alloc is not AllocState.FRESH else "fresh"
        subs = []
        site = self.decl_site(tref)
        if site is not None and old.alloc is not AllocState.FRESH:
            subs.append((site, f"Storage {name} becomes only"))
        else:
            alloc_site = store.sites.get((tref, "fresh"))
            if alloc_site is not None:
                subs.append((alloc_site, f"Fresh storage {name} allocated"))
        self.reporter.report(
            MessageCode.LEAK_OVERWRITE, loc,
            f"{ann_word.capitalize()} storage {name} not released before "
            f"assignment: {render_expr(expr)}",
            subs=subs or None,
        )

    def _transfer_obligation(
        self,
        tref: Ref,
        value: Value,
        store: Store,
        loc: A.Position,
        expr: A.Assign,
    ) -> AllocState:
        """Compute the target's allocation state; apply transfer rules."""
        target_ann = self.effective_alloc_ann(tref)
        # an unannotated local takes frame ownership
        obligation_state = _OBLIGATION_STATES.get(target_ann, AllocState.FRESH)

        rhs_state = value.state
        takes_obligation = (
            target_ann in (AllocAnn.ONLY, AllocAnn.OWNED)
            or (not tref.path and tref.base.kind == "local" and target_ann is None)
        )

        # Case 1: fresh storage straight from an allocating call.
        if rhs_state.alloc is AllocState.FRESH and value.ref is None:
            if takes_obligation:
                store.set_site(tref, "fresh", loc)
                return obligation_state
            tname = LazyText(self.describe_ref, tref)
            rendered = LazyText(render_expr, expr)
            if target_ann in (AllocAnn.TEMP, AllocAnn.DEPENDENT, AllocAnn.SHARED):
                self.reporter.report(
                    MessageCode.BAD_TRANSFER, loc,
                    f"Fresh storage assigned to {target_ann.value} {tname} "
                    f"(obligation to release is lost): {rendered}",
                )
                return AllocState.DEPENDENT
            if not self.flags.gc_mode:
                self.reporter.report(
                    MessageCode.IMPLICIT_TRANSFER, loc,
                    f"Fresh storage assigned to implicitly non-only {tname} "
                    f"(memory leak suspected): {rendered}",
                )
            return AllocState.IMPLICIT

        # Case 2: copying a reference.
        if value.ref is not None:
            src = value.ref
            sname = LazyText(self.describe_ref, src)
            tname = LazyText(self.describe_ref, tref)
            rendered = LazyText(render_expr, expr)
            if rhs_state.alloc.holds_obligation():
                frame_owned = src.depth == 0 and src.base.kind in ("local", "arg")
                # An owning *field* also transfers, but only into another
                # annotated owner ('c->vals = cur->next' moves the link's
                # obligation); reading a field into a plain local borrows.
                if not frame_owned and src.depth > 0 and target_ann in (
                    AllocAnn.ONLY, AllocAnn.OWNED,
                ):
                    src_ann = self.effective_alloc_ann(src)
                    if src_ann in (AllocAnn.ONLY, AllocAnn.OWNED):
                        frame_owned = True
                if takes_obligation and frame_owned:
                    # Obligation transfer by assignment: the source becomes
                    # 'kept' -- satisfied, but still safely usable (paper §5).
                    for src_ref in self.equivalent_refs(src, store):
                        store.update(
                            src_ref, lambda s: s.with_alloc(AllocState.KEPT)
                        )
                    store.set_site(tref, "fresh", loc)
                    return obligation_state
                if takes_obligation and not frame_owned:
                    # Borrowing an external only reference: dependent alias.
                    return AllocState.DEPENDENT
                if target_ann in (AllocAnn.TEMP, AllocAnn.DEPENDENT, AllocAnn.SHARED):
                    return AllocState.DEPENDENT
                return AllocState.DEPENDENT
            if rhs_state.alloc is AllocState.TEMP and target_ann is None and (
                tref.depth > 0 or tref.base.kind == "global"
            ):
                # A temp parameter's callee "may not ... create new
                # external references to this storage" (paper section 4).
                src_declared = self.declared_annotations(src)
                if src_declared.alloc is AllocAnn.TEMP:
                    self.reporter.report(
                        MessageCode.TEMP_ALIAS, loc,
                        f"New external reference {tname} to temp storage "
                        f"{sname}: {rendered}",
                    )
                return AllocState.TEMP
            if rhs_state.alloc is AllocState.TEMP and target_ann in (
                AllocAnn.ONLY, AllocAnn.OWNED,
            ):
                src_site = self.decl_site(src)
                subs = [(src_site, f"Storage {sname} becomes temp")] if src_site else None
                self.reporter.report(
                    MessageCode.TEMP_TO_ONLY, loc,
                    f"Temp storage {sname} assigned to "
                    f"{target_ann.value} {tname}: {rendered}",
                    subs=subs,
                )
                return AllocState.ONLY if target_ann is AllocAnn.ONLY else AllocState.OWNED
            if rhs_state.alloc is AllocState.IMPLICIT and target_ann in (
                AllocAnn.ONLY, AllocAnn.OWNED,
            ):
                self.reporter.report(
                    MessageCode.IMPLICIT_TRANSFER, loc,
                    f"Implicitly temp storage {sname} assigned to "
                    f"{target_ann.value} {tname}: {rendered}",
                )
                return AllocState.ONLY if target_ann is AllocAnn.ONLY else AllocState.OWNED
            if rhs_state.alloc in (AllocState.KEPT, AllocState.DEPENDENT,
                                   AllocState.SHARED, AllocState.STATIC) and target_ann in (
                AllocAnn.ONLY, AllocAnn.OWNED,
            ):
                self.reporter.report(
                    MessageCode.BAD_TRANSFER, loc,
                    f"{rhs_state.alloc.value.capitalize()} storage {sname} "
                    f"assigned to {target_ann.value} {tname}: {rendered}",
                )
                return AllocState.ONLY if target_ann is AllocAnn.ONLY else AllocState.OWNED
            # Plain copy with no obligations involved: mirror source state.
            if rhs_state.alloc in (AllocState.TEMP, AllocState.DEPENDENT,
                                   AllocState.SHARED, AllocState.KEPT,
                                   AllocState.STATIC, AllocState.OBSERVER,
                                   AllocState.REFCOUNTED):
                return rhs_state.alloc
            return AllocState.IMPLICIT

        # Case 3: computed values (arithmetic, null literals, unknown calls).
        if value.null_literal:
            return AllocState.IMPLICIT
        if rhs_state.alloc in (AllocState.DEPENDENT, AllocState.STATIC,
                               AllocState.SHARED, AllocState.TEMP,
                               AllocState.KEPT, AllocState.OBSERVER,
                               AllocState.REFCOUNTED):
            return rhs_state.alloc
        if takes_obligation and target_ann in (AllocAnn.ONLY, AllocAnn.OWNED):
            return obligation_state
        return AllocState.IMPLICIT

    # -- definition-state propagation (paper section 5, Figure 5/6 walk) ---------

    def _degrade_or_promote_ancestors(
        self,
        tref: Ref,
        new_state: RefState,
        store: Store,
        equivalents: set[Ref],
    ) -> None:
        """Propagate definedness changes to base storage.

        Assigning incompletely-defined storage into ``l->next`` makes ``l``
        partially defined; defining ``l->next->this`` promotes an allocated
        ``l->next`` to partially defined. Before a parent's state weakens
        from completely-defined (or strengthens from allocated), its
        immediate children are materialized so their states stay accurate.
        """
        incomplete = new_state.definition in (
            DefState.UNDEFINED, DefState.ALLOCATED, DefState.PARTIAL,
        )
        for base_ref in equivalents:
            if not base_ref.path:
                continue
            for ancestor in base_ref.ancestors():
                st = store.state(ancestor)
                if st.definition is DefState.DEFINED and incomplete:
                    self.materialize_children(ancestor, store)
                    store.set_state(ancestor, st.with_definition(DefState.PARTIAL))
                elif st.definition in (DefState.ALLOCATED, DefState.UNDEFINED):
                    self.materialize_children(ancestor, store)
                    store.set_state(ancestor, st.with_definition(DefState.PARTIAL))

    def equivalent_refs(self, tref: Ref, store: Store) -> set[Ref]:
        """References naming the same location through ancestor aliases.

        For ``l->next`` with ``l`` aliasing ``argl`` and ``argl->next``,
        this yields ``{l->next, argl->next}`` — the propagation the paper
        performs at Figure 6 point 8. The deeper candidate
        ``argl->next->next`` (reached through the alias that a second
        loop iteration would create) is dropped: the paper notes it "may
        alias" but keeps facts only one level deep, which is what makes
        the exit anomaly name ``argl->next->next`` as *undefined* rather
        than chasing an unbounded chain.
        """
        def shortest(aliases: frozenset[Ref]) -> list[Ref]:
            # 'l may alias argl or argl->next': substitute through argl
            # only — argl->next is the deeper-iteration view of the same
            # chain and substituting through it would chase it unboundedly.
            return [
                a
                for a in aliases
                if not any(b.is_prefix_of(a) for b in aliases if b != a)
            ]

        aliases = store.aliases.aliases_of(tref)
        if not tref.path and not aliases:
            return {tref}
        out = {tref}
        out.update(shortest(aliases))
        for ancestor in tref.ancestors():
            for alias in shortest(store.aliases.aliases_of(ancestor)):
                out.add(tref.replace_prefix(ancestor, alias))
        return out
