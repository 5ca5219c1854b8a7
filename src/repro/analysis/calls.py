"""Function-call checking (paper sections 2 and 4).

"When a function call site is encountered, LCLint checks that the
arguments and global variables used by the function satisfy the
assumptions made by the implementation of the called function. The
result of the function and the states of parameters and global variables
after the call are assumed to satisfy the constraints implied by the
function declaration."

:class:`CallMixin` implements this for every annotation in Appendix B:
``only`` / ``keep`` / ``temp`` transfer rules, ``out`` definition
effects, null requirements, ``unique`` external-aliasing checks
(Figure 8), ``returned`` result aliasing, and the callee's globals list.
"""

from __future__ import annotations

from ..annotations.kinds import (
    AllocAnn,
    AnnotationSet,
    DefAnn,
    ExposureAnn,
    NullAnn,
)
from ..frontend import cast as A
from ..frontend.ctypes import Array, ParamType, is_pointerish, strip_typedefs
from ..frontend.render import render_expr
from ..frontend.symtab import FunctionSignature
from ..messages.message import MessageCode
from .states import AllocState, DefState, NullState, RefState
from .storage import Ref
from .store import Store
from .transfer import LazyText, Value

#: Functions that terminate the program: following calls are unreachable.
NORETURN_FUNCTIONS = frozenset({"exit", "abort", "_exit", "longjmp"})


class CallMixin:
    """Call-site checking; mixed into FunctionChecker."""

    def handle_call(self, expr: A.Call, store: Store) -> Value:
        if not isinstance(expr.func, A.Ident):
            self.eval_rvalue(expr.func, store)
            for arg in expr.args:
                self.eval_rvalue(arg, store)
            return Value.plain()

        name = expr.func.name
        sig = self.signature(name)
        if sig is None:
            for arg in expr.args:
                self.eval_rvalue(arg, store)
            if name in NORETURN_FUNCTIONS:
                store.unreachable = True
            return Value.plain()

        arg_values: list[Value] = []
        for i, arg in enumerate(expr.args):
            param = sig.params[i] if i < len(sig.params) else None
            arg_values.append(self._eval_argument(arg, param, store))

        pos = A.position(expr)
        self._check_globals_pre(sig, store, pos, expr)

        unique_slots: list[tuple[int, Value]] = []
        for i, value in enumerate(arg_values):
            param = sig.params[i] if i < len(sig.params) else None
            if param is None:
                continue
            self._check_argument(i, value, param, sig, store, expr)
            if param.annotations.unique:
                unique_slots.append((i, value))
        for i, value in unique_slots:
            self._check_unique(i, value, arg_values, sig, store, expr)
        for i, value in enumerate(arg_values):
            param = sig.params[i] if i < len(sig.params) else None
            if param is not None:
                self._apply_argument_effects(value, param, store, pos)

        self._apply_globals_post(sig, store)

        if name in NORETURN_FUNCTIONS:
            store.unreachable = True

        return self._result_value(sig, arg_values)

    # -- argument evaluation and checking ------------------------------------

    def _eval_argument(
        self, arg: A.Expr, param: ParamType | None, store: Store
    ) -> Value:
        value = self.eval_rvalue(arg, store)
        return value

    def _param_label(self, i: int, param: ParamType, sig: FunctionSignature) -> str:
        pname = param.name or f"{i + 1}"
        return f"param {pname} of {sig.name}"

    def _check_argument(
        self,
        i: int,
        value: Value,
        param: ParamType,
        sig: FunctionSignature,
        store: Store,
        expr: A.Call,
    ) -> None:
        loc = A.position(expr)
        rendered = LazyText(render_expr, expr)
        ann = param.annotations
        name = (
            LazyText(self.describe_ref, value.ref)
            if value.ref is not None
            else LazyText(render_expr, expr.args[i])
        )
        param_is_pointer = is_pointerish(param.ctype)

        # Null requirement: a possibly-null argument may only be passed
        # where the parameter is declared null (or relnull).
        if (
            param_is_pointer
            and ann.null is None
            and value.state.null.possibly_null()
            and not value.null_literal
        ):
            self.reporter.report(
                MessageCode.NULL_PARAM, loc,
                f"Possibly null storage {name} passed as non-null "
                f"{self._param_label(i, param, sig)}: {rendered}",
                subs=self._site_subs(store, value.ref, "null"),
            )
        elif param_is_pointer and ann.null is None and value.null_literal:
            self.reporter.report(
                MessageCode.NULL_PARAM, loc,
                f"Null value passed as non-null "
                f"{self._param_label(i, param, sig)}: {rendered}",
            )

        # Definition requirement: completely defined unless out/partial/reldef.
        # Under +impouts, an unannotated parameter is assumed out where
        # that would prevent a message (registry: 'assume out for
        # unannotated actual out-positions').
        assume_out = (
            ann.definition is None
            and self.flags.enabled("impouts")
            and value.state.definition is DefState.ALLOCATED
        )
        if ann.definition not in (DefAnn.OUT, DefAnn.PARTIAL, DefAnn.RELDEF) and (
            not assume_out
        ):
            if value.state.definition in (DefState.ALLOCATED, DefState.PARTIAL):
                undefined = (
                    self.find_undefined(value.ref, store)
                    if value.ref is not None
                    else None
                )
                if undefined is not None or (
                    value.ref is None
                    and value.state.definition is DefState.ALLOCATED
                ):
                    detail = (
                        f" ({self.describe_ref(undefined)} is undefined)"
                        if undefined is not None
                        else ""
                    )
                    self.reporter.report(
                        MessageCode.PARAM_NOT_DEFINED, loc,
                        f"Passed storage {name} not completely defined"
                        f"{detail}: {rendered}",
                    )

        # Allocation transfer rules.
        if ann.alloc in (AllocAnn.ONLY, AllocAnn.KEEP):
            self._check_obligation_transfer(i, value, param, sig, store, expr, name)
            if ann.definition is DefAnn.OUT:
                self._check_completely_destroyed(value, store, expr, name)
        elif ann.alloc is AllocAnn.KILLREF:
            # Reference-counted storage ([3]): a killref parameter releases
            # one reference; only refcounted storage may be passed.
            if value.state.alloc not in (AllocState.REFCOUNTED,
                                         AllocState.ERROR) and not (
                value.null_literal or value.state.null.definitely_null()
            ):
                self.reporter.report(
                    MessageCode.BAD_TRANSFER, loc,
                    f"{value.state.alloc.value.capitalize()} storage {name} "
                    f"passed as killref {self._param_label(i, param, sig)} "
                    f"(killref releases a reference-counted reference): "
                    f"{rendered}",
                )

    def _check_obligation_transfer(
        self,
        i: int,
        value: Value,
        param: ParamType,
        sig: FunctionSignature,
        store: Store,
        expr: A.Call,
        name: LazyText,
    ) -> None:
        loc = A.position(expr)
        rendered = LazyText(render_expr, expr)
        alloc = value.state.alloc
        label = LazyText(self._param_label, i, param, sig)
        word = param.annotations.alloc.value  # 'only' or 'keep'
        if value.null_literal or value.state.null.definitely_null():
            return  # free(NULL) is permitted by the annotated standard library
        if alloc.holds_obligation():
            return
        if alloc is AllocState.TEMP:
            declared = (
                self.declared_annotations(value.ref).alloc
                if value.ref is not None
                else None
            )
            if declared is None:
                # paper section 6: "Implicitly temp storage c passed as
                # only param: free (c)"
                self.reporter.report(
                    MessageCode.IMPLICIT_TRANSFER, loc,
                    f"Implicitly temp storage {name} passed as {word} "
                    f"param: {rendered}",
                )
                return
            site = self.decl_site(value.ref) if value.ref is not None else None
            subs = [(site, f"Storage {name} becomes temp")] if site else None
            self.reporter.report(
                MessageCode.BAD_TRANSFER, loc,
                f"Temp storage {name} passed as {word} {label}: {rendered}",
                subs=subs,
            )
        elif alloc is AllocState.IMPLICIT:
            self.reporter.report(
                MessageCode.IMPLICIT_TRANSFER, loc,
                f"Implicitly temp storage {name} passed as {word} param: "
                f"{rendered}",
            )
        elif alloc is AllocState.KEPT:
            # Kept means the release obligation was already satisfied
            # through another reference: releasing again is a double free
            # reached through an alias, reported as its own class when
            # aliasfree checking is on (the generic transfer complaint
            # otherwise), with the same message either way.
            code = (
                MessageCode.DOUBLE_RELEASE
                if self.flags.enabled("aliasfree")
                else MessageCode.BAD_TRANSFER
            )
            self.reporter.report(
                code, loc,
                f"Kept storage {name} passed as {word} {label} "
                f"(storage may be released twice): {rendered}",
            )
        elif alloc is AllocState.STATIC:
            self.reporter.report(
                MessageCode.BAD_TRANSFER, loc,
                f"Static storage {name} passed as {word} {label} "
                f"(releasing unallocated storage): {rendered}",
            )
        elif alloc is AllocState.OBSERVER:
            self.reporter.report(
                MessageCode.OBSERVER_MODIFIED, loc,
                f"Observer storage {name} passed as {word} {label} "
                f"(observer storage may not be released): {rendered}",
            )
        elif alloc in (AllocState.DEPENDENT, AllocState.SHARED,
                       AllocState.REFCOUNTED):
            self.reporter.report(
                MessageCode.BAD_TRANSFER, loc,
                f"{alloc.value.capitalize()} storage {name} passed as "
                f"{word} {label}: {rendered}",
            )
        # DEAD / ERROR were reported by the use checks already.

    def _check_completely_destroyed(
        self, value: Value, store: Store, expr: A.Call, name: LazyText
    ) -> None:
        """Paper footnote 5: storage passed as ``out only void *`` (i.e.
        to a deallocator) must not contain references to live, unshared
        objects — the object must be completely destroyed."""
        if value.ref is None or value.state.null.definitely_null():
            return
        children = []
        for child in self.children_of(value.ref):
            ctype = self.ref_type(child)
            if ctype is not None and isinstance(strip_typedefs(ctype), Array):
                # inline array storage is released with its container;
                # what may leak is each (collapsed) element
                children.append(child.deref())
            else:
                children.append(child)
        for child in children:
            child_ann = self.effective_alloc_ann(child)
            if child_ann not in (AllocAnn.ONLY, AllocAnn.OWNED):
                continue
            st = store.state(child)
            if not st.alloc.holds_obligation():
                continue
            if st.null.possibly_null():
                continue  # may hold no storage; the programmer's contract
            if st.definition in (DefState.DEAD, DefState.ERROR):
                continue
            self.reporter.report(
                MessageCode.ONLY_NOT_RELEASED, expr.location,
                f"Only storage {self.describe_ref(child)} not released "
                f"before {name} is released (object not completely "
                f"destroyed): {render_expr(expr)}",
            )

    def _check_unique(
        self,
        i: int,
        value: Value,
        arg_values: list[Value],
        sig: FunctionSignature,
        store: Store,
        expr: A.Call,
    ) -> None:
        """Figure 8: unique parameters must not share storage with any
        other parameter or accessible global."""
        if value.ref is None:
            return
        my_root = self._external_root(value.ref, store)
        if my_root is None:
            return
        for j, other in enumerate(arg_values):
            if j == i or other.ref is None:
                continue
            if other.ctype is not None and not is_pointerish(other.ctype):
                continue  # a non-pointer argument cannot share storage
            other_root = self._external_root(other.ref, store)
            if other_root is None:
                continue
            definite = store.aliases.may_alias(value.ref, other.ref)
            if not definite and my_root == other_root:
                definite = True
            if definite or self._may_alias_externally(value.ref, other.ref, store):
                self.reporter.report(
                    MessageCode.UNIQUE_ALIAS, expr.location,
                    f"Parameter {i + 1} ({self.describe_ref(value.ref)}) to "
                    f"function {sig.name} is declared unique but may be "
                    f"aliased externally by parameter {j + 1} "
                    f"({self.describe_ref(other.ref)})",
                )
                return

    def _external_root(self, ref: Ref, store: Store) -> Ref | None:
        """The external base (arg/global) a reference derives from, if any."""
        if ref.base.kind in ("arg", "global"):
            return Ref(ref.base)
        if ref.base.kind == "local":
            # a local that aliases external storage is externally derived
            for candidate in [Ref(ref.base)] + list(ref.ancestors()):
                for alias in store.aliases.aliases_of(candidate):
                    if alias.base.kind in ("arg", "global"):
                        return Ref(alias.base)
            local_param = self.param_index_of_local(ref.base.name)
            if local_param is not None:
                param = self._param(local_param)
                # Only pointer parameters reference caller storage; an
                # aggregate passed by value is a fresh local copy, so
                # storage inside it cannot alias anything external.
                if param is not None and is_pointerish(param.ctype):
                    return Ref.arg(local_param)
        return None

    def _may_alias_externally(self, a: Ref, b: Ref, store: Store) -> bool:
        """Externally supplied references of unknown provenance may alias
        unless one of them is rooted in a unique-annotated parameter."""
        for ref in (a, b):
            root = self._external_root(ref, store)
            if root is None:
                return False
            if root.base.kind == "arg":
                ann = self.param_annotations(root.base.index)
                if ann is not None and ann.unique:
                    return False
                if ann is not None and ann.alloc is AllocAnn.ONLY:
                    return False  # sole reference: cannot alias another param
        return True

    # -- post-call effects --------------------------------------------------------

    def _apply_argument_effects(
        self, value: Value, param: ParamType, store: Store, loc: A.Position
    ) -> None:
        ann = param.annotations
        ref = value.ref
        if ref is None:
            # '&x' passed as an out parameter defines x itself.
            if ann.definition is DefAnn.OUT:
                for alias in value.alias_refs:
                    store.update(
                        alias,
                        lambda s: s.with_definition(DefState.DEFINED)
                        if s.definition not in (DefState.DEAD, DefState.ERROR)
                        else s,
                    )
            return
        equivalents = self.equivalent_refs(ref, store)
        if ann.alloc is AllocAnn.ONLY and value.state.alloc.may_be_released():
            if value.state.null.definitely_null():
                return
            # Obligation transferred by parameter passing: the reference
            # becomes dead and the storage may not be used (paper section 4).
            for target in equivalents:
                store.kill_derived(target)
                store.set_state(
                    target,
                    RefState(DefState.DEAD, value.state.null, AllocState.DEAD),
                )
                store.set_site(target, "release", loc)
        elif ann.alloc is AllocAnn.KEEP and value.state.alloc.may_be_released():
            for target in equivalents:
                store.update(target, lambda s: s.with_alloc(AllocState.KEPT))
        if ann.definition is DefAnn.OUT and ann.alloc is not AllocAnn.ONLY:
            # Storage passed as out is completely defined after the call.
            for target in equivalents:
                st = store.state(target)
                if st.definition not in (DefState.DEAD, DefState.ERROR):
                    store.kill_derived(target)
                    store.set_state(target, st.with_definition(DefState.DEFINED))

    # -- callee globals ---------------------------------------------------------

    def _check_globals_pre(
        self, sig: FunctionSignature, store: Store, loc: A.Position,
        expr: A.Call,
    ) -> None:
        for guse in sig.globals_list:
            gref = self.global_ref(guse.name)
            self.note_global_use(guse.name)
            st = store.state(gref)
            gvar = self.global_decl(guse.name)
            if not guse.undef and st.definition is DefState.UNDEFINED:
                self.reporter.report(
                    MessageCode.GLOBAL_UNDEFINED, loc,
                    f"Undefined global {guse.name} used by {sig.name}: "
                    f"{render_expr(expr)}",
                )
            if (
                gvar is not None
                and gvar.annotations.null is None
                and is_pointerish(gvar.ctype)
                and st.null.possibly_null()
            ):
                self.reporter.report(
                    MessageCode.NULL_PARAM, loc,
                    f"Non-null global {guse.name} may be null when "
                    f"{sig.name} is called: {render_expr(expr)}",
                    subs=self._site_subs(store, gref, "null"),
                )
            if st.definition is DefState.DEAD or st.alloc is AllocState.DEAD:
                self.reporter.report(
                    MessageCode.USE_AFTER_RELEASE, loc,
                    f"Released global {guse.name} used by {sig.name}: "
                    f"{render_expr(expr)}",
                )

    def _apply_globals_post(self, sig: FunctionSignature, store: Store) -> None:
        for guse in sig.globals_list:
            gref = self.global_ref(guse.name)
            gvar = self.global_decl(guse.name)
            if gvar is None:
                continue
            store.kill_derived(gref)
            store.set_state(gref, self.base_default(gref))

    # -- result ---------------------------------------------------------------------

    def _result_value(
        self, sig: FunctionSignature, arg_values: list[Value]
    ) -> Value:
        ann = self.effective_return_annotations(sig)
        pointer = is_pointerish(sig.ret_type)
        null = NullState.NOTNULL
        if pointer:
            if ann.null is NullAnn.NULL:
                null = NullState.MAYBENULL
            elif ann.null is NullAnn.RELNULL:
                null = NullState.RELNULL
        definition = (
            DefState.ALLOCATED if ann.definition is DefAnn.OUT else DefState.DEFINED
        )
        alloc = AllocState.IMPLICIT
        fresh_call: str | None = None
        if pointer:
            if ann.alloc is AllocAnn.ONLY:
                alloc = AllocState.FRESH
                fresh_call = sig.name
            elif ann.alloc is AllocAnn.OWNED:
                alloc = AllocState.OWNED
            elif ann.alloc in (AllocAnn.DEPENDENT,):
                alloc = AllocState.DEPENDENT
            elif ann.alloc is AllocAnn.REFCOUNTED:
                alloc = AllocState.REFCOUNTED
            elif ann.alloc is AllocAnn.SHARED:
                alloc = AllocState.SHARED
            elif ann.alloc is AllocAnn.TEMP:
                alloc = AllocState.TEMP
            elif ann.exposure is ExposureAnn.OBSERVER:
                alloc = AllocState.OBSERVER
            elif ann.exposure is not None:
                alloc = AllocState.DEPENDENT  # exposed: mutable, not freeable
        alias_refs: set[Ref] = set()
        for i, param in enumerate(sig.params):
            if param.annotations.returned and i < len(arg_values):
                arg = arg_values[i]
                if arg.ref is not None:
                    alias_refs.add(arg.ref)
                if arg.state.null.possibly_null() and pointer and ann.null is None:
                    null = arg.state.null
                if param.annotations.returned and arg.state.alloc.holds_obligation():
                    alloc = arg.state.alloc
        return Value(
            RefState(definition, null, alloc),
            ctype=sig.ret_type,
            fresh_call=fresh_call,
            alias_refs=frozenset(alias_refs),
        )
