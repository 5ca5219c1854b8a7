"""The per-function checker (paper sections 2 and 5).

"Each procedure is checked independently, but using more detailed
interface information than is normally available." When a function body
is checked, annotations on its parameters and the globals it uses are
assumed true on entry; at every return point the function must satisfy
the constraints implied by the annotations on its return value,
parameters, and globals.

Loops are analyzed as conditionals (zero or one iterations, no back
edges) and every predicate may be true or false — the paper's explicit
simplifying assumptions. The checker is intentionally neither sound nor
complete; it is tuned to report likely bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..annotations.kinds import (
    EMPTY_ANNOTATIONS,
    AllocAnn,
    AnnotationSet,
    DefAnn,
)
from ..flags.registry import DEFAULT_FLAGS, Flags
from ..frontend import cast as A
from ..frontend.ctypes import (
    CType,
    FunctionType,
    Pointer,
    Primitive,
    StructType,
    TypedefType,
    is_pointerish,
    pointee_type,
    strip_typedefs,
    struct_fields,
)
from ..frontend.render import render_expr
from ..frontend.symtab import FunctionSignature, GlobalVariable, SymbolTable
from ..messages.message import MessageCode
from ..messages.reporter import Reporter
from .calls import CallMixin
from .guards import GuardAnalyzer
from .states import (
    AllocState,
    DefState,
    NullState,
    RefState,
    from_annotations,
    intersect_range,
)
from .storage import Ref
from .store import MergeReport, Store
from .transfer import ExprMixin, Handlers, LazyText, Value

#: Recursion bound for walking derived storage of recursive data types.
MAX_DERIVATION_DEPTH = 4

_STMT_HANDLERS = Handlers("_exec_")

#: Definition state of derived storage, by its parent's definition state.
_DERIVED_DEFINITION = {
    DefState.DEFINED: DefState.DEFINED,
    DefState.ALLOCATED: DefState.UNDEFINED,
    DefState.PARTIAL: DefState.UNDEFINED,
    DefState.UNDEFINED: DefState.UNDEFINED,
    DefState.DEAD: DefState.DEAD,
    DefState.ERROR: DefState.ERROR,
}

#: Declaration facts of a reference: type, declared annotations (typedef
#: annotations merged beneath) and the declaration site of its base, a
#: position (see :data:`~repro.frontend.cast.Position`).
DeclFacts = tuple[CType | None, AnnotationSet, A.Position]


@dataclass
class LocalInfo:
    ctype: CType
    annotations: AnnotationSet
    node: A.Node  # the declarator or parameter: its position is the site
    param_index: int = -1

    @property
    def is_param(self) -> bool:
        return self.param_index >= 0


@dataclass
class CheckContext:
    """Shared state for checking one translation unit."""

    symtab: SymbolTable
    reporter: Reporter
    flags: Flags = field(default_factory=lambda: DEFAULT_FLAGS)
    enum_consts: dict[str, int] = field(default_factory=dict)


class FunctionChecker(ExprMixin, CallMixin):
    """Checks one function body against its interface annotations."""

    def __init__(self, ctx: CheckContext, fdef: A.FunctionDef) -> None:
        self.ctx = ctx
        self.fdef = fdef
        self.reporter = ctx.reporter
        self.flags = ctx.flags
        self.sig = ctx.symtab.function(fdef.name)
        # Check the body against the *interface* annotations: a prototype
        # or .lcl specification may annotate parameters the definition
        # leaves bare (the symbol table merged them into the signature).
        if self.sig is not None:
            merged_params: list[A.ParamDecl] = []
            for i, param in enumerate(fdef.params):
                anns = param.annotations
                if i < len(self.sig.params):
                    anns = anns.merged_under(self.sig.params[i].annotations)
                merged_params.append(
                    A.ParamDecl(A.position(param), name=param.name,
                                ctype=param.ctype, annotations=anns)
                )
            fdef = A.FunctionDef(
                A.position(fdef), name=fdef.name, ctype=fdef.ctype,
                params=merged_params, annotations=fdef.annotations,
                body=fdef.body, storage=fdef.storage,
                globals_list=fdef.globals_list or self.sig.globals_list,
                modifies_list=(
                    fdef.modifies_list
                    if fdef.modifies_list is not None
                    else self.sig.modifies_list
                ),
            )
            self.fdef = fdef
        self._scopes: list[dict[str, LocalInfo]] = []
        self._all_locals: dict[str, LocalInfo] = {}
        self._loop_frames: list[tuple[list[Store], list[Store]]] = []
        self.used_globals: set[str] = set()
        # The first assignment's position per global (the modifies check).
        self.assigned_globals: dict[str, A.Position] = {}
        # Per-check memos. Base references are interned, so the store's
        # dict lookups and comparisons mostly meet identical objects.
        # Declaration facts depend on which declaration a local name is
        # bound to, so _bind_local drops them on every binding.
        self._local_refs: dict[str, Ref] = {}
        self._global_refs: dict[str, Ref] = {}
        self._arg_refs: dict[tuple[int, str], Ref] = {}
        self._decl_facts: dict[Ref, DeclFacts] = {}
        self._alloc_anns: dict[Ref, AllocAnn | None] = {}

    # ------------------------------------------------------------------
    # Interned references and memoized declaration facts
    # ------------------------------------------------------------------

    def local_ref(self, name: str) -> Ref:
        ref = self._local_refs.get(name)
        if ref is None:
            ref = self._local_refs[name] = Ref.local(name)
        return ref

    def global_ref(self, name: str) -> Ref:
        ref = self._global_refs.get(name)
        if ref is None:
            ref = self._global_refs[name] = Ref.global_(name)
        return ref

    def arg_ref(self, index: int, name: str) -> Ref:
        ref = self._arg_refs.get((index, name))
        if ref is None:
            ref = self._arg_refs[index, name] = Ref.arg(index, name)
        return ref

    def _bind_local(self, name: str, info: LocalInfo) -> None:
        """Bind *name* for the rest of the check: the last declaration
        wins, even after its block closes."""
        self._all_locals[name] = info
        self._decl_facts.clear()
        self._alloc_anns.clear()

    def _decl(self, ref: Ref) -> DeclFacts:
        facts = self._decl_facts.get(ref)
        if facts is None:
            facts = self._decl_facts[ref] = self._walk_path(ref)
        return facts

    # ------------------------------------------------------------------
    # StateEnv protocol (store materialization)
    # ------------------------------------------------------------------

    def base_default(self, ref: Ref) -> RefState:
        kind = ref.base.kind
        if kind == "arg":
            param = self._param(ref.base.index)
            if param is None:
                return RefState()
            ann = self._with_typedef(param.annotations, param.ctype)
            pointer = is_pointerish(param.ctype)
            return from_annotations(
                ann, pointer,
                default_alloc=AllocState.TEMP if pointer else AllocState.IMPLICIT,
            )
        if kind == "local":
            info = self._all_locals.get(ref.base.name)
            if info is not None and info.is_param:
                return self.base_default(self.arg_ref(info.param_index, ref.base.name))
            return RefState(DefState.UNDEFINED, NullState.NOTNULL, AllocState.IMPLICIT)
        if kind == "global":
            gvar = self.global_decl(ref.base.name)
            if gvar is None:
                return RefState()
            ann = self._with_typedef(gvar.annotations, gvar.ctype)
            pointer = is_pointerish(gvar.ctype)
            state = from_annotations(ann, pointer)
            if pointer and ann.alloc is None and self.flags.implicit_only:
                state = state.with_alloc(AllocState.ONLY)
            return state
        return RefState()

    def derived_default(self, ref: Ref, parent: RefState) -> RefState:
        ann = self.declared_annotations(ref)
        ctype = self.ref_type(ref)
        pointer = ctype is not None and is_pointerish(ctype)
        definition = _DERIVED_DEFINITION[parent.definition]
        state = from_annotations(ann, pointer)
        if ann.definition in (DefAnn.RELDEF, DefAnn.PARTIAL) and definition in (
            DefState.UNDEFINED, DefState.ALLOCATED,
        ):
            definition = DefState.DEFINED  # relaxed: assumed defined at uses
        state = state.with_definition(definition)
        if pointer and ann.alloc is None:
            last = ref.path[-1][0]
            effective = self.effective_alloc_ann(ref)
            if effective is AllocAnn.ONLY:
                state = state.with_alloc(AllocState.ONLY)
            elif effective is AllocAnn.OWNED:
                state = state.with_alloc(AllocState.OWNED)
            elif last in ("arrow", "dot") and self.flags.implicit_only:
                state = state.with_alloc(AllocState.ONLY)
            elif parent.alloc in (AllocState.TEMP, AllocState.DEPENDENT,
                                  AllocState.SHARED):
                # storage reached through borrowed references is borrowed
                state = state.with_alloc(AllocState.DEPENDENT)
        return state

    # ------------------------------------------------------------------
    # Host services used by the mixins
    # ------------------------------------------------------------------

    def resolve_name(self, name: str) -> tuple[str, object]:
        for scope in reversed(self._scopes):
            if name in scope:
                return "local", scope[name]
        if name in self.ctx.enum_consts:
            return "enum", self.ctx.enum_consts[name]
        if self.ctx.symtab.function(name) is not None:
            return "func", self.ctx.symtab.function(name)
        if self.ctx.symtab.global_var(name) is not None:
            return "global", self.ctx.symtab.global_var(name)
        return "unknown", None

    def signature(self, name: str) -> FunctionSignature | None:
        return self.ctx.symtab.function(name)

    def global_decl(self, name: str) -> GlobalVariable | None:
        return self.ctx.symtab.global_var(name)

    def note_global_use(self, name: str) -> None:
        self.used_globals.add(name)

    def note_global_assignment(self, name: str, pos: A.Position) -> None:
        self.used_globals.add(name)
        self.assigned_globals.setdefault(name, pos)

    def param_annotations(self, index: int) -> AnnotationSet | None:
        param = self._param(index)
        return param.annotations if param is not None else None

    def param_index_of_local(self, name: str) -> int | None:
        info = self._all_locals.get(name)
        if info is not None and info.is_param:
            return info.param_index
        return None

    def _param(self, index: int):
        if 0 <= index < len(self.fdef.params):
            return self.fdef.params[index]
        return None

    def _base_decl(self, ref: Ref) -> DeclFacts:
        kind = ref.base.kind
        if kind == "local":
            info = self._all_locals.get(ref.base.name)
            if info is None:
                return None, EMPTY_ANNOTATIONS, None
            return info.ctype, info.annotations, A.position(info.node)
        if kind == "arg":
            param = self._param(ref.base.index)
            if param is None:
                return None, EMPTY_ANNOTATIONS, None
            return param.ctype, param.annotations, A.position(param)
        if kind == "global":
            gvar = self.global_decl(ref.base.name)
            if gvar is None:
                return None, EMPTY_ANNOTATIONS, None
            return gvar.ctype, gvar.annotations, gvar.location
        return None, EMPTY_ANNOTATIONS, None

    def _walk_path(self, ref: Ref) -> DeclFacts:
        """Type and declared annotations at the end of a reference path,
        and the declaration site of its base (use :meth:`_decl`)."""
        ctype, ann, site = self._base_decl(ref)
        if ctype is None:
            return None, EMPTY_ANNOTATIONS, site
        ann = self._with_typedef(ann, ctype)
        for kind, fieldname in ref.path:
            actual = strip_typedefs(ctype)
            if kind in ("arrow", "deref", "index"):
                target = actual.pointee()
                if target is None:
                    return None, EMPTY_ANNOTATIONS, site
                if kind == "arrow":
                    fld = self._field(target, fieldname)
                    if fld is None:
                        return None, EMPTY_ANNOTATIONS, site
                    ctype = fld.ctype
                    ann = self._with_typedef(fld.annotations, fld.ctype)
                else:
                    ctype = target
                    ann = self._with_typedef(EMPTY_ANNOTATIONS, ctype)
            elif kind == "dot":
                fld = self._field(actual, fieldname)
                if fld is None:
                    return None, EMPTY_ANNOTATIONS, site
                ctype = fld.ctype
                ann = self._with_typedef(fld.annotations, fld.ctype)
        return ctype, ann, site

    @staticmethod
    def _field(ctype: CType, name: str):
        actual = strip_typedefs(ctype)
        if isinstance(actual, StructType):
            return actual.field_named(name)
        return None

    @staticmethod
    def _with_typedef(ann: AnnotationSet, ctype: CType) -> AnnotationSet:
        """Merge typedef-level annotations beneath declaration-level ones."""
        seen = 0
        while isinstance(ctype, TypedefType):
            ann = ann.merged_under(ctype.annotations)
            ctype = ctype.actual
            seen += 1
            if seen > 16:
                break
        return ann

    def ref_type(self, ref: Ref) -> CType | None:
        return self._decl(ref)[0]

    def declared_annotations(self, ref: Ref) -> AnnotationSet:
        return self._decl(ref)[1]

    def effective_alloc_ann(self, ref: Ref) -> AllocAnn | None:
        try:
            return self._alloc_anns[ref]
        except KeyError:
            ann = self._alloc_anns[ref] = self._effective_alloc_ann(ref)
            return ann

    def _effective_alloc_ann(self, ref: Ref) -> AllocAnn | None:
        ann = self.declared_annotations(ref)
        if ann.alloc is not None:
            return ann.alloc
        ctype = self.ref_type(ref)
        if ctype is None or not is_pointerish(ctype):
            return None
        # Elements of an array-typed field inherit the field's ownership:
        # 'only entry buckets[N]' means each bucket link is owning.
        if ref.depth > 0 and ref.path[-1][0] in ("deref", "index"):
            parent = ref.parent()
            if parent is not None and parent.path and parent.path[-1][0] in (
                "arrow", "dot",
            ):
                parent_type = self.ref_type(parent)
                from ..frontend.ctypes import Array

                if parent_type is not None and isinstance(
                    strip_typedefs(parent_type), Array
                ):
                    return self.effective_alloc_ann(parent)
        if not self.flags.implicit_only:
            return None
        if ref.depth == 0 and ref.base.kind == "global":
            return AllocAnn.ONLY
        if ref.depth > 0 and ref.path[-1][0] in ("arrow", "dot"):
            return AllocAnn.ONLY
        return None

    def effective_return_annotations(self, sig: FunctionSignature) -> AnnotationSet:
        ann = sig.ret_annotations
        if (
            ann.alloc is None
            and self.flags.implicit_only
            and is_pointerish(sig.ret_type)
            and ann.exposure is None
            and not any(p.annotations.returned for p in sig.params)
            and not ann.truenull
            and not ann.falsenull
        ):
            ann = ann.with_alloc(AllocAnn.ONLY)
        return ann

    def decl_site(self, ref: Ref) -> A.Position:
        """The position of the declaration of *ref*'s base."""
        return self._decl(ref)[2]

    def describe_ref(self, ref: Ref) -> str:
        text = ref.base.describe()
        if ref.base.kind == "arg":
            param = self._param(ref.base.index)
            if param is not None and param.name:
                text = param.name
        for kind, fieldname in ref.path:
            if kind == "arrow":
                text += f"->{fieldname}"
            elif kind == "dot":
                text += f".{fieldname}"
            elif kind == "deref":
                text = f"*{text}"
            else:
                text += "[]"
        return text

    # -- guard support -------------------------------------------------------

    def _null_predicate(self, name: str) -> str | None:
        sig = self.signature(name)
        if sig is None:
            return None
        if sig.ret_annotations.truenull:
            return "truenull"
        if sig.ret_annotations.falsenull:
            return "falsenull"
        return None

    def _const_int(self, expr: A.Expr) -> int | None:
        """Compile-time integer value of an expression, if known."""
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.CharLit):
            return expr.value
        if isinstance(expr, A.Unary) and expr.op == "-":
            inner = self._const_int(expr.operand)
            return -inner if inner is not None else None
        if isinstance(expr, A.Cast):
            return self._const_int(expr.operand)
        if isinstance(expr, A.Ident):
            kind, info = self.resolve_name(expr.name)
            if kind == "enum" and isinstance(info, int):
                return info
        return None

    # ------------------------------------------------------------------
    # Derived-storage helpers
    # ------------------------------------------------------------------

    def children_of(self, ref: Ref) -> list[Ref]:
        """Immediate derived references (for completeness walking)."""
        if ref.depth >= MAX_DERIVATION_DEPTH:
            return []
        ctype = self.ref_type(ref)
        if ctype is None:
            return []
        actual = strip_typedefs(ctype)
        out: list[Ref] = []
        if is_pointerish(actual):
            target = strip_typedefs(actual.pointee() or Primitive("void"))
            if isinstance(target, StructType) and target.fields:
                out.extend(ref.arrow(f.name) for f in target.fields)
            elif isinstance(target, Primitive) and target.is_void:
                pass
            elif isinstance(target, FunctionType):
                pass
            else:
                out.append(ref.deref())
        elif isinstance(actual, StructType) and actual.fields:
            out.extend(ref.dot(f.name) for f in actual.fields)
        return out

    def materialize_children(self, ref: Ref, store: Store) -> None:
        for child in self.children_of(ref):
            store.state(child)

    def find_undefined(self, ref: Ref | None, store: Store) -> Ref | None:
        """First reference reachable from *ref* that is not defined."""
        if ref is None:
            return None
        return self._find_undefined(ref, store, depth=0)

    def _find_undefined(self, ref: Ref, store: Store, depth: int) -> Ref | None:
        if depth > MAX_DERIVATION_DEPTH:
            return None
        ann = self.declared_annotations(ref)
        if ann.definition in (DefAnn.PARTIAL, DefAnn.RELDEF):
            return None  # relaxed definition checking (paper section 4)
        if ann.definition is DefAnn.OUT and depth > 0:
            # An out *field* need not be defined; an out parameter must be
            # completely defined by the time the function returns.
            return None
        st = store.state(ref)
        if st.definition is DefState.UNDEFINED:
            return ref
        if st.definition is DefState.DEFINED or st.definition in (
            DefState.DEAD, DefState.ERROR,
        ):
            return None
        if st.null.definitely_null():
            return None  # NULL is completely defined (paper section 3)
        if self._type_is_partial(ref):
            return None  # the type itself permits undefined fields
        for child in self.children_of(ref):
            found = self._find_undefined(child, store, depth + 1)
            if found is not None:
                return found
        return None

    def _type_is_partial(self, ref: Ref) -> bool:
        """True if the ref's *type* (typedef chain) is declared partial.

        Declaration-level annotations (``out``) override typedef-level ones
        in the merged view, so the typedef chain is consulted directly.
        """
        ctype = self.ref_type(ref)
        seen = 0
        while isinstance(ctype, TypedefType):
            if ctype.annotations.definition in (DefAnn.PARTIAL, DefAnn.RELDEF):
                return True
            ctype = ctype.actual
            seen += 1
            if seen > 16:
                break
        return False

    # ------------------------------------------------------------------
    # Entry, body, exit
    # ------------------------------------------------------------------

    def check(self) -> None:
        store = self.entry_store()
        self._scopes.append(self._param_scope())
        out = self.exec_stmt(self.fdef.body, store)
        self._scopes.pop()
        if not out.unreachable:
            pos = A.end_position(self.fdef.body) or A.position(self.fdef)
            self.check_exit(out, pos, None)
        self._check_modifies()

    def _check_modifies(self) -> None:
        """LCL modifies clauses: a specified function may only change the
        globals its clause lists ('modifies nothing' lists none)."""
        allowed = self.fdef.modifies_list
        if allowed is None:
            return
        allowed_set = set(allowed)
        for name in sorted(self.assigned_globals):
            if name in allowed_set:
                continue
            self.reporter.report(
                MessageCode.MODIFIES, self.assigned_globals[name],
                f"Undocumented modification of global {name} "
                f"(not listed in the modifies clause of {self.fdef.name})",
            )

    def _param_scope(self) -> dict[str, LocalInfo]:
        scope: dict[str, LocalInfo] = {}
        for i, param in enumerate(self.fdef.params):
            if param.name is None:
                continue
            info = LocalInfo(param.ctype, param.annotations, param, i)
            scope[param.name] = info
            self._bind_local(param.name, info)
        return scope

    def entry_store(self) -> Store:
        store = Store(self)
        for i, param in enumerate(self.fdef.params):
            if param.name is None:
                continue
            aref = self.arg_ref(i, param.name)
            lref = self.local_ref(param.name)
            state = self.base_default(aref)
            store.set_state(aref, state)
            store.set_state(lref, state)
            if is_pointerish(param.ctype):
                # The local names the same storage the caller passed; a
                # by-value aggregate is a fresh copy and must not alias
                # the external argument.
                store.add_alias(aref, lref)
        for guse in self.fdef.globals_list:
            gref = self.global_ref(guse.name)
            self.note_global_use(guse.name)
            state = self.base_default(gref)
            if guse.undef:
                state = state.with_definition(DefState.UNDEFINED)
            store.set_state(gref, state)
        return store

    # -- statements -----------------------------------------------------------

    def exec_stmt(self, stmt: A.Node, store: Store) -> Store:
        if store.unreachable:
            return store
        handler = _STMT_HANDLERS[self.__class__, stmt.__class__]
        if handler is None:
            return store
        return handler(self, stmt, store)

    def _exec_block(self, stmt: A.Block, store: Store) -> Store:
        self._scopes.append({})
        for item in stmt.items:
            store = self.exec_stmt(item, store)
        scope = self._scopes.pop()
        if not store.unreachable:
            self._check_scope_leaks(
                scope, store, A.end_position(stmt) or A.position(stmt)
            )
        for name in scope:
            ref = self.local_ref(name)
            store.kill_derived(ref)
            store.drop_state(ref)
            store.clear_aliases(ref)
        return store

    def _exec_declaration(self, decl: A.Declaration, store: Store) -> Store:
        for dtor in decl.declarators:
            if dtor.name is None or decl.is_typedef:
                continue
            actual = strip_typedefs(dtor.ctype)
            if isinstance(actual, FunctionType):
                continue
            info = LocalInfo(dtor.ctype, dtor.annotations, dtor)
            self._scopes[-1][dtor.name] = info
            self._bind_local(dtor.name, info)
            ref = self.local_ref(dtor.name)
            store.kill_derived(ref)
            store.clear_aliases(ref)
            if dtor.init is None:
                if decl.storage == "static":
                    store.set_state(ref, RefState())  # statics are zeroed
                else:
                    store.set_state(
                        ref,
                        RefState(DefState.UNDEFINED, NullState.NOTNULL,
                                 AllocState.IMPLICIT),
                    )
            elif isinstance(dtor.init, A.InitList):
                for item in dtor.init.items:
                    self.eval_rvalue(item, store)
                store.set_state(ref, RefState())
            else:
                store.set_state(
                    ref,
                    RefState(DefState.UNDEFINED, NullState.NOTNULL,
                             AllocState.IMPLICIT),
                )
                pos = A.position(dtor)
                assign = A.Assign(
                    pos, op="=", target=A.Ident(pos, name=dtor.name),
                    value=dtor.init,
                )
                self.handle_assignment(assign, store)
        return store

    def _exec_exprstmt(self, stmt: A.ExprStmt, store: Store) -> Store:
        expr = stmt.expr
        if (
            isinstance(expr, A.Call)
            and isinstance(expr.func, A.Ident)
            and expr.func.name in ("assert", "Assert", "llassert")
            and len(expr.args) == 1
        ):
            # assert(e): continue with e's true-branch refinements.
            true_store, _ = self.eval_condition(expr.args[0], store)
            return true_store
        value = self.eval_rvalue(expr, store)
        if (
            isinstance(expr, A.Call)
            and self.flags.enabled("retvalother")
            and isinstance(expr.func, A.Ident)
            and value.ctype is not None
            and not (
                isinstance(strip_typedefs(value.ctype), Primitive)
                and strip_typedefs(value.ctype).is_void  # type: ignore[union-attr]
            )
        ):
            self.reporter.report(
                MessageCode.RET_VAL_IGNORED, stmt.location,
                f"Return value (type {value.ctype}) ignored: "
                f"{render_expr(expr)}",
            )
        if (
            value.state.alloc is AllocState.FRESH
            and value.ref is None
            and not value.alias_refs  # result aliases a tracked argument
            and not self.flags.gc_mode
        ):
            called = value.fresh_call or "call"
            self.reporter.report(
                MessageCode.LEAK_RESULT, stmt.location,
                f"Fresh storage (result of {called}) not released "
                f"(memory leak): {render_expr(expr)}",
            )
        return store

    def _exec_emptystmt(self, stmt: A.EmptyStmt, store: Store) -> Store:
        return store

    def _exec_if(self, stmt: A.If, store: Store) -> Store:
        true_store, false_store = self.eval_condition(stmt.cond, store)
        out_true = self.exec_stmt(stmt.then, true_store)
        out_false = (
            self.exec_stmt(stmt.orelse, false_store)
            if stmt.orelse is not None
            else false_store
        )
        merged, reports = out_true.merge(out_false)
        self._report_merges(reports, A.position(stmt))
        return merged

    def _exec_while(self, stmt: A.While, store: Store) -> Store:
        return self._exec_loop(
            stmt.cond, stmt.body, None, store, A.position(stmt)
        )

    def _exec_for(self, stmt: A.For, store: Store) -> Store:
        if stmt.init is not None:
            store = self.exec_stmt(stmt.init, store)
        widen = self._loop_widen_plan(stmt, store)
        return self._exec_loop(stmt.cond, stmt.body, stmt.step, store,
                               A.position(stmt), widen=widen)

    def _loop_widen_plan(
        self, stmt: A.For, store: Store
    ) -> tuple[Ref, int, int] | None:
        """Recognize the canonical counting loop ``for (i = lo; i < C; i++)``.

        Although loops run zero-or-one times in the analysis model, the
        counter of a canonical loop is known to span the whole interval
        ``[lo, C)`` inside the body — exactly the fact the out-of-bounds
        checker needs to judge ``a[i]`` against a constant bound. Returns
        ``(counter_ref, lo, hi)`` (inclusive) or ``None``.
        """
        cond = stmt.cond
        if not (isinstance(cond, A.Binary) and cond.op in ("<", "<=")):
            return None
        if not isinstance(cond.lhs, A.Ident):
            return None
        bound = self._const_int(cond.rhs)
        if bound is None:
            return None
        name = cond.lhs.name
        kind, _ = self.resolve_name(name)
        if kind != "local":
            return None
        if not self._is_unit_increment(stmt.step, name):
            return None
        ref = self.local_ref(name)
        st = store.peek(ref)
        if st is None or st.rng is None or st.rng[0] is None:
            return None
        lo = st.rng[0]
        hi = bound - 1 if cond.op == "<" else bound
        if lo > hi:
            return None  # loop body never runs with a feasible counter
        return ref, lo, hi

    @staticmethod
    def _is_unit_increment(step: A.Expr | None, name: str) -> bool:
        """Match ``i++`` / ``++i`` / ``i += 1`` / ``i = i + 1``."""
        def is_counter(expr: A.Expr) -> bool:
            return isinstance(expr, A.Ident) and expr.name == name

        if isinstance(step, A.Unary) and step.op in ("++", "p++"):
            return is_counter(step.operand)
        if isinstance(step, A.Assign) and is_counter(step.target):
            if step.op == "+=":
                return isinstance(step.value, A.IntLit) and step.value.value == 1
            if step.op == "=" and isinstance(step.value, A.Binary) and (
                step.value.op == "+"
            ):
                one, other = step.value.rhs, step.value.lhs
                if not (isinstance(one, A.IntLit) and one.value == 1):
                    one, other = step.value.lhs, step.value.rhs
                return (
                    isinstance(one, A.IntLit) and one.value == 1
                    and is_counter(other)
                )
        return False

    def _exec_loop(
        self,
        cond: A.Expr | None,
        body: A.Stmt,
        step: A.Expr | None,
        store: Store,
        loc: A.Position,
        widen: tuple[Ref, int, int] | None = None,
    ) -> Store:
        """Loops execute zero or one times (paper section 2)."""
        if cond is not None:
            true_store, false_store = self.eval_condition(cond, store)
        else:
            true_store, false_store = store.copy(), store.copy()
            false_store.unreachable = True
        if widen is not None:
            # The counter spans its whole loop interval inside the body;
            # this overrides the entry-value pin the guard facts applied.
            wref, wlo, whi = widen
            true_store.update(wref, lambda s: s.with_range((wlo, whi)))
        self._loop_frames.append(([], []))
        body_out = self.exec_stmt(body, true_store)
        breaks, continues = self._loop_frames.pop()
        for cont in continues:
            body_out, reports = body_out.merge(cont)
            self._report_merges(reports, loc)
        if step is not None and not body_out.unreachable:
            self.eval_rvalue(step, body_out)
        if self.flags.enabled("deepbreak") and not body_out.unreachable:
            # Optional second pass: discovers aliases introduced on the
            # second iteration (the paper notes LCLint misses these).
            if cond is not None:
                second_true, _ = self.eval_condition(cond, body_out)
            else:
                second_true = body_out
            if widen is not None:
                wref, wlo, whi = widen
                second_true.update(wref, lambda s: s.with_range((wlo, whi)))
            self._loop_frames.append(([], []))
            body_out = self.exec_stmt(body, second_true)
            extra_breaks, _ = self._loop_frames.pop()
            breaks = breaks + extra_breaks
            if step is not None and not body_out.unreachable:
                self.eval_rvalue(step, body_out)
        merged, reports = body_out.merge(false_store)
        self._report_merges(reports, loc)
        for brk in breaks:
            merged, reports = merged.merge(brk)
            self._report_merges(reports, loc)
        return merged

    def _exec_dowhile(self, stmt: A.DoWhile, store: Store) -> Store:
        pos = A.position(stmt)
        self._loop_frames.append(([], []))
        body_out = self.exec_stmt(stmt.body, store)
        breaks, continues = self._loop_frames.pop()
        for cont in continues:
            body_out, reports = body_out.merge(cont)
            self._report_merges(reports, pos)
        if not body_out.unreachable:
            _, false_store = self.eval_condition(stmt.cond, body_out)
            body_out = false_store
        for brk in breaks:
            body_out, reports = body_out.merge(brk)
            self._report_merges(reports, pos)
        return body_out

    def _exec_switch(self, stmt: A.Switch, store: Store) -> Store:
        self.eval_rvalue(stmt.cond, store)
        body = stmt.body
        if not isinstance(body, A.Block):
            return self.exec_stmt(body, store)
        self._loop_frames.append(([], []))
        current = store.copy()
        current.unreachable = True  # nothing runs before the first label
        has_default = False
        self._scopes.append({})
        for item in body.items:
            if isinstance(item, A.Case):
                entry = store.copy()
                current, reports = current.merge(entry)  # fallthrough + entry
                self._report_merges(reports, A.position(item))
                if item.value is None:
                    has_default = True
                else:
                    self.eval_rvalue(item.value, current)
                current = self.exec_stmt(item.body, current)
            else:
                current = self.exec_stmt(item, current)
        self._scopes.pop()
        breaks, _ = self._loop_frames.pop()
        result = current
        pos = A.position(stmt)
        for brk in breaks:
            result, reports = result.merge(brk)
            self._report_merges(reports, pos)
        if not has_default:
            result, reports = result.merge(store)
            self._report_merges(reports, pos)
        return result

    def _exec_case(self, stmt: A.Case, store: Store) -> Store:
        # A case label outside a switch body block: just run the statement.
        return self.exec_stmt(stmt.body, store)

    def _exec_break(self, stmt: A.Break, store: Store) -> Store:
        if self._loop_frames:
            self._loop_frames[-1][0].append(store.copy())
        out = store.copy()
        out.unreachable = True
        return out

    def _exec_continue(self, stmt: A.Continue, store: Store) -> Store:
        if self._loop_frames:
            self._loop_frames[-1][1].append(store.copy())
        out = store.copy()
        out.unreachable = True
        return out

    def _exec_return(self, stmt: A.Return, store: Store) -> Store:
        value = None
        if stmt.value is not None:
            value = self.eval_rvalue(stmt.value, store)
        pos = A.position(stmt)
        self._check_all_scope_leaks(store, pos, value)
        self.check_exit(store, pos, value, ret_expr=stmt.value)
        out = store.copy()
        out.unreachable = True
        return out

    def _exec_goto(self, stmt: A.Goto, store: Store) -> Store:
        # No flow-joining for gotos: the paper's analysis is structured.
        out = store.copy()
        out.unreachable = True
        return out

    def _exec_label(self, stmt: A.Label, store: Store) -> Store:
        # A label makes its statement reachable even if flow was cut.
        if store.unreachable:
            store = store.copy()
            store.unreachable = False
        return self.exec_stmt(stmt.body, store)

    # -- conditions ---------------------------------------------------------------

    def eval_condition(self, cond: A.Expr, store: Store) -> tuple[Store, Store]:
        """Evaluate a condition into (true-branch, false-branch) stores."""
        if isinstance(cond, A.Unary) and cond.op == "!":
            t, f = self.eval_condition(cond.operand, store)
            return f, t
        if isinstance(cond, A.Binary) and cond.op == "&&":
            t1, f1 = self.eval_condition(cond.lhs, store)
            t2, f2 = self.eval_condition(cond.rhs, t1)
            false_store, _ = f1.merge(f2)
            return t2, false_store
        if isinstance(cond, A.Binary) and cond.op == "||":
            t1, f1 = self.eval_condition(cond.lhs, store)
            t2, f2 = self.eval_condition(cond.rhs, f1)
            true_store, _ = t1.merge(t2)
            return true_store, f2
        # Leaf: evaluate for effect, then apply guard refinements. The
        # analyzer is made per condition: one the checker kept would
        # hold the checker's bound methods, a reference cycle.
        self.eval_rvalue(cond, store)
        true_facts, false_facts = GuardAnalyzer(
            resolve_ref=lambda expr: self.resolve_ref_quiet(expr, store),
            null_predicate=self._null_predicate,
            const_eval=self._const_int,
        ).split(cond)
        true_store = store.copy()
        false_store = store.copy()
        for ref, null in true_facts.facts.items():
            true_store.update_with_aliases(ref, lambda s, n=null: s.with_null(n))
        for ref, null in false_facts.facts.items():
            false_store.update_with_aliases(ref, lambda s, n=null: s.with_null(n))
        for ref, rng in true_facts.ranges.items():
            true_store.update(
                ref, lambda s, r=rng: s.with_range(intersect_range(s.rng, r))
            )
        for ref, rng in false_facts.ranges.items():
            false_store.update(
                ref, lambda s, r=rng: s.with_range(intersect_range(s.rng, r))
            )
        return true_store, false_store

    # -- merge reporting -------------------------------------------------------------

    def _report_merges(self, reports: list[MergeReport], loc: A.Position) -> None:
        seen: set[Ref] = set()
        for report in reports:
            if report.ref in seen:
                continue
            seen.add(report.ref)
            if report.ref.base.kind not in ("local", "arg", "global"):
                continue
            name = self.describe_ref(report.ref)
            self.reporter.report(
                MessageCode.CONFLUENCE, loc,
                f"Storage {name} has inconsistent states on alternate "
                f"paths: {report.anomaly.left} on one branch, "
                f"{report.anomaly.right} on the other",
            )

    # -- leaks at scope exit -------------------------------------------------------

    def _check_scope_leaks(
        self, scope: dict[str, LocalInfo], store: Store, loc: A.Position,
        ret_value: Value | None = None,
    ) -> None:
        if self.flags.gc_mode:
            return
        excluded: set[Ref] = set()
        if ret_value is not None and ret_value.ref is not None:
            excluded |= store.aliases.closure(ret_value.ref)
        for name, info in scope.items():
            ref = self.local_ref(name)
            if ref in excluded:
                continue
            st = store.peek(ref)
            if st is None:
                continue
            if st.alloc is not AllocState.FRESH:
                continue
            if st.null.definitely_null():
                continue
            if st.definition in (DefState.DEAD, DefState.ERROR):
                continue
            if any(
                alias.base.kind in ("arg", "global")
                for alias in store.aliases.aliases_of(ref)
            ):
                continue  # storage still reachable through external refs
            subs = None
            site = store.sites.get((ref, "fresh"))
            if site is not None:
                subs = [(site, f"Fresh storage {name} allocated")]
            self.reporter.report(
                MessageCode.LEAK_SCOPE, loc,
                f"Fresh storage {name} not released before scope exit "
                f"(memory leak)",
                subs=subs,
            )

    def _check_all_scope_leaks(
        self, store: Store, loc: A.Position, ret_value: Value | None
    ) -> None:
        for scope in self._scopes:
            self._check_scope_leaks(scope, store, loc, ret_value)

    # ------------------------------------------------------------------
    # Exit-point checking
    # ------------------------------------------------------------------

    def check_exit(
        self,
        store: Store,
        loc: A.Position,
        ret_value: Value | None,
        ret_expr: A.Expr | None = None,
    ) -> None:
        if self.sig is not None and ret_value is not None:
            self._check_return_value(store, loc, ret_value, ret_expr)
        self._check_globals_at_exit(store, loc)
        self._check_params_at_exit(store, loc)

    def _check_return_value(
        self,
        store: Store,
        loc: A.Position,
        value: Value,
        ret_expr: A.Expr | None,
    ) -> None:
        sig = self.sig
        assert sig is not None
        ann = self.effective_return_annotations(sig)
        pointer = is_pointerish(sig.ret_type)
        rendered = (
            LazyText(render_expr, ret_expr) if ret_expr is not None else "<return>"
        )

        if pointer and ann.null is None and value.state.null.possibly_null():
            self.reporter.report(
                MessageCode.NULL_RET_VALUE, loc,
                f"Possibly null storage returned as non-null: {rendered}",
                subs=self._site_subs(store, value.ref, "null"),
            )

        # Null storage derivable from the returned reference (Figure 7).
        if value.ref is not None:
            base = value.ref
            for ref in sorted(store.states):
                if not base.is_prefix_of(ref):
                    continue
                st = store.states[ref]
                if not st.null.possibly_null():
                    continue
                ref_ann = self.declared_annotations(ref)
                if ref_ann.null is not None:
                    continue
                ctype = self.ref_type(ref)
                if ctype is None or not is_pointerish(ctype):
                    continue
                name = self.describe_ref(ref)
                site = store.sites.get((ref, "null"))
                subs = [(site, f"Storage {name} becomes null")] if site else None
                self.reporter.report(
                    MessageCode.NULL_RET_VALUE, loc,
                    f"Null storage {name} derivable from return value: "
                    f"{rendered}",
                    subs=subs,
                )

        if ann.definition is not DefAnn.OUT:
            undef = self.find_undefined(value.ref, store)
            if undef is None and value.ref is None and (
                value.state.definition is DefState.ALLOCATED
            ):
                undef = value.ref
            if undef is not None:
                self.reporter.report(
                    MessageCode.INCOMPLETE_DEF, loc,
                    f"Returned storage {rendered} not completely defined "
                    f"({self.describe_ref(undef)} is undefined)",
                )

        if pointer:
            alloc = value.state.alloc
            if ann.alloc in (AllocAnn.ONLY, AllocAnn.OWNED):
                if alloc is AllocState.TEMP:
                    self.reporter.report(
                        MessageCode.BAD_TRANSFER, loc,
                        f"Temp storage returned as {ann.alloc.value}: {rendered}",
                    )
                elif alloc is AllocState.IMPLICIT and not value.null_literal:
                    self.reporter.report(
                        MessageCode.IMPLICIT_TRANSFER, loc,
                        f"Implicitly temp storage returned as "
                        f"{ann.alloc.value}: {rendered}",
                    )
                elif alloc in (AllocState.KEPT, AllocState.DEPENDENT,
                               AllocState.SHARED, AllocState.STATIC):
                    self.reporter.report(
                        MessageCode.BAD_TRANSFER, loc,
                        f"{alloc.value.capitalize()} storage returned as "
                        f"{ann.alloc.value}: {rendered}",
                    )
                elif alloc.holds_obligation() and value.ref is not None:
                    # Obligation leaves through the result.
                    for target in store.aliases.closure(value.ref):
                        store.update(
                            target, lambda s: s.with_alloc(AllocState.KEPT)
                        )
            elif ann.alloc is None and alloc is AllocState.FRESH:
                if not self.flags.gc_mode:
                    self.reporter.report(
                        MessageCode.LEAK_RETURN, loc,
                        f"Fresh storage returned without only qualification "
                        f"(obligation to release is lost): {rendered}",
                    )

    def _check_globals_at_exit(self, store: Store, loc: A.Position) -> None:
        names = set(self.used_globals)
        names.update(
            ref.base.name
            for ref in store.states
            if ref.base.kind == "global"
        )
        killed = {g.name for g in self.fdef.globals_list if g.killed}
        for name in sorted(names):
            gvar = self.global_decl(name)
            if gvar is None:
                continue
            gref = self.global_ref(name)
            st = store.state(gref)
            ann = self._with_typedef(gvar.annotations, gvar.ctype)
            pointer = is_pointerish(gvar.ctype)
            if pointer and ann.null is None and st.null.possibly_null():
                self.reporter.report(
                    MessageCode.NULL_RET_GLOBAL, loc,
                    f"Function returns with non-null global {name} "
                    f"referencing null storage",
                    subs=self._site_subs(store, gref, "null"),
                )
            if (
                st.definition is DefState.DEAD or st.alloc is AllocState.DEAD
            ) and name not in killed:
                self.reporter.report(
                    MessageCode.GLOBAL_RELEASED, loc,
                    f"Global {name} released but not reassigned before "
                    f"function exit",
                    subs=self._site_subs(store, gref, "release"),
                )
                continue
            if st.definition is DefState.UNDEFINED:
                self.reporter.report(
                    MessageCode.GLOBAL_UNDEFINED, loc,
                    f"Global {name} undefined at function exit",
                )
            elif st.definition in (DefState.ALLOCATED, DefState.PARTIAL):
                undef = self.find_undefined(gref, store)
                if undef is not None:
                    self.reporter.report(
                        MessageCode.INCOMPLETE_DEF, loc,
                        f"Global storage {self.describe_ref(undef)} not "
                        f"completely defined at function exit",
                    )

    def _check_params_at_exit(self, store: Store, loc: A.Position) -> None:
        for i, param in enumerate(self.fdef.params):
            if param.name is None:
                continue
            aref = self.arg_ref(i, param.name)
            st = store.state(aref)
            ann = self._with_typedef(param.annotations, param.ctype)
            pointer = is_pointerish(param.ctype)
            if not pointer:
                continue
            if ann.alloc in (AllocAnn.ONLY, AllocAnn.KEEP):
                if st.alloc.holds_obligation() and not st.null.definitely_null():
                    if not self.flags.gc_mode:
                        self.reporter.report(
                            MessageCode.ONLY_NOT_RELEASED, loc,
                            f"Only storage {param.name} not released before "
                            f"return",
                            subs=[(param.location,
                                   f"Storage {param.name} becomes only")],
                        )
                continue
            if st.definition in (DefState.DEAD, DefState.ERROR):
                continue  # released through an alias; reported elsewhere
            if ann.definition in (DefAnn.PARTIAL, DefAnn.RELDEF):
                continue
            undef = self.find_undefined(aref, store)
            if undef is not None:
                self.reporter.report(
                    MessageCode.INCOMPLETE_DEF, loc,
                    f"Storage {self.describe_ref(undef)} reachable from "
                    f"parameter {param.name} is not completely defined at "
                    f"return",
                )


def check_function(ctx: CheckContext, fdef: A.FunctionDef) -> None:
    """Check one function definition, reporting into ``ctx.reporter``."""
    FunctionChecker(ctx, fdef).check()
