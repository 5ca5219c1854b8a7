"""An AST interpreter for the supported C subset, with checked memory.

Together with :mod:`repro.runtime.heap` this forms the dynamic-checking
baseline the paper compares against: it executes the program and reports
the memory errors that *actually occur* on the executed paths, exactly
like dmalloc/Purify instrumentation. Errors on unexecuted paths — the
static checker's home turf — are invisible to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..frontend import cast as A
from ..frontend.arith import ArithmeticFault, binary, unary
from ..frontend.ctypes import (
    Array,
    CType,
    EnumType,
    FunctionType,
    Pointer as PtrType,
    Primitive,
    StructType,
    strip_typedefs,
)
from ..frontend.source import Location
from ..frontend.symtab import SymbolTable
from .heap import (
    NULL,
    UNDEFINED,
    InstrumentedHeap,
    MemObject,
    Pointer,
    RuntimeEvent,
    RuntimeEventKind,
)
from .layout import LayoutError, layout_of, sizeof_ctype

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.api import Checker, ParsedUnit


class InterpreterError(Exception):
    """The program did something the interpreter cannot model."""

    def __init__(self, message: str, location: Location | None = None) -> None:
        where = f"{location}: " if location else ""
        super().__init__(f"{where}{message}")
        self.location = location


class _ExitProgram(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


class _Return(Exception):
    def __init__(self, value) -> None:
        self.value = value


class _Jump(Exception):
    """``break`` or ``continue`` on its way to the enclosing loop."""

    def __init__(self, stmt: A.Stmt) -> None:
        self.stmt = stmt


class _Break(_Jump):
    pass


class _Continue(_Jump):
    pass


class StepBudgetExceeded(Exception):
    pass


@dataclass
class RunResult:
    """Outcome of executing a program under the instrumented heap."""

    exit_code: int
    output: str
    events: list[RuntimeEvent]
    steps: int
    allocations: int
    frees: int
    leaked_blocks: int

    def events_of(self, kind: RuntimeEventKind) -> list[RuntimeEvent]:
        return [e for e in self.events if e.kind is kind]

    def error_kinds(self) -> set[RuntimeEventKind]:
        return {e.kind for e in self.events}

    def render_events(self) -> str:
        return "\n".join(e.render() for e in self.events)


@dataclass
class _StructValue:
    """A struct rvalue: a flat copy of its slots."""

    slots: list = field(default_factory=list)


class Interpreter:
    """Execute one program (a set of translation units)."""

    def __init__(
        self,
        units: list[A.TranslationUnit],
        symtab: SymbolTable,
        enum_consts: dict[str, int] | None = None,
        max_steps: int = 2_000_000,
        max_call_depth: int = 256,
    ) -> None:
        self.units = units
        self.symtab = symtab
        self.enum_consts = dict(enum_consts or {})
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self.heap = InstrumentedHeap()
        self.output: list[str] = []
        self.steps = 0
        self.depth = 0
        self._rand_state = 12345
        self.functions: dict[str, A.FunctionDef] = {}
        self.global_cells: dict[str, Pointer] = {}
        self.global_types: dict[str, CType] = {}
        self._scopes: list[dict[str, Pointer]] = []
        self._type_scopes: list[dict[str, CType]] = []
        self._string_cache: dict[str, Pointer] = {}
        for unit in units:
            for fdef in unit.functions():
                self.functions[fdef.name] = fdef
        try:
            self._init_globals()
        except LayoutError as exc:  # e.g. a struct that contains itself
            raise InterpreterError(str(exc)) from None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _init_globals(self) -> None:
        for unit in self.units:
            for decl in unit.declarations():
                if decl.is_typedef:
                    continue
                for dtor in decl.declarators:
                    actual = strip_typedefs(dtor.ctype)
                    if isinstance(actual, FunctionType):
                        continue
                    if decl.storage == "extern" and dtor.init is None:
                        # tentative: define it anyway (single-program model)
                        pass
                    if dtor.name in self.global_cells:
                        continue
                    lay = layout_of(dtor.ctype)
                    obj = self.heap.new_object(
                        "global", lay.slot_count, lay.byte_size,
                        dtor.location, label=dtor.name,
                        defined=True, fill=0,
                    )
                    self.global_cells[dtor.name] = Pointer(obj, 0)
                    self.global_types[dtor.name] = dtor.ctype
        # initializers run after all cells exist (C has no ordering issues
        # for the constant initializers this subset supports)
        for unit in self.units:
            for decl in unit.declarations():
                if decl.is_typedef:
                    continue
                for dtor in decl.declarators:
                    if dtor.init is None or dtor.name not in self.global_cells:
                        continue
                    ptr = self.global_cells[dtor.name]
                    try:
                        value = self._eval_initializer(dtor.init, dtor.ctype)
                    except _ExitProgram as exc:
                        # Only run() turns an exit into a status.
                        raise InterpreterError(
                            f"program exited ({exc.code}) while "
                            f"initializing {dtor.name!r}", dtor.location,
                        ) from None
                    self._store_value(ptr, value, dtor.ctype, dtor.location)

    def _eval_initializer(self, init: A.Expr, ctype: CType):
        if isinstance(init, A.InitList):
            return _StructValue([self.eval(e) for e in init.items])
        return self.eval(init)

    # ------------------------------------------------------------------
    # program execution
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args: list | None = None) -> RunResult:
        exit_code = 0
        try:
            value = self.call_function(entry, args or [], None)
            if isinstance(value, int):
                exit_code = value
        except _ExitProgram as exc:
            exit_code = exc.code
        except StepBudgetExceeded:
            exit_code = -1
        except LayoutError as exc:
            raise InterpreterError(str(exc)) from None
        leaked = self.heap.report_leaks()
        return RunResult(
            exit_code=exit_code,
            output="".join(self.output),
            events=list(self.heap.events),
            steps=self.steps,
            allocations=self.heap.alloc_count,
            frees=self.heap.free_count,
            leaked_blocks=leaked,
        )

    def call_function(self, name: str, args: list, loc: Location | None):
        builtin = _BUILTINS.get(name)
        if builtin is not None and name not in self.functions:
            return builtin(self, args, loc)
        fdef = self.functions.get(name)
        if fdef is None:
            raise InterpreterError(f"call to undefined function {name!r}", loc)
        if self.depth >= self.max_call_depth:
            raise InterpreterError(f"call depth exceeded in {name!r}", loc)
        self.depth += 1
        frame: dict[str, Pointer] = {}
        frame_types: dict[str, CType] = {}
        for i, param in enumerate(fdef.params):
            if param.name is None:
                continue
            lay = layout_of(param.ctype)
            cell = self.heap.new_object(
                "local", lay.slot_count, lay.byte_size, param.location,
                label=param.name, defined=False,
            )
            value = args[i] if i < len(args) else 0
            self._store_value(Pointer(cell, 0), value, param.ctype, param.location)
            frame[param.name] = Pointer(cell, 0)
            frame_types[param.name] = param.ctype
        self._scopes.append(frame)
        self._type_scopes.append(frame_types)
        try:
            self.exec_stmt(fdef.body)
            result = 0
        except _Return as ret:
            result = ret.value
        except _Jump as jump:
            word = "break" if isinstance(jump, _Break) else "continue"
            raise InterpreterError(
                f"{word} outside a loop", jump.stmt.location
            ) from None
        finally:
            self._scopes.pop()
            self._type_scopes.pop()
            self.depth -= 1
        ftype = strip_typedefs(fdef.ctype)
        assert isinstance(ftype, FunctionType)
        return self._coerce(result, ftype.ret, loc)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _tick(self, loc: Location | None = None) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepBudgetExceeded()

    def exec_stmt(self, stmt: A.Node) -> None:
        self._tick(getattr(stmt, "location", None))
        method = getattr(self, f"_exec_{type(stmt).__name__.lower()}", None)
        if method is None:
            raise InterpreterError(
                f"unsupported statement {type(stmt).__name__}",
                getattr(stmt, "location", None),
            )
        method(stmt)

    def _exec_block(self, stmt: A.Block) -> None:
        self._scopes.append({})
        self._type_scopes.append({})
        try:
            for item in stmt.items:
                self.exec_stmt(item)
        finally:
            self._scopes.pop()
            self._type_scopes.pop()

    def _exec_declaration(self, decl: A.Declaration) -> None:
        for dtor in decl.declarators:
            if dtor.name is None or decl.is_typedef:
                continue
            actual = strip_typedefs(dtor.ctype)
            if isinstance(actual, FunctionType):
                continue
            lay = layout_of(dtor.ctype)
            cell = self.heap.new_object(
                "local", lay.slot_count, lay.byte_size, dtor.location,
                label=dtor.name, defined=(decl.storage == "static"), fill=0,
            )
            self._scopes[-1][dtor.name] = Pointer(cell, 0)
            self._type_scopes[-1][dtor.name] = dtor.ctype
            if dtor.init is not None:
                value = self._eval_initializer(dtor.init, dtor.ctype)
                self._store_value(Pointer(cell, 0), value, dtor.ctype,
                                  dtor.location)

    def _exec_exprstmt(self, stmt: A.ExprStmt) -> None:
        self.eval(stmt.expr)

    def _exec_emptystmt(self, stmt: A.EmptyStmt) -> None:
        pass

    def _exec_if(self, stmt: A.If) -> None:
        if self._truthy(self.eval(stmt.cond)):
            self.exec_stmt(stmt.then)
        elif stmt.orelse is not None:
            self.exec_stmt(stmt.orelse)

    def _exec_while(self, stmt: A.While) -> None:
        while self._truthy(self.eval(stmt.cond)):
            self._tick(stmt.location)
            try:
                self.exec_stmt(stmt.body)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_dowhile(self, stmt: A.DoWhile) -> None:
        while True:
            self._tick(stmt.location)
            try:
                self.exec_stmt(stmt.body)
            except _Break:
                break
            except _Continue:
                pass
            if not self._truthy(self.eval(stmt.cond)):
                break

    def _exec_for(self, stmt: A.For) -> None:
        self._scopes.append({})
        self._type_scopes.append({})
        try:
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while stmt.cond is None or self._truthy(self.eval(stmt.cond)):
                self._tick(stmt.location)
                try:
                    self.exec_stmt(stmt.body)
                except _Break:
                    break
                except _Continue:
                    pass
                if stmt.step is not None:
                    self.eval(stmt.step)
        finally:
            self._scopes.pop()
            self._type_scopes.pop()

    def _exec_switch(self, stmt: A.Switch) -> None:
        value = self.eval(stmt.cond)
        body = stmt.body
        if not isinstance(body, A.Block):
            self.exec_stmt(body)
            return
        # find matching case (or default) index, then execute with
        # fallthrough; empty cases nest ('case 0: case 1: stmt'), so each
        # label chain is walked.
        start: int | None = None
        default_at: int | None = None
        for i, item in enumerate(body.items):
            if isinstance(item, A.Case):
                chain = item
                matched = False
                while isinstance(chain, A.Case):
                    if chain.value is None:
                        if default_at is None:
                            default_at = i
                    elif self.eval(chain.value) == value:
                        matched = True
                        break
                    chain = chain.body
                if matched:
                    start = i
                    break
        if start is None:
            start = default_at
        if start is None:
            return
        try:
            for item in body.items[start:]:
                if isinstance(item, A.Case):
                    self.exec_stmt(item.body)
                else:
                    self.exec_stmt(item)
        except _Break:
            pass

    def _exec_case(self, stmt: A.Case) -> None:
        self.exec_stmt(stmt.body)

    def _exec_break(self, stmt: A.Break) -> None:
        raise _Break(stmt)

    def _exec_continue(self, stmt: A.Continue) -> None:
        raise _Continue(stmt)

    def _exec_return(self, stmt: A.Return) -> None:
        value = self.eval(stmt.value) if stmt.value is not None else 0
        raise _Return(value)

    def _exec_label(self, stmt: A.Label) -> None:
        self.exec_stmt(stmt.body)

    def _exec_goto(self, stmt: A.Goto) -> None:
        raise InterpreterError("goto is not supported by the interpreter",
                               stmt.location)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def eval(self, expr: A.Expr):
        self._tick(expr.location)
        method = getattr(self, f"_eval_{type(expr).__name__.lower()}", None)
        if method is None:
            raise InterpreterError(
                f"unsupported expression {type(expr).__name__}", expr.location
            )
        return method(expr)

    def lvalue(self, expr: A.Expr) -> Pointer:
        """Evaluate an expression to a storage location."""
        if isinstance(expr, A.Ident):
            ptr = self._lookup(expr.name)
            if ptr is None:
                raise InterpreterError(f"unknown variable {expr.name!r}",
                                       expr.location)
            return ptr
        if isinstance(expr, A.Unary) and expr.op == "*":
            target = self.eval(expr.operand)
            return self._as_pointer(target, expr.location)
        if isinstance(expr, A.Member):
            if expr.arrow:
                base_ptr = self._as_pointer(self.eval(expr.obj), expr.location)
                base_type = self._pointee_type(self.type_of(expr.obj))
            else:
                base_ptr = self.lvalue(expr.obj)
                base_type = self.type_of(expr.obj)
            if base_ptr.is_null:
                self.heap.report(
                    RuntimeEventKind.NULL_DEREF, expr.location,
                    f"field access ->{expr.fieldname} through null pointer",
                )
                raise _ExitProgram(139)  # segfault
            lay = layout_of(base_type) if base_type is not None else None
            fld = lay.field(expr.fieldname) if lay is not None else None
            offset = fld.slot if fld is not None else 0
            return Pointer(base_ptr.obj, base_ptr.slot + offset)
        if isinstance(expr, A.Index):
            base = self.eval(expr.array)
            index = self.eval(expr.index)
            ptr = self._as_pointer(base, expr.location, allow_array=expr.array)
            elem = self._pointee_type(self.type_of(expr.array))
            stride = layout_of(elem).slot_count if elem is not None else 1
            if ptr.is_null:
                self.heap.report(
                    RuntimeEventKind.NULL_DEREF, expr.location,
                    "index through null pointer",
                )
                raise _ExitProgram(139)
            return Pointer(ptr.obj, ptr.slot + int(index) * stride)
        if isinstance(expr, A.Cast):
            return self.lvalue(expr.operand)
        raise InterpreterError(
            f"expression is not an lvalue: {type(expr).__name__}", expr.location
        )

    # -- leaf expressions ---------------------------------------------------

    def _eval_intlit(self, expr: A.IntLit):
        return expr.value

    def _eval_floatlit(self, expr: A.FloatLit):
        return expr.value

    def _eval_charlit(self, expr: A.CharLit):
        return expr.value

    def _eval_stringlit(self, expr: A.StringLit) -> Pointer:
        cached = self._string_cache.get(expr.value)
        if cached is not None:
            return cached
        data = [ord(c) for c in expr.value] + [0]
        obj = self.heap.new_object(
            "static", len(data), len(data), expr.location,
            label=f'"{expr.value[:12]}"', defined=True,
        )
        obj.slots = data
        ptr = Pointer(obj, 0)
        self._string_cache[expr.value] = ptr
        return ptr

    def _eval_ident(self, expr: A.Ident):
        if expr.name in self.enum_consts:
            return self.enum_consts[expr.name]
        ptr = self._lookup(expr.name)
        if ptr is None:
            if expr.name in self.functions or expr.name in _BUILTINS:
                return expr.name  # function designator
            raise InterpreterError(f"unknown identifier {expr.name!r}",
                                   expr.location)
        ctype = self.type_of(expr)
        actual = strip_typedefs(ctype) if ctype is not None else None
        if isinstance(actual, Array):
            return Pointer(ptr.obj, ptr.slot)  # array decays to pointer
        if isinstance(actual, StructType):
            lay = layout_of(actual)
            assert ptr.obj is not None
            return _StructValue(
                list(ptr.obj.slots[ptr.slot : ptr.slot + lay.slot_count])
            )
        return self.heap.load(ptr, expr.location, expr.name)

    # -- operators ------------------------------------------------------------

    def _eval_unary(self, expr: A.Unary):
        op = expr.op
        if op == "*":
            ptr = self._as_pointer(self.eval(expr.operand), expr.location)
            if ptr.is_null:
                self.heap.report(RuntimeEventKind.NULL_DEREF, expr.location,
                                 "dereference of null pointer")
                raise _ExitProgram(139)
            pointee = self._pointee_type(self.type_of(expr.operand))
            actual = strip_typedefs(pointee) if pointee is not None else None
            if isinstance(actual, StructType):
                lay = layout_of(actual)
                assert ptr.obj is not None
                return _StructValue(
                    list(ptr.obj.slots[ptr.slot : ptr.slot + lay.slot_count])
                )
            return self.heap.load(ptr, expr.location)
        if op == "&":
            return self.lvalue(expr.operand)
        if op == "!":
            return 0 if self._truthy(self.eval(expr.operand)) else 1
        if op in ("-", "+", "~"):
            value = self.eval(expr.operand)
            if not isinstance(value, (int, float)):
                raise InterpreterError(
                    f"non-arithmetic operand of unary {op!r}", expr.location
                )
            return unary(op, value)
        if op in ("++", "--", "p++", "p--"):
            ptr = self.lvalue(expr.operand)
            old = self._scalar(self.heap.load(ptr, expr.location), op, expr)
            delta = 1 if "+" in op else -1
            if isinstance(old, Pointer):
                elem = self._pointee_type(self.type_of(expr.operand))
                stride = layout_of(elem).slot_count if elem is not None else 1
                new = Pointer(old.obj, old.slot + delta * stride)
            else:
                new = old + delta
            self.heap.store(ptr, new, expr.location)
            return old if op.startswith("p") else new
        raise InterpreterError(f"unsupported unary {op!r}", expr.location)

    def _eval_binary(self, expr: A.Binary):
        op = expr.op
        if op == "&&":
            return (
                1
                if self._truthy(self.eval(expr.lhs))
                and self._truthy(self.eval(expr.rhs))
                else 0
            )
        if op == "||":
            return (
                1
                if self._truthy(self.eval(expr.lhs))
                or self._truthy(self.eval(expr.rhs))
                else 0
            )
        return self._operate(expr, self.eval(expr.lhs), self.eval(expr.rhs))

    def _operate(self, expr: A.Binary, lhs, rhs):
        """``lhs op rhs`` on evaluated operands: the one path of both
        ``x op y`` and ``x op= y``."""
        op = expr.op
        lhs = self._scalar(lhs, op, expr)
        rhs = self._scalar(rhs, op, expr)
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            return self._pointer_binary(op, lhs, rhs, expr)
        try:
            return binary(op, lhs, rhs)
        except ArithmeticFault as fault:
            if op == "/" or op == "%":
                raise _ExitProgram(136) from None  # SIGFPE
            raise InterpreterError(
                f"{fault} in {op!r}", expr.location
            ) from None

    def _pointer_binary(self, op: str, lhs, rhs, expr: A.Binary):
        def key(v):
            if isinstance(v, Pointer):
                return (id(v.obj) if v.obj is not None else 0, v.slot)
            return (0, v)

        if op in ("==", "!="):
            same = key(lhs) == key(rhs)
            if isinstance(lhs, int) and lhs == 0:
                same = isinstance(rhs, Pointer) and rhs.is_null
            if isinstance(rhs, int) and rhs == 0:
                same = isinstance(lhs, Pointer) and lhs.is_null
            return 1 if (same if op == "==" else not same) else 0
        if op in ("<", ">", "<=", ">="):
            return binary(op, key(lhs), key(rhs))
        if op in ("+", "-"):
            ptr, offset = (lhs, rhs) if isinstance(lhs, Pointer) else (rhs, lhs)
            if isinstance(lhs, Pointer) and isinstance(rhs, Pointer):
                if op == "-":
                    return lhs.slot - rhs.slot
                raise InterpreterError("pointer + pointer", expr.location)
            side = expr.lhs if isinstance(lhs, Pointer) else expr.rhs
            elem = self._pointee_type(self.type_of(side))
            stride = layout_of(elem).slot_count if elem is not None else 1
            delta = int(offset) * stride
            if op == "-":
                delta = -delta
            if ptr.is_null:
                return ptr
            return Pointer(ptr.obj, ptr.slot + delta)
        raise InterpreterError(f"unsupported pointer operation {op!r}",
                               expr.location)

    def _eval_assign(self, expr: A.Assign):
        if expr.op == "=":
            value = self.eval(expr.value)
            ptr = self.lvalue(expr.target)
            ctype = self.type_of(expr.target)
            return self._store_value(ptr, value, ctype, expr.location)
        # compound assignment: x op= y computes as x op y
        ptr = self.lvalue(expr.target)
        old = self.heap.load(ptr, expr.location)
        operation = A.Binary(expr.location, op=expr.op[:-1],
                             lhs=expr.target, rhs=expr.value)
        new = self._operate(operation, old, self.eval(expr.value))
        self.heap.store(ptr, new, expr.location)
        return new

    def _eval_ternary(self, expr: A.Ternary):
        if self._truthy(self.eval(expr.cond)):
            return self.eval(expr.then)
        return self.eval(expr.other)

    def _eval_comma(self, expr: A.Comma):
        value = 0
        for item in expr.exprs:
            value = self.eval(item)
        return value

    def _eval_cast(self, expr: A.Cast):
        value = self.eval(expr.operand)
        return self._coerce(value, expr.to_type, expr.location)

    def _eval_sizeofexpr(self, expr: A.SizeofExpr):
        ctype = self.type_of(expr.operand)
        return sizeof_ctype(ctype) if ctype is not None else 8

    def _eval_sizeoftype(self, expr: A.SizeofType):
        return sizeof_ctype(expr.of_type)

    def _eval_member(self, expr: A.Member):
        ptr = self.lvalue(expr)
        ctype = self.type_of(expr)
        actual = strip_typedefs(ctype) if ctype is not None else None
        if isinstance(actual, StructType):
            lay = layout_of(actual)
            assert ptr.obj is not None
            return _StructValue(
                list(ptr.obj.slots[ptr.slot : ptr.slot + lay.slot_count])
            )
        if isinstance(actual, Array):
            return Pointer(ptr.obj, ptr.slot)
        return self.heap.load(ptr, expr.location, expr.fieldname)

    def _eval_index(self, expr: A.Index):
        ptr = self.lvalue(expr)
        ctype = self.type_of(expr)
        actual = strip_typedefs(ctype) if ctype is not None else None
        if isinstance(actual, StructType):
            lay = layout_of(actual)
            assert ptr.obj is not None
            return _StructValue(
                list(ptr.obj.slots[ptr.slot : ptr.slot + lay.slot_count])
            )
        if isinstance(actual, Array):
            return Pointer(ptr.obj, ptr.slot)
        return self.heap.load(ptr, expr.location)

    def _eval_call(self, expr: A.Call):
        if isinstance(expr.func, A.Ident):
            name = expr.func.name
            if name not in self.functions and name not in _BUILTINS:
                # maybe a function-pointer variable holding a designator
                cell = self._lookup(name)
                if cell is not None:
                    held = self.heap.load(cell, expr.location, name)
                    if isinstance(held, str):
                        name = held
        else:
            name = self.eval(expr.func)
            if isinstance(name, Pointer):
                raise InterpreterError("call through data pointer",
                                       expr.location)
        args = [self.eval(a) for a in expr.args]
        # Coerce arguments to the declared parameter types so that raw
        # malloc blocks passed directly to typed parameters get typed.
        sig = self.symtab.function(name) if isinstance(name, str) else None
        if sig is not None:
            coerced = []
            for i, arg in enumerate(args):
                if i < len(sig.params):
                    coerced.append(
                        self._coerce(arg, sig.params[i].ctype, expr.location)
                    )
                else:
                    coerced.append(arg)
            args = coerced
        return self.call_function(name, args, expr.location)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _lookup(self, name: str) -> Pointer | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return self.global_cells.get(name)

    def _lookup_type(self, name: str) -> CType | None:
        for scope in reversed(self._type_scopes):
            if name in scope:
                return scope[name]
        return self.global_types.get(name)

    def _scalar(self, value, op: str, expr: A.Expr):
        """*value* as an operand of *op*. A struct has no scalar value,
        so C rejects it under every arithmetic, shift, bitwise and
        comparison operator; so does the interpreter. A function
        designator may only be compared for equality."""
        if isinstance(value, _StructValue):
            raise InterpreterError(
                f"struct operand of {op!r}", expr.location
            )
        if isinstance(value, str) and op != "==" and op != "!=":
            raise InterpreterError(
                f"function operand of {op!r}", expr.location
            )
        return value

    def _truthy(self, value) -> bool:
        if isinstance(value, Pointer):
            return not value.is_null
        if isinstance(value, _StructValue):
            return True
        if value is UNDEFINED:
            return False
        return bool(value)

    def _as_pointer(self, value, loc: Location | None,
                    allow_array: A.Expr | None = None) -> Pointer:
        if isinstance(value, Pointer):
            return value
        if isinstance(value, int) and value == 0:
            return NULL
        raise InterpreterError(f"expected a pointer, got {value!r}", loc)

    def _pointee_type(self, ctype: CType | None) -> CType | None:
        if ctype is None:
            return None
        actual = strip_typedefs(ctype)
        if isinstance(actual, (PtrType, Array)):
            return actual.pointee()
        return None

    def _store_value(self, ptr: Pointer, value, ctype: CType | None,
                     loc: Location | None):
        value = self._coerce(value, ctype, loc) if ctype is not None else value
        if isinstance(value, _StructValue):
            assert ptr.obj is not None
            for i, slot_value in enumerate(value.slots):
                self.heap.store(Pointer(ptr.obj, ptr.slot + i), slot_value, loc)
            return value
        self.heap.store(ptr, value, loc)
        return value

    def _coerce(self, value, ctype: CType | None, loc: Location | None):
        if ctype is None:
            return value
        actual = strip_typedefs(ctype)
        if isinstance(actual, PtrType):
            if isinstance(value, int) and value == 0:
                return NULL
            if isinstance(value, Pointer):
                self._maybe_retype(value, actual.pointee())
                return value
            return value
        if isinstance(actual, Primitive) and actual.name == "char":
            if isinstance(value, int):
                return value & 0xFF if value >= 0 else value
        if isinstance(actual, Primitive) and actual.is_integral:
            if isinstance(value, float):
                return int(value)
        return value

    def _maybe_retype(self, ptr: Pointer, target: CType | None) -> None:
        """Type a raw malloc block the first time it is used as a T*."""
        obj = ptr.obj
        if obj is None or target is None or ptr.slot != 0:
            return
        if not getattr(obj, "_raw", False):
            return
        lay = layout_of(target)
        actual = strip_typedefs(target)
        if isinstance(actual, Primitive) and actual.is_void:
            return
        count = max(1, obj.byte_size // max(lay.byte_size, 1))
        fill = 0 if getattr(obj, "_zeroed", False) else UNDEFINED
        obj.slots = [fill] * (count * lay.slot_count)
        obj._raw = False  # type: ignore[attr-defined]

    # -- expression typing (static types drive layout decisions) -----------

    def type_of(self, expr: A.Expr) -> CType | None:
        if isinstance(expr, A.Ident):
            found = self._lookup_type(expr.name)
            if found is not None:
                return found
            sig = self.symtab.function(expr.name)
            if sig is not None:
                return sig.ret_type
            gvar = self.symtab.global_var(expr.name)
            return gvar.ctype if gvar is not None else None
        if isinstance(expr, A.Cast):
            return expr.to_type
        if isinstance(expr, A.Unary):
            if expr.op == "*":
                return self._pointee_type(self.type_of(expr.operand))
            if expr.op == "&":
                inner = self.type_of(expr.operand)
                return PtrType(inner) if inner is not None else None
            return self.type_of(expr.operand)
        if isinstance(expr, A.Member):
            base = self.type_of(expr.obj)
            if base is None:
                return None
            target = self._pointee_type(base) if expr.arrow else base
            if target is None:
                return None
            actual = strip_typedefs(target)
            if isinstance(actual, StructType):
                fld = actual.field_named(expr.fieldname)
                return fld.ctype if fld is not None else None
            return None
        if isinstance(expr, A.Index):
            return self._pointee_type(self.type_of(expr.array))
        if isinstance(expr, A.Call):
            if isinstance(expr.func, A.Ident):
                sig = self.symtab.function(expr.func.name)
                if sig is not None:
                    return sig.ret_type
            return None
        if isinstance(expr, A.Assign):
            return self.type_of(expr.target)
        if isinstance(expr, A.Ternary):
            return self.type_of(expr.then) or self.type_of(expr.other)
        if isinstance(expr, A.Binary):
            lhs = self.type_of(expr.lhs)
            rhs = self.type_of(expr.rhs)
            from ..frontend.ctypes import is_pointerish

            if lhs is not None and is_pointerish(lhs):
                return lhs
            if rhs is not None and is_pointerish(rhs):
                return rhs
            return lhs or rhs
        if isinstance(expr, A.StringLit):
            return PtrType(Primitive("char"))
        if isinstance(expr, (A.IntLit, A.CharLit, A.SizeofExpr, A.SizeofType)):
            return Primitive("int")
        if isinstance(expr, A.FloatLit):
            return Primitive("double")
        if isinstance(expr, A.Comma) and expr.exprs:
            return self.type_of(expr.exprs[-1])
        return None

    # -- string helpers for builtins -------------------------------------------

    def read_c_string(self, ptr: Pointer, loc: Location | None,
                      limit: int = 65536) -> str:
        chars: list[str] = []
        cur = ptr
        for _ in range(limit):
            value = self.heap.load(cur, loc, "string")
            if not isinstance(value, int) or value == 0:
                break
            chars.append(chr(value & 0x10FFFF))
            cur = Pointer(cur.obj, cur.slot + 1)
        return "".join(chars)


# ---------------------------------------------------------------------------
# builtin (standard library) models
# ---------------------------------------------------------------------------


def _size_arg(args, i: int, default: int, loc) -> int:
    """Argument *i* of an allocation model as a byte count. A pointer
    there (``malloc NULL``: ``NULL`` expands to a parenthesized pointer)
    is a program the interpreter cannot model."""
    if i >= len(args):
        return default
    value = args[i]
    if isinstance(value, (int, float)):
        return int(value)
    raise InterpreterError(f"expected a size, got {value!r}", loc)


def _bi_malloc(interp: Interpreter, args, loc):
    size = _size_arg(args, 0, 0, loc)
    obj = interp.heap.new_object("heap", max(size, 1), max(size, 1), loc,
                                 label="malloc")
    obj._raw = True  # type: ignore[attr-defined]
    return Pointer(obj, 0)


def _bi_calloc(interp: Interpreter, args, loc):
    n = _size_arg(args, 0, 0, loc)
    size = _size_arg(args, 1, 1, loc)
    total = max(n * size, 1)
    obj = interp.heap.new_object("heap", total, total, loc, label="calloc",
                                 defined=True, fill=0)
    obj._raw = True  # type: ignore[attr-defined]
    obj._zeroed = True  # type: ignore[attr-defined]
    return Pointer(obj, 0)


def _bi_free(interp: Interpreter, args, loc):
    ptr = args[0] if args else NULL
    if isinstance(ptr, int) and ptr == 0:
        ptr = NULL
    if not isinstance(ptr, Pointer):
        interp.heap.report(RuntimeEventKind.INVALID_FREE, loc,
                           f"free of non-pointer value {ptr!r}")
        return 0
    interp.heap.free(ptr, loc)
    return 0


def _bi_realloc(interp: Interpreter, args, loc):
    ptr = args[0] if args else NULL
    size = _size_arg(args, 1, 0, loc)
    new = _bi_malloc(interp, [size], loc)
    if isinstance(ptr, Pointer) and not ptr.is_null and ptr.obj is not None:
        old = ptr.obj
        assert new.obj is not None
        keep = min(len(old.slots), len(new.obj.slots))
        new.obj.slots[:keep] = old.slots[:keep]
        new.obj._raw = getattr(old, "_raw", False)  # type: ignore[attr-defined]
        interp.heap.free(ptr, loc)
    return new


def _bi_exit(interp: Interpreter, args, loc):
    raise _ExitProgram(int(args[0]) if args else 0)


def _bi_abort(interp: Interpreter, args, loc):
    raise _ExitProgram(134)


def _bi_assert(interp: Interpreter, args, loc):
    if args and not interp._truthy(args[0]):
        interp.output.append("assertion failed\n")
        raise _ExitProgram(134)
    return 0


def _bi_strlen(interp: Interpreter, args, loc):
    return len(interp.read_c_string(args[0], loc))


def _bi_strcpy(interp: Interpreter, args, loc):
    dst, src = args[0], args[1]
    i = 0
    while True:
        ch = interp.heap.load(Pointer(src.obj, src.slot + i), loc, "strcpy src")
        interp.heap.store(Pointer(dst.obj, dst.slot + i), ch, loc, "strcpy dst")
        if not isinstance(ch, int) or ch == 0:
            break
        i += 1
        if i > 65536:
            break
    return dst


def _bi_strncpy(interp: Interpreter, args, loc):
    dst, src, n = args[0], args[1], int(args[2])
    done = False
    for i in range(n):
        ch = 0 if done else interp.heap.load(
            Pointer(src.obj, src.slot + i), loc, "strncpy src"
        )
        if ch == 0:
            done = True
        interp.heap.store(Pointer(dst.obj, dst.slot + i), ch if not done else 0,
                          loc, "strncpy dst")
    return dst


def _bi_strcmp(interp: Interpreter, args, loc):
    a = interp.read_c_string(args[0], loc)
    b = interp.read_c_string(args[1], loc)
    return 0 if a == b else (-1 if a < b else 1)


def _bi_strncmp(interp: Interpreter, args, loc):
    n = int(args[2])
    a = interp.read_c_string(args[0], loc)[:n]
    b = interp.read_c_string(args[1], loc)[:n]
    return 0 if a == b else (-1 if a < b else 1)


def _bi_strcat(interp: Interpreter, args, loc):
    dst, src = args[0], args[1]
    offset = len(interp.read_c_string(dst, loc))
    shifted = Pointer(dst.obj, dst.slot + offset)
    _bi_strcpy(interp, [shifted, src], loc)
    return dst


def _bi_strchr(interp: Interpreter, args, loc):
    text = interp.read_c_string(args[0], loc)
    target = chr(int(args[1]) & 0xFF)
    idx = text.find(target)
    if idx < 0:
        return NULL
    base = args[0]
    return Pointer(base.obj, base.slot + idx)


def _bi_memset(interp: Interpreter, args, loc):
    ptr, value, n = args[0], int(args[1]), int(args[2])
    if isinstance(ptr, Pointer) and ptr.obj is not None:
        count = min(n, len(ptr.obj.slots) - ptr.slot)
        for i in range(max(count, 0)):
            interp.heap.store(Pointer(ptr.obj, ptr.slot + i), value, loc)
    return ptr


def _bi_memcpy(interp: Interpreter, args, loc):
    dst, src, n = args[0], args[1], int(args[2])
    if isinstance(dst, Pointer) and isinstance(src, Pointer) and dst.obj and src.obj:
        count = min(n, len(src.obj.slots) - src.slot,
                    len(dst.obj.slots) - dst.slot)
        for i in range(max(count, 0)):
            value = interp.heap.load(Pointer(src.obj, src.slot + i), loc)
            interp.heap.store(Pointer(dst.obj, dst.slot + i), value, loc)
    return dst


def _format_printf(interp: Interpreter, fmt: str, args: list, loc) -> str:
    out: list[str] = []
    i = 0
    argi = 0

    def next_arg():
        nonlocal argi
        value = args[argi] if argi < len(args) else 0
        argi += 1
        return value

    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        # skip flags/width/length
        while i < len(fmt) and fmt[i] in "-+ 0123456789.lhz":
            i += 1
        if i >= len(fmt):
            break
        conv = fmt[i]
        i += 1
        if conv == "%":
            out.append("%")
        elif conv in "di":
            out.append(str(int(next_arg())))
        elif conv == "u":
            out.append(str(int(next_arg())))
        elif conv == "c":
            out.append(chr(int(next_arg()) & 0x10FFFF))
        elif conv == "s":
            value = next_arg()
            out.append(
                interp.read_c_string(value, loc)
                if isinstance(value, Pointer)
                else str(value)
            )
        elif conv in "fge":
            out.append(f"{float(next_arg()):g}")
        elif conv in "xX":
            out.append(format(int(next_arg()), conv))
        elif conv == "p":
            out.append(repr(next_arg()))
        else:
            out.append(conv)
    return "".join(out)


def _bi_printf(interp: Interpreter, args, loc):
    fmt = interp.read_c_string(args[0], loc) if args else ""
    text = _format_printf(interp, fmt, args[1:], loc)
    interp.output.append(text)
    return len(text)


def _bi_fprintf(interp: Interpreter, args, loc):
    fmt = interp.read_c_string(args[1], loc) if len(args) > 1 else ""
    text = _format_printf(interp, fmt, args[2:], loc)
    interp.output.append(text)
    return len(text)


def _bi_sprintf(interp: Interpreter, args, loc):
    dst = args[0]
    fmt = interp.read_c_string(args[1], loc) if len(args) > 1 else ""
    text = _format_printf(interp, fmt, args[2:], loc)
    for i, ch in enumerate(text):
        interp.heap.store(Pointer(dst.obj, dst.slot + i), ord(ch), loc)
    interp.heap.store(Pointer(dst.obj, dst.slot + len(text)), 0, loc)
    return len(text)


def _bi_puts(interp: Interpreter, args, loc):
    text = interp.read_c_string(args[0], loc) if args else ""
    interp.output.append(text + "\n")
    return 0


def _bi_putchar(interp: Interpreter, args, loc):
    interp.output.append(chr(int(args[0]) & 0x10FFFF))
    return int(args[0])


def _bi_rand(interp: Interpreter, args, loc):
    interp._rand_state = (interp._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
    return interp._rand_state % 32768


def _bi_srand(interp: Interpreter, args, loc):
    interp._rand_state = int(args[0]) if args else 0
    return 0


def _bi_atoi(interp: Interpreter, args, loc):
    text = interp.read_c_string(args[0], loc).strip()
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    digits = ""
    for ch in text:
        if not ch.isdigit():
            break
        digits += ch
    return sign * int(digits) if digits else 0


def _bi_abs(interp: Interpreter, args, loc):
    return abs(int(args[0])) if args else 0


def _bi_memcmp(interp: Interpreter, args, loc):
    a, b, n = args[0], args[1], int(args[2])
    for i in range(n):
        va = interp.heap.load(Pointer(a.obj, a.slot + i), loc, "memcmp")
        vb = interp.heap.load(Pointer(b.obj, b.slot + i), loc, "memcmp")
        if va != vb:
            return -1 if va < vb else 1
    return 0


def _bi_strrchr(interp: Interpreter, args, loc):
    text = interp.read_c_string(args[0], loc)
    target = chr(int(args[1]) & 0xFF)
    idx = text.rfind(target)
    if idx < 0:
        return NULL
    base = args[0]
    return Pointer(base.obj, base.slot + idx)


def _bi_strstr(interp: Interpreter, args, loc):
    hay = interp.read_c_string(args[0], loc)
    needle = interp.read_c_string(args[1], loc)
    idx = hay.find(needle)
    if idx < 0:
        return NULL
    base = args[0]
    return Pointer(base.obj, base.slot + idx)


def _bi_isalpha(interp: Interpreter, args, loc):
    return 1 if chr(int(args[0]) & 0x10FFFF).isalpha() else 0


def _bi_isdigit(interp: Interpreter, args, loc):
    return 1 if chr(int(args[0]) & 0x10FFFF).isdigit() else 0


def _bi_isspace(interp: Interpreter, args, loc):
    return 1 if chr(int(args[0]) & 0x10FFFF).isspace() else 0


def _bi_isupper(interp: Interpreter, args, loc):
    return 1 if chr(int(args[0]) & 0x10FFFF).isupper() else 0


def _bi_islower(interp: Interpreter, args, loc):
    return 1 if chr(int(args[0]) & 0x10FFFF).islower() else 0


def _bi_toupper(interp: Interpreter, args, loc):
    return ord(chr(int(args[0]) & 0x10FFFF).upper()[:1] or "\0")


def _bi_tolower(interp: Interpreter, args, loc):
    return ord(chr(int(args[0]) & 0x10FFFF).lower()[:1] or "\0")


_BUILTINS = {
    "malloc": _bi_malloc,
    "calloc": _bi_calloc,
    "realloc": _bi_realloc,
    "free": _bi_free,
    "exit": _bi_exit,
    "abort": _bi_abort,
    "assert": _bi_assert,
    "strlen": _bi_strlen,
    "strcpy": _bi_strcpy,
    "strncpy": _bi_strncpy,
    "strcmp": _bi_strcmp,
    "strncmp": _bi_strncmp,
    "strcat": _bi_strcat,
    "strchr": _bi_strchr,
    "memset": _bi_memset,
    "memcpy": _bi_memcpy,
    "printf": _bi_printf,
    "fprintf": _bi_fprintf,
    "sprintf": _bi_sprintf,
    "puts": _bi_puts,
    "putchar": _bi_putchar,
    "rand": _bi_rand,
    "srand": _bi_srand,
    "atoi": _bi_atoi,
    "abs": _bi_abs,
    "labs": _bi_abs,
    "memcmp": _bi_memcmp,
    "strrchr": _bi_strrchr,
    "strstr": _bi_strstr,
    "isalpha": _bi_isalpha,
    "isdigit": _bi_isdigit,
    "isspace": _bi_isspace,
    "isupper": _bi_isupper,
    "islower": _bi_islower,
    "toupper": _bi_toupper,
    "tolower": _bi_tolower,
}


@dataclass
class LoadedProgram:
    """A C program parsed once, for any number of runs (and, in the
    difftest runner, for the static check too)."""

    #: The checker that parsed it; its ``sources`` hold the headers.
    checker: Checker
    parsed: list[ParsedUnit]
    units: list[A.TranslationUnit]
    symtab: SymbolTable
    enum_consts: dict[str, int]

    def interpreter(self, **options) -> Interpreter:
        """A fresh interpreter over the shared ASTs."""
        return Interpreter(self.units, self.symtab, self.enum_consts, **options)


def load_program(source: str | dict[str, str], flags=None) -> LoadedProgram:
    """Parse a C program through the checker's frontend.

    ``source`` is either one translation unit's text or a dict of named
    files: the ``.h`` files resolve ``#include`` and the rest are the
    units, in the dict's order.
    """
    from ..core.api import Checker

    files = {"<program>": source} if isinstance(source, str) else source
    checker = Checker(flags=flags)
    for name, text in files.items():
        if name.endswith(".h"):
            checker.sources.add(name, text)
    parsed = [
        checker.parse_unit(text, name)
        for name, text in files.items()
        if not name.endswith(".h")
    ]
    symtab = SymbolTable()
    enum_consts: dict[str, int] = {}
    for pu in parsed:
        symtab.add_unit(pu.unit)
        enum_consts.update(pu.enum_consts)
    return LoadedProgram(
        checker, parsed, [pu.unit for pu in parsed], symtab, enum_consts
    )


def run_program(
    source: str | dict[str, str],
    entry: str = "main",
    max_steps: int = 2_000_000,
    flags=None,
) -> RunResult:
    """Parse (:func:`load_program`) and execute a C program under the
    instrumented heap. The program's annotations are ignored at run
    time — this baseline sees only executions.
    """
    program = load_program(source, flags)
    return program.interpreter(max_steps=max_steps).run(entry)
