"""Null-guard recognition (paper section 4, Figures 2 and 3).

"Code can check that a possibly-null pointer is not null by using a
simple comparison (e.g., ``x != NULL``) or a function call" annotated
``truenull`` (returns true iff the argument is null) or ``falsenull``
(returns true only if the argument is not null).

:meth:`GuardAnalyzer.split` produces the per-branch refinements for a
condition expression that is not a ``!``, ``&&`` or ``||`` (the
checker splits those itself, in ``FunctionChecker.eval_condition``):
comparisons against NULL, bare pointer tests, truenull/falsenull
predicates, and integer comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import cast as A
from .states import NullState, intersect_range
from .storage import Ref


@dataclass
class GuardFacts:
    """Refinements to apply on one branch of a condition.

    ``facts`` carries null-state refinements (the paper's guards);
    ``ranges`` carries integer interval refinements (``i < n`` facts) for
    the out-of-bounds checker.
    """

    facts: dict[Ref, NullState] = field(default_factory=dict)
    ranges: dict[Ref, tuple[int | None, int | None]] = field(default_factory=dict)

    def add(self, ref: Ref, state: NullState) -> None:
        existing = self.facts.get(ref)
        if existing is None or state is NullState.NOTNULL:
            self.facts[ref] = state

    def add_range(self, ref: Ref, rng: tuple[int | None, int | None]) -> None:
        existing = self.ranges.get(ref)
        merged = intersect_range(existing, rng)
        if merged is not None:
            self.ranges[ref] = merged


def strip_assignments(expr: A.Expr) -> A.Expr:
    """The value of ``(p = e)`` is whatever ``p`` now holds: a guard on
    an assignment expression refines the assignment's *target*. This is
    the ``if ((s = malloc(n)) == NULL)`` idiom."""
    while isinstance(expr, A.Assign) and expr.op == "=":
        expr = expr.target
    return expr


def is_null_literal(expr: A.Expr) -> bool:
    """Recognize NULL: literal 0, '\\0', or a cast of one to a pointer."""
    if isinstance(expr, A.IntLit):
        return expr.value == 0
    if isinstance(expr, A.CharLit):
        return expr.value == 0
    if isinstance(expr, A.Cast):
        return is_null_literal(expr.operand)
    return False


class GuardAnalyzer:
    """Computes (true-branch, false-branch) refinements for a condition.

    The analyzer needs two capabilities from its host checker: resolving
    an expression to a reference, and recognizing truenull/falsenull
    predicate calls. Both are passed in as callables so this module stays
    free of checker dependencies.
    """

    def __init__(self, resolve_ref, null_predicate, const_eval=None) -> None:
        self._resolve_ref = resolve_ref        # (expr) -> Ref | None
        self._null_predicate = null_predicate  # (name) -> 'truenull'|'falsenull'|None
        self._const_eval = const_eval          # (expr) -> int | None

    def _resolve(self, expr: A.Expr) -> Ref | None:
        return self._resolve_ref(strip_assignments(expr))

    def split(self, expr: A.Expr) -> tuple[GuardFacts, GuardFacts]:
        """The facts each branch of the leaf condition *expr* learns."""
        true_facts = GuardFacts()
        false_facts = GuardFacts()
        if isinstance(expr, A.Binary) and expr.op in ("<", "<=", ">", ">="):
            self._relational(expr, true_facts, false_facts)
            return true_facts, false_facts

        if isinstance(expr, A.Binary) and expr.op in ("==", "!="):
            ptr_side: A.Expr | None = None
            if is_null_literal(expr.rhs):
                ptr_side = expr.lhs
            elif is_null_literal(expr.lhs):
                ptr_side = expr.rhs
            if ptr_side is not None:
                ref = self._resolve(ptr_side)
                if ref is not None:
                    if expr.op == "==":  # (p == NULL): true => null
                        true_facts.add(ref, NullState.ISNULL)
                        false_facts.add(ref, NullState.NOTNULL)
                    else:  # (p != NULL): true => not null
                        true_facts.add(ref, NullState.NOTNULL)
                        false_facts.add(ref, NullState.ISNULL)
            ref_const = self._ref_vs_const(expr)
            if ref_const is not None:
                ref, const = ref_const
                if expr.op == "==":  # (i == c): true => i is exactly c
                    true_facts.add_range(ref, (const, const))
                else:                # (i != c): false => i is exactly c
                    false_facts.add_range(ref, (const, const))
            return true_facts, false_facts

        if isinstance(expr, A.Call) and isinstance(expr.func, A.Ident) and expr.args:
            kind = self._null_predicate(expr.func.name)
            ref = self._resolve(expr.args[0])
            if kind is not None and ref is not None:
                if kind == "truenull":  # returns true iff argument is null
                    true_facts.add(ref, NullState.ISNULL)
                    false_facts.add(ref, NullState.NOTNULL)
                else:  # falsenull: returns true only if argument is not null
                    true_facts.add(ref, NullState.NOTNULL)
            return true_facts, false_facts

        # Bare expression used as a truth value: 'if (p)'.
        ref = self._resolve(expr)
        if ref is not None:
            true_facts.add(ref, NullState.NOTNULL)
            false_facts.add(ref, NullState.ISNULL)
        return true_facts, false_facts

    def _ref_vs_const(
        self, expr: A.Binary
    ) -> tuple[Ref, int] | None:
        """Match one side of a comparison to a reference, the other to a
        compile-time integer constant, in either order."""
        if self._const_eval is None:
            return None
        const = self._const_eval(expr.rhs)
        if const is not None:
            ref = self._resolve(expr.lhs)
            if ref is not None:
                return ref, const
        const = self._const_eval(expr.lhs)
        if const is not None:
            ref = self._resolve(expr.rhs)
            if ref is not None:
                return ref, const
        return None

    def _relational(
        self, expr: A.Binary, true_facts: GuardFacts, false_facts: GuardFacts
    ) -> None:
        """Interval refinement for 'i < c' and friends ('i < n' facts)."""
        ref_const = self._ref_vs_const(expr)
        if ref_const is None:
            return
        ref, const = ref_const
        op = expr.op
        if self._const_eval(expr.lhs) is not None:
            # c OP i reads as i FLIP(OP) c.
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        if op == "<":       # i < c
            true_facts.add_range(ref, (None, const - 1))
            false_facts.add_range(ref, (const, None))
        elif op == "<=":    # i <= c
            true_facts.add_range(ref, (None, const))
            false_facts.add_range(ref, (const + 1, None))
        elif op == ">":     # i > c
            true_facts.add_range(ref, (const + 1, None))
            false_facts.add_range(ref, (None, const))
        else:               # i >= c
            true_facts.add_range(ref, (const, None))
            false_facts.add_range(ref, (None, const - 1))
