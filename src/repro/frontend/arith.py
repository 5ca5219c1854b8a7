"""C's integer constants and operators, spelled once.

The parser's constant folder (array sizes, enumerators, and through it
the preprocessor's ``#if``) and the run-time interpreter all compute
through this module, so a C expression has one value wherever it is
evaluated: ``/`` and ``%`` truncate toward zero (C99 6.5.5),
comparisons and ``&&``/``||`` yield 0 or 1, and an operation C leaves
undefined -- a zero divisor, a shift count outside 0..63 -- raises
:class:`ArithmeticFault`, which each caller reports in its own way.
Float operands follow the interpreter: ``/`` divides them, and the
bitwise, shift and ``%`` operators truncate them to integers first.
"""

from __future__ import annotations

import operator
import re


class ArithmeticFault(Exception):
    """An operation whose result C leaves undefined."""


def parse_int_constant(spelling: str) -> int:
    """Parse a C integer constant spelling (suffixes stripped).

    A malformed spelling, such as the octal ``089``, raises ``ValueError``.
    """
    text = spelling.rstrip("uUlL")
    if text.lower().startswith("0x"):
        return int(text, 16)
    if text.startswith("0") and len(text) > 1 and text[1:].isdigit():
        return int(text, 8)
    return int(text) if text else 0


#: Single-letter escapes whose value is not the letter's own code.
_ESCAPES = {"n": 10, "t": 9, "r": 13, "a": 7, "b": 8, "f": 12, "v": 11}
_NUMERIC_ESCAPE = re.compile(r"[0-7]{1,3}|x[0-9a-fA-F]+")


def char_value(spelling: str) -> int:
    """The value of a character constant such as ``'a'``, ``'\\n'``,
    ``'\\x41'`` or ``'\\101'``; a multi-character constant has the
    value of its first character."""
    inner = spelling[1:-1]
    if inner[:1] != "\\" or len(inner) < 2:
        return ord(inner[0]) if inner else 0
    numeric = _NUMERIC_ESCAPE.match(inner, 1)
    if numeric is not None:
        digits = numeric.group()
        return int(digits[1:], 16) if digits[0] == "x" else int(digits, 8)
    return _ESCAPES.get(inner[1], ord(inner[1]))


def _divide(a, b):
    if b == 0:
        raise ArithmeticFault("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a < 0) == (b < 0) else -quotient
    return a / b


def _remainder(a, b):
    a, b = int(a), int(b)
    return a - b * _divide(a, b)


def _shift_count(count) -> int:
    count = int(count)
    if count < 0:
        raise ArithmeticFault("negative shift count")
    if count > 63:
        raise ArithmeticFault(f"shift count {count} exceeds 63")
    return count


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _remainder,
    "<<": lambda a, b: int(a) << _shift_count(b),
    ">>": lambda a, b: int(a) >> _shift_count(b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}

_UNARY = {
    "-": operator.neg,
    "+": operator.pos,
    "~": lambda a: ~int(a),
    "!": lambda a: int(not a),
}

#: The operators :func:`unary` computes (``&``, ``*`` and the
#: increments need storage, which only the interpreter has).
UNARY_OPS = frozenset(_UNARY)


def binary(op: str, a, b):
    """``a op b`` for a C arithmetic, shift, bitwise, comparison or
    logical operator; raises :class:`ArithmeticFault` where C leaves the
    result undefined. ``&&`` and ``||`` see both operands: a caller that
    must not evaluate the right one short-circuits first."""
    return _BINARY[op](a, b)


def unary(op: str, a):
    """``op a`` for one of :data:`UNARY_OPS`."""
    return _UNARY[op](a)
