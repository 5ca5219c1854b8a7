"""The one command-line grammar: ``pylclint``, ``repro difftest`` and the
servers each walk their argv with :func:`parse` through a table of
:class:`Option` rows. An option ``name`` is spelled ``-name`` or
``--name``; its value is the next argument, or follows ``=`` in
``--name=value``. Any other argument is an operand, handed back in order
for the command to judge. This module imports nothing from ``repro``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class UsageError(ValueError):
    """A malformed command line; the message names the option."""


class Option(NamedTuple):
    """One table row: the setting it fills, and how (see the builders)."""

    setting: str
    kind: str
    convert: Callable[[str], object] = str
    const: object = None
    ends: bool = False


def value(setting: str, convert: Callable[[str], object] = str) -> Option:
    """An option whose converted value fills *setting*."""
    return Option(setting, "value", convert)


def repeated(setting: str, convert: Callable[[str], object] = str) -> Option:
    """An option that may repeat; each converted value is appended."""
    return Option(setting, "repeated", convert)


def switch(setting: str, const: object = True, ends: bool = False) -> Option:
    """An option without a value that sets *setting* to *const*; with
    *ends*, the walk stops where it stands (``--help``)."""
    return Option(setting, "switch", const=const, ends=ends)


def optional(setting: str, absent: object) -> Option:
    """An option whose value, the next argument unless that starts with
    ``-`` or ``+``, may be left out; *absent* then fills *setting*."""
    return Option(setting, "optional", const=absent)


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expects an integer, got {text!r}") from None


def number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expects a number, got {text!r}") from None


def parse(argv: list[str], table: dict[str, Option], settings: dict) -> list[str]:
    """Walk *argv* against *table*, filling *settings*; returns the
    operands. A missing value, a value given to a switch, or one its
    converter rejects (the :class:`ValueError` text follows the option's
    name) raises :class:`UsageError`."""
    operands: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        long = arg[:2] == "--"
        spelled, eq, text = arg.partition("=") if long else (arg, "", "")
        option = table.get(spelled[2 if long else 1:]) if arg[:1] == "-" else None
        if option is None:
            operands.append(arg)
        elif option.kind == "switch":
            if eq:
                raise UsageError(f"{spelled} takes no value")
            settings[option.setting] = option.const
            if option.ends:
                break
        elif not eq and option.kind == "optional" and (
            i == len(argv) or argv[i][:1] in ("-", "+")
        ):
            settings[option.setting] = option.const
        else:
            if not eq:
                if i == len(argv):
                    raise UsageError(f"{spelled} requires a value")
                text = argv[i]
                i += 1
            try:
                converted = option.convert(text)
            except ValueError as exc:
                raise UsageError(f"{spelled} {exc}") from None
            if option.kind == "repeated":
                settings.setdefault(option.setting, []).append(converted)
            else:
                settings[option.setting] = converted
    return operands
