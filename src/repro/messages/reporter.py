"""Collecting, filtering, and formatting checker messages."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..flags.registry import DEFAULT_FLAGS, Flags
from ..frontend.cast import Position, location_of
from .message import Message, MessageCode, SubLocation
from .suppress import SuppressionTable


@dataclass
class Reporter:
    """Accumulates messages during a checking run.

    Messages are deduplicated (the analysis may traverse shared subtrees
    more than once), filtered by flags and suppression tables, and sorted
    into source order for output. A message and its sub-locations are
    given as positions (:data:`~repro.frontend.cast.Position`); the
    ``Location`` of each is built here, for the messages that are kept.
    """

    flags: Flags = field(default_factory=lambda: DEFAULT_FLAGS)
    messages: list[Message] = field(default_factory=list)
    suppressed_count: int = 0
    _seen: set[tuple] = field(default_factory=set)

    def report(
        self,
        code: MessageCode,
        location: Position,
        text: str,
        subs: list[tuple[Position, str]] | None = None,
    ) -> None:
        if not self.flags.enabled(code.flag):
            self.suppressed_count += 1
            return
        location = location_of(location)
        key = (code, location, text)
        if key in self._seen:
            return
        self._seen.add(key)
        self.messages.append(
            Message(
                code,
                location,
                text,
                tuple(
                    SubLocation(location_of(pos), t) for pos, t in (subs or [])
                ),
            )
        )

    def apply_suppressions(self, table: SuppressionTable) -> None:
        kept, dropped = table.filter(self.messages)
        self.messages = kept
        self.suppressed_count += dropped

    def sorted_messages(self) -> list[Message]:
        return sorted(self.messages, key=Message.sort_key)

    def by_code(self) -> dict[MessageCode, list[Message]]:
        out: dict[MessageCode, list[Message]] = {}
        for msg in self.sorted_messages():
            out.setdefault(msg.code, []).append(msg)
        return out

    def render(self) -> str:
        parts = [msg.render() for msg in self.sorted_messages()]
        summary = f"\n{len(self.messages)} code warning(s)" if parts else ""
        return "\n".join(parts) + summary

    def __len__(self) -> int:
        return len(self.messages)
