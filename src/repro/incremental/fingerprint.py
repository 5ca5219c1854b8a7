"""Fingerprints for incremental checking.

The unit of caching is one translation unit checked against one program
interface. Its fingerprint combines everything the per-unit check result
can depend on (the paper's modular-checking contract: a function body is
checked only against interface information):

* the unit's **preprocessed token stream** (kind, spelling, and location
  of every token — locations matter because messages carry them),
* the active :class:`~repro.flags.registry.Flags` configuration,
* the **stdlib prelude** version (its text, defines, and system headers),
* the merged **program interface digest** — per-unit interface slices
  plus any loaded interface libraries,
* the engine version, bumped whenever checker semantics change.

Two helper layers make warm runs cheap: a *source key* over the raw
unit text and command-line defines memoizes the token digest so an
unchanged unit is never re-preprocessed, and per-unit interface digests
let the program digest be recomputed without reparsing unchanged units.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from bisect import bisect_right

from ..flags.registry import FLAG_REGISTRY, Flags
from ..frontend.tokens import Token, TokenKind
from ..stdlib.specs import PRELUDE_DEFINES, PRELUDE_TEXT, SYSTEM_HEADERS

#: Bump when checker or serialization semantics change: every cached
#: result becomes unreachable and the cache rebuilds itself.
#: v2: per-unit interface digests moved from the reflective object-graph
#: walk to the token-based digest (same invalidation contract, ~20x
#: cheaper); old caches self-wipe with a visible rebuild note.
#: v3: constant folds truncate ``/`` and ``%`` toward zero, decode
#: numeric character escapes and size unions by their largest member,
#: so memoized enum values and array sizes changed; source keys now
#: carry the version too.
#: v4: a memo records each include it followed as (directory, header,
#: kind, file, text sha), re-resolved on every probe; files read from
#: disk no longer shadow another unit's siblings.
#: v5: a memo's interface slice holds the symbol table alone, and the
#: cache service carries each entry as its stored bytes.
ENGINE_VERSION = 5


#: The interface digest of a unit whose frontend gave up. Its interface
#: is empty whatever the failure, so one constant stands for it: the
#: value :func:`interface_digest` gives the empty slice, so the cache
#: keys of programs with such a unit did not change when it replaced
#: that walk.
FAILED_INTERFACE_DIGEST = (
    "ce4a1364864f356727107a4ca64281b2786557907b6ee6c149f6e6acd05a3b44"
)


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def text_digest(text: str) -> str:
    return _sha(text)


def flags_digest(flags: Flags) -> str:
    """Digest of the *effective* flag configuration.

    Uses resolved values for every registered flag so that, e.g.,
    ``Flags()`` and ``Flags({"null": True})`` fingerprint identically.
    """
    parts = [f"{name}={int(flags.enabled(name))}" for name in sorted(FLAG_REGISTRY)]
    return _sha("flags", *parts)


def defines_digest(defines: dict[str, str]) -> str:
    parts = [f"{name}={value}" for name, value in sorted(defines.items())]
    return _sha("defines", *parts)


_PRELUDE_DIGEST: str | None = None


def prelude_digest() -> str:
    """Version digest of the annotated standard library the checker assumes.

    The inputs are process-lifetime constants, so the digest is computed
    once and memoized (it participates in every program digest).
    """
    global _PRELUDE_DIGEST
    if _PRELUDE_DIGEST is None:
        headers = [
            f"{name}:{text}" for name, text in sorted(SYSTEM_HEADERS.items())
        ]
        _PRELUDE_DIGEST = _sha(
            f"engine-v{ENGINE_VERSION}",
            PRELUDE_TEXT,
            defines_digest(dict(PRELUDE_DEFINES)),
            *headers,
        )
    return _PRELUDE_DIGEST


def token_stream_digest(tokens: list[Token]) -> str:
    """Digest of a preprocessed token stream, locations included.

    Locations are part of the fingerprint on purpose: two token streams
    that differ only in line numbers produce messages that render
    differently, so they must not share a cache entry.
    """
    digest = hashlib.sha256()
    update = digest.update
    for tok in tokens:
        # coords() reads (filename, line, column) without materializing a
        # Location object; the digest bytes are unchanged, so cache
        # entries written before the lazy-token rewrite stay valid.
        filename, line, column = tok.coords()
        update(
            f"{tok.kind.name}\x00{tok.value}\x00"
            f"{filename}\x00{line}\x00{column}\x01".encode(
                "utf-8", "surrogatepass"
            )
        )
    return digest.hexdigest()


#: ``kind.name`` goes through the enum's descriptor, a Python frame per
#: read; the digest pass reads the names from this table instead.
_KIND_NAMES = {kind: kind.name for kind in TokenKind}


def unit_digests(tokens: list[Token]) -> tuple[str, str]:
    """``(token digest, interface digest)`` of a unit, in one pass.

    The token digest is :func:`token_stream_digest`. The interface
    digest covers what other units may depend on under the
    modular-checking contract: this unit's declared signatures, types,
    annotations, and enum constants, all spelled in the token stream
    *outside* function bodies. So it covers every token except the
    brace-balanced body of a function definition (a ``{`` whose previous
    significant token closes a parameter list or is a
    globals/modifies/uses clause) and control comments (suppressions
    are strictly unit-local). It replaced :func:`interface_digest`, the
    reflective walk over the symbol-table slice, which dominated the
    cold run.

    Locations count for the covered tokens, as the walk's declaration
    ``Location`` fields did: messages emitted while checking *other*
    units may cite this unit's declaration sites, so a moved declaration
    must change the digest. A same-line body edit leaves every covered
    token, and so the digest, unchanged, which is what keeps body edits
    re-checking only their own unit.

    The skip rule is conservative: any ``{`` it cannot prove starts a
    function body (initializer lists, struct/union/enum bodies, K&R
    definitions) is covered, which can only over-invalidate, never miss
    an interface change. One loop serves both digests because the
    per-token cost (coords + formatting) dominates; each token's bytes
    are those of :func:`token_stream_digest`, memoized on the token.

    A lexer token's line and column come from a cursor over its
    source's line starts rather than a bisect per token: a source's
    tokens arrive in offset order, so the cursor only moves forward. It
    is re-seated with one bisect when the stream moves to another
    source (an included header and back) or, rarely, back within one.
    A token that carries its own ``Location`` (a macro expansion's)
    reads it through ``coords()``.
    """
    full = hashlib.sha256()
    iface = hashlib.sha256()
    full_update = full.update
    iface_update = iface.update
    kind_names = _KIND_NAMES
    punct = TokenKind.PUNCT
    control = TokenKind.CONTROL
    annotation = TokenKind.ANNOTATION
    src = None  # the source the cursor walks
    name = ""
    starts: list[int] = []
    n_starts = 0
    line_idx = 0  # 0-based line of the cursor in ``src``
    body_depth = 0  # >0 while inside a skippable function body
    prev_is_body_opener = False
    for tok in tokens:
        kind = tok.kind
        value = tok.value
        part = tok._fp
        if part is None:
            if tok._location is None:
                source = tok._source
                offset = tok._offset
                if source is not src:
                    src = source
                    name = source.name
                    starts = source.line_starts
                    n_starts = len(starts)
                    line_idx = bisect_right(starts, offset) - 1
                elif offset < starts[line_idx]:
                    line_idx = bisect_right(starts, offset) - 1
                else:
                    while (
                        line_idx + 1 < n_starts
                        and offset >= starts[line_idx + 1]
                    ):
                        line_idx += 1
                filename = name
                line = line_idx + 1
                column = offset - starts[line_idx] + 1
            else:
                filename, line, column = tok.coords()
            part = (
                f"{kind_names[kind]}\x00{value}\x00"
                f"{filename}\x00{line}\x00{column}\x01".encode(
                    "utf-8", "surrogatepass"
                )
            )
            # Safe to memoize: kind/value/coords are immutable once the
            # token exists, and header tokens are shared between units.
            tok._fp = part
        full_update(part)
        if body_depth:
            if kind is punct:
                if value == "{":
                    body_depth += 1
                elif value == "}":
                    body_depth -= 1
            continue
        if kind is control:
            continue
        if value == "{" and kind is punct and prev_is_body_opener:
            body_depth = 1
            prev_is_body_opener = False
            continue
        iface_update(part)
        if kind is punct:
            prev_is_body_opener = value == ")"
        elif kind is annotation:
            first_word = value.split(None, 1)[:1]
            prev_is_body_opener = first_word in (
                ["globals"], ["modifies"], ["uses"]
            )
        else:
            prev_is_body_opener = False
    return full.hexdigest(), iface.hexdigest()


def source_key(
    name: str,
    text: str,
    defines: dict[str, str],
    defines_fp: str | None = None,
) -> str:
    """Fast-path key over the *raw* unit text (ccache-style direct mode).

    Maps to a memo holding the token digest, interface digest, and the
    includes followed the last time the unit was preprocessed; the memo
    is valid only while each include still names the same file, with
    the same text.
    The engine version is part of the key, so a cache server filled by an
    older engine never hands its memos to a newer one. Callers keying
    many units pass the precomputed ``defines_fp``.
    """
    if defines_fp is None:
        defines_fp = defines_digest(defines)
    return _sha("unit", f"engine-v{ENGINE_VERSION}", name, text, defines_fp)


def program_digest(
    interface_digests: list[str], library_digests: list[str]
) -> str:
    """Digest of the merged interface a unit is checked against."""
    return _sha(
        "program",
        prelude_digest(),
        *interface_digests,
        "libraries",
        *library_digests,
    )


def check_fingerprint(
    token_digest: str,
    flags: Flags,
    prog_digest: str,
    flags_fp: str | None = None,
) -> str:
    """The cache key for one unit's check result.

    Callers fingerprinting many units against one configuration pass the
    precomputed ``flags_fp`` so the flag digest is hashed once per run.
    """
    if flags_fp is None:
        flags_fp = flags_digest(flags)
    return _sha("check", token_digest, flags_fp, prog_digest)


# -- interface digests --------------------------------------------------------
#
# The interface slice of a unit (FunctionSignature / GlobalVariable values)
# contains dataclasses, enums, frozensets, and *cyclic* struct types
# (``struct _elem { struct _elem *next; }``), so the digest walks the object
# graph into a canonical form: fields in declaration order, sets sorted,
# cycles cut at their first revisit. Pickle bytes are NOT a usable digest —
# frozenset iteration order varies with string-hash randomization across
# processes, which would make every run look cold.


def _stable(obj, on_stack: set[int]) -> object:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__name__, obj.name)
    oid = id(obj)
    if oid in on_stack:
        return ("cycle", type(obj).__name__, getattr(obj, "tag", None))
    on_stack.add(oid)
    try:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return (
                type(obj).__name__,
                tuple(
                    (f.name, _stable(getattr(obj, f.name), on_stack))
                    for f in dataclasses.fields(obj)
                ),
            )
        if isinstance(obj, dict):
            items = [
                (_stable(k, on_stack), _stable(v, on_stack))
                for k, v in obj.items()
            ]
            return ("dict", tuple(sorted(items, key=repr)))
        if isinstance(obj, (set, frozenset)):
            return ("set", tuple(sorted(repr(_stable(v, on_stack)) for v in obj)))
        if isinstance(obj, (list, tuple)):
            return ("seq", tuple(_stable(v, on_stack) for v in obj))
        # Non-dataclass helper objects (e.g. plain classes with __dict__).
        state = getattr(obj, "__dict__", None)
        if state is not None:
            return (type(obj).__name__, _stable(state, on_stack))
        return ("repr", repr(obj))
    finally:
        on_stack.discard(oid)


def stable_digest(obj) -> str:
    """Content digest of an arbitrary (possibly cyclic) object graph."""
    return _sha(repr(_stable(obj, set())))


def interface_digest(symtab, enum_consts: dict[str, int]) -> str:
    """Digest of one unit's exported interface slice."""
    return stable_digest(
        {
            "functions": symtab.functions,
            "globals": symtab.globals,
            "enum_consts": enum_consts,
        }
    )
