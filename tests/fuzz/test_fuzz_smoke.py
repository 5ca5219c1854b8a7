"""Time-bounded fuzz smoke test: the checker never raises, never hangs.

Hypothesis generates C-ish token soup and structured mutations of a real
program; totality is the only property — any input, however broken, must
come back as a normal :class:`CheckResult` (possibly full of parse-error
messages), never as an exception. Each example runs under a hypothesis
deadline so a hang fails fast; CI additionally runs this file as a
separate job with a hard timeout.
"""

import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import check_source
from repro.core.api import CheckResult

#: Crash bundles from fuzz runs must not land in the working tree.
CRASH_DIR = tempfile.mkdtemp(prefix="pylclint-fuzz-crashes-")

FUZZ_SETTINGS = settings(
    max_examples=60,
    deadline=4000,  # ms per example: catches hangs, tolerates cold starts
    suppress_health_check=[HealthCheck.too_slow],
)

_FRAGMENTS = st.sampled_from([
    "int", "char *", "void", "struct s", "typedef", "extern", "static",
    "x", "y", "fn", "main", "0", "1", "0x", "'c'", '"str"', '"unterminated',
    "{", "}", "(", ")", "[", "]", ";", ",", "=", "+", "->", ".", "*", "&",
    "if", "else", "while", "for", "return", "switch", "case", "goto",
    "/*@null@*/", "/*@only@*/", "/*@out@*/", "/*@unrecognized@*/",
    "/*@", "@*/", "/*", "//", "#include <stdlib.h>", "#include \"nope.h\"",
    "#define X 1", "#define", "#if 0", "#endif", "#garbage",
    "malloc(4)", "free(p)", "\\", "\x00", "\x01", "é", "\n", "  ",
])


@st.composite
def _token_soup(draw):
    parts = draw(st.lists(_FRAGMENTS, min_size=0, max_size=60))
    sep = draw(st.sampled_from([" ", "\n"]))
    return sep.join(parts)


WELL_FORMED = """#include <stdlib.h>
typedef struct pair { int a; int b; } pair;
static pair *mk(void) { return (pair *) malloc(sizeof(pair)); }
int sum(/*@null@*/ pair *p) {
  if (p == NULL) { return 0; }
  return p->a + p->b;
}
void drive(void) {
  pair *p = mk();
  if (p != NULL) { p->a = 1; p->b = 2; free(p); }
}
"""


@st.composite
def _mutated_program(draw):
    """Cut, duplicate, or splice garbage into a real program — the shape
    of damage real-world generated/truncated inputs actually have."""
    text = WELL_FORMED
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cut", "dup", "splice"]))
        if len(text) < 2:
            break
        lo = draw(st.integers(0, len(text) - 1))
        hi = draw(st.integers(lo, min(len(text), lo + 80)))
        if kind == "cut":
            text = text[:lo] + text[hi:]
        elif kind == "dup":
            text = text[:hi] + text[lo:hi] + text[hi:]
        else:
            text = text[:lo] + draw(_FRAGMENTS) + text[lo:]
    return text


def _check_totality(source):
    result = check_source(source, "fuzz.c", crash_dir=CRASH_DIR)
    assert isinstance(result, CheckResult)
    for message in result.messages:
        assert message.render()
    return result


class TestFuzzSmoke:
    @FUZZ_SETTINGS
    @given(_token_soup())
    def test_token_soup_never_raises(self, source):
        _check_totality(source)

    @FUZZ_SETTINGS
    @given(_mutated_program())
    def test_mutated_program_never_raises(self, source):
        _check_totality(source)

    @FUZZ_SETTINGS
    @given(st.text(max_size=200))
    def test_arbitrary_text_never_raises(self, source):
        _check_totality(source)

    def test_no_internal_errors_on_empty_and_trivial(self):
        for source in ("", ";", "\n\n", "int x;"):
            result = _check_totality(source)
            assert result.internal_errors == 0

    def test_known_bad_inputs_degrade_not_crash(self):
        for source in (
            'char *s = "unterminated',
            "int f( {",
            '#include "definitely-missing.h"\nint x;',
            "\x01\x02\x03",
            "int x = 089;",
            "#if 1 << -1\n#endif\nint x;",
            "int a[1 << 1099511627776];",
            'char *s = "\\x110000";',
            "int c = '\\x1ff';",
        ):
            result = _check_totality(source)
            # malformed input is a frontend fatal (parse-error message),
            # never a contained *internal* error
            assert result.internal_errors == 0, source
