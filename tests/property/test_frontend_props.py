"""Property tests for the frontend: lexer totality, render/parse round
trips, and preprocessor conditional evaluation."""

from hypothesis import given, settings, strategies as st

from repro.frontend import cast as A
from repro.frontend.arith import parse_int_constant
from repro.frontend.lexer import LexError, tokenize
from repro.frontend.parser import Parser
from repro.frontend.preprocessor import Preprocessor
from repro.frontend.render import render_expr
from repro.frontend.source import SourceFile, SourceManager
from repro.frontend.tokens import TokenKind


class TestLexerTotality:
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=200))
    @settings(max_examples=200)
    def test_lexer_terminates_on_printable_input(self, text):
        """Any printable input either tokenizes or raises LexError —
        never hangs, never raises anything else."""
        try:
            toks = tokenize(SourceFile("fuzz.c", text))
        except LexError:
            return
        assert toks[-1].kind is TokenKind.EOF

    @given(st.text(alphabet="0123456789abcdefxXuUlL.eE+-", max_size=12))
    @settings(max_examples=200)
    def test_number_scanning_terminates(self, text):
        try:
            tokenize(SourceFile("n.c", "0" + text))
        except LexError:
            pass

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_int_constant_round_trip(self, value):
        assert parse_int_constant(str(value)) == value
        assert parse_int_constant(hex(value)) == value
        assert parse_int_constant(str(value) + "UL") == value

    @given(st.lists(st.sampled_from(
        ["int", "x", "42", "+", "(", ")", ";", "{", "}", "/*@null@*/",
         "->", "danger", "0x1F", '"s"', "'c'"]), max_size=30))
    @settings(max_examples=100)
    def test_token_stream_stable_under_relex(self, words):
        """Lexing the spelling of a token stream yields the same stream."""
        text = " ".join(words)
        toks1 = tokenize(SourceFile("a.c", text))
        spelling = " ".join(t.value for t in toks1 if t.kind is not TokenKind.EOF
                            and t.kind is not TokenKind.ANNOTATION)
        toks2 = tokenize(SourceFile("b.c", spelling))
        kinds1 = [t.kind for t in toks1 if t.kind not in
                  (TokenKind.EOF, TokenKind.ANNOTATION)]
        kinds2 = [t.kind for t in toks2 if t.kind is not TokenKind.EOF]
        assert kinds1 == kinds2


# -- expression round trips ---------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "p", "q"])


def _exprs() -> st.SearchStrategy:
    leaves = st.one_of(
        st.integers(min_value=0, max_value=999).map(
            lambda v: A.IntLit(None, value=v, spelling=str(v))
        ),
        _names.map(lambda n: A.Ident(None, name=n)),
    )

    def extend(children):
        binops = st.sampled_from(["+", "-", "*", "/", "==", "!=", "<",
                                  "&&", "||", "&", "|", "^", "<<"])
        unops = st.sampled_from(["-", "!", "~", "*"])
        return st.one_of(
            st.tuples(binops, children, children).map(
                lambda t: A.Binary(None, op=t[0], lhs=t[1], rhs=t[2])
            ),
            st.tuples(unops, children).map(
                lambda t: A.Unary(None, op=t[0], operand=t[1])
            ),
            st.tuples(children, children, children).map(
                lambda t: A.Ternary(None, cond=t[0], then=t[1], other=t[2])
            ),
            st.tuples(children, _names).map(
                lambda t: A.Member(None, obj=t[0], fieldname=t[1], arrow=True)
            ),
            st.tuples(children, children).map(
                lambda t: A.Index(None, array=t[0], index=t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _strip_locations(expr: A.Expr):
    """Structural digest of an expression, ignoring locations/spellings."""
    if isinstance(expr, A.IntLit):
        return ("int", expr.value)
    if isinstance(expr, A.Ident):
        return ("ident", expr.name)
    if isinstance(expr, A.Binary):
        return ("bin", expr.op, _strip_locations(expr.lhs),
                _strip_locations(expr.rhs))
    if isinstance(expr, A.Unary):
        return ("un", expr.op, _strip_locations(expr.operand))
    if isinstance(expr, A.Ternary):
        return ("tern", _strip_locations(expr.cond),
                _strip_locations(expr.then), _strip_locations(expr.other))
    if isinstance(expr, A.Member):
        return ("member", expr.fieldname, expr.arrow,
                _strip_locations(expr.obj))
    if isinstance(expr, A.Index):
        return ("index", _strip_locations(expr.array),
                _strip_locations(expr.index))
    return ("other", type(expr).__name__)


def _parse_expr(text: str) -> A.Expr:
    manager = SourceManager()
    pp = Preprocessor(manager)
    toks = pp.preprocess_text(f"int _probe(int a, int b, int c, int p, int q)"
                              f" {{ return {text}; }}", "rt.c")
    parser = Parser(toks, "rt.c")
    unit = parser.parse_translation_unit()
    ret = unit.functions()[0].body.items[0]
    return ret.value


class TestRenderParseRoundTrip:
    @given(_exprs())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, expr):
        """parse(render(e)) is structurally identical to e.

        This pins both the renderer's precedence-aware parenthesization
        and the parser's precedence climbing against each other.
        """
        text = render_expr(expr)
        reparsed = _parse_expr(text)
        assert _strip_locations(reparsed) == _strip_locations(expr)

    @given(_exprs())
    @settings(max_examples=60, deadline=None)
    def test_render_is_fixpoint(self, expr):
        once = render_expr(expr)
        twice = render_expr(_parse_expr(once))
        assert once == twice


class TestPreprocessorConditionals:
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 9))
    @settings(max_examples=100)
    def test_if_arithmetic_matches_python(self, a, b, c):
        expr = f"({a} + {b}) * {c} > {a} * {c} || {a} == {b}"
        expected = (a + b) * c > a * c or a == b
        pp = Preprocessor(SourceManager())
        toks = pp.preprocess_text(f"#if {expr}\nyes\n#endif\n", "c.c")
        values = [t.value for t in toks if t.kind is TokenKind.IDENT]
        assert ("yes" in values) == expected

    @given(st.booleans(), st.booleans())
    def test_nested_defined(self, da, db):
        lines = []
        if da:
            lines.append("#define A")
        if db:
            lines.append("#define B")
        lines.append("#if defined(A) && !defined(B)\nhit\n#endif")
        pp = Preprocessor(SourceManager())
        toks = pp.preprocess_text("\n".join(lines), "d.c")
        values = [t.value for t in toks if t.kind is TokenKind.IDENT]
        assert ("hit" in values) == (da and not db)
