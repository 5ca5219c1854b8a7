"""Property tests for the analysis: generated programs, store algebra,
CFG invariants, and static/dynamic agreement on clean code."""

import pickle

from hypothesis import given, settings, strategies as st

from repro import Checker
from repro.analysis.cfg import build_cfg
from repro.analysis.states import AllocState, DefState, NullState, RefState
from repro.analysis.storage import Ref, RefBase
from repro.analysis.store import Store
from repro.analysis.transfer import Value
from repro.bench.generator import generate_program
from repro.frontend.ctypes import Pointer, Primitive

# ---------------------------------------------------------------------------
# random structured C programs (statement soup over a fixed frame)
# ---------------------------------------------------------------------------

_COND = st.sampled_from(["x > 0", "y != 0", "x == y", "x < 10", "y"])
_SIMPLE = st.sampled_from(
    ["x = x + 1;", "y = x * 2;", "x = y - 3;", "y = y ^ x;", "x = 0;",
     "y = 1;", ";"]
)


def _stmts() -> st.SearchStrategy[str]:
    def extend(children):
        blocks = st.lists(children, min_size=1, max_size=3).map(
            lambda body: "{ " + " ".join(body) + " }"
        )
        return st.one_of(
            st.tuples(_COND, blocks).map(
                lambda t: f"if ({t[0]}) {t[1]}"
            ),
            st.tuples(_COND, blocks, blocks).map(
                lambda t: f"if ({t[0]}) {t[1]} else {t[2]}"
            ),
            st.tuples(_COND, blocks).map(
                lambda t: f"while ({t[0]}) {t[1]}"
            ),
            st.tuples(_COND, blocks).map(
                lambda t: f"do {t[1]} while ({t[0]});"
            ),
            blocks,
        )

    return st.recursive(_SIMPLE, extend, max_leaves=14)


def _program(statements: list[str]) -> str:
    body = "\n  ".join(statements)
    return f"int f(int x, int y) {{\n  {body}\n  return x + y;\n}}\n"


class TestGeneratedPrograms:
    @given(st.lists(_stmts(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_checker_terminates_and_is_quiet_on_scalar_code(self, stmts):
        """Scalar-only structured programs have no memory errors; the
        checker must terminate and stay silent on them."""
        result = Checker().check_sources({"gen.c": _program(stmts)})
        assert result.messages == []

    @given(st.lists(_stmts(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_cfg_is_always_a_dag(self, stmts):
        parsed = Checker().parse_unit(_program(stmts), "gen.c")
        cfg = build_cfg(parsed.unit.functions()[0])
        assert cfg.is_acyclic()
        assert cfg.execution_points() >= 2  # entry and something

    @given(st.lists(_stmts(), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_interpreter_agrees_programs_are_clean(self, stmts):
        """The runtime baseline sees no memory events on scalar code."""
        from repro.runtime.interp import run_program

        source = _program(stmts)
        result = run_program(
            "#include <stdio.h>\n" + source
            + "int main(void) { printf(\"%d\", f(3, 4)); return 0; }\n",
            max_steps=200_000,
        )
        assert result.events == []


class TestGeneratorPrograms:
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
           st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_generated_annotated_programs_check_clean(
        self, modules, fillers, scenarios, seed
    ):
        program = generate_program(
            modules=modules, filler_functions=fillers,
            scenarios_per_module=scenarios, seed=seed,
        )
        result = Checker().check_sources(dict(program.files))
        assert result.messages == [], [m.render() for m in result.messages]


# ---------------------------------------------------------------------------
# store algebra
# ---------------------------------------------------------------------------


class _Env:
    def base_default(self, ref):
        return RefState()

    def derived_default(self, ref, parent):
        return RefState(definition=parent.definition)


_refs = st.sampled_from(
    [Ref.local("a"), Ref.local("b"), Ref.global_("g"),
     Ref.local("a").arrow("f"), Ref.arg(0)]
)
_states = st.builds(
    RefState,
    st.sampled_from(list(DefState)),
    st.sampled_from(list(NullState)),
    st.sampled_from(list(AllocState)),
)


def _store(assignments: list[tuple[Ref, RefState]]) -> Store:
    store = Store(_Env())
    for ref, state in assignments:
        store.set_state(ref, state)
    return store


_store_contents = st.lists(st.tuples(_refs, _states), max_size=5)


class TestStoreMergeAlgebra:
    @given(_store_contents, _store_contents)
    @settings(max_examples=80, deadline=None)
    def test_merge_commutative_on_states(self, a_items, b_items):
        a1, b1 = _store(a_items), _store(b_items)
        a2, b2 = _store(a_items), _store(b_items)
        left, _ = a1.merge(b1)
        right, _ = b2.merge(a2)
        keys = set(left.states) | set(right.states)
        for key in keys:
            assert left.state(key) == right.state(key)

    @given(_store_contents)
    @settings(max_examples=50, deadline=None)
    def test_merge_idempotent(self, items):
        a, b = _store(items), _store(items)
        merged, reports = a.merge(b)
        assert reports == []
        for ref, state in items:
            assert merged.state(ref) == _store(items).state(ref)

    @given(_store_contents, _store_contents)
    @settings(max_examples=50, deadline=None)
    def test_unreachable_is_identity(self, a_items, b_items):
        a, b = _store(a_items), _store(b_items)
        b.unreachable = True
        merged, reports = a.merge(b)
        assert reports == []
        for ref in a.states:
            assert merged.state(ref) == a.state(ref)


# ---------------------------------------------------------------------------
# the analysis records: references, states and values are tuples
# ---------------------------------------------------------------------------

_any_bases = st.builds(
    RefBase,
    st.sampled_from(["local", "arg", "global", "ret", "alloc"]),
    st.sampled_from(["", "a", "b", "next"]),
    st.integers(-1, 2),
)
_steps = st.one_of(
    st.tuples(st.sampled_from(["arrow", "dot"]), st.sampled_from(["f", "next"])),
    st.just(("deref", "")),
    st.tuples(st.just("index"), st.sampled_from(["0", "1", "?"])),
)
_any_refs = st.builds(Ref, _any_bases, st.lists(_steps, max_size=3).map(tuple))
_bounds = st.one_of(st.none(), st.integers(-3, 3))
_any_states = st.builds(
    RefState,
    st.sampled_from(list(DefState)),
    st.sampled_from(list(NullState)),
    st.sampled_from(list(AllocState)),
    st.one_of(st.none(), st.tuples(_bounds, _bounds)),
)
_values = st.builds(
    Value,
    _any_states,
    st.one_of(st.none(), _any_refs),
    st.sampled_from([None, Primitive("int"), Pointer(Primitive("char"))]),
    st.booleans(),
    st.sampled_from([None, "malloc"]),
    st.frozensets(_any_refs, max_size=2),
)


def _base_fields(base):
    return (base.kind, base.name, base.index)


def _ref_fields(ref):
    """What the frozen dataclasses compared and sorted by."""
    return (_base_fields(ref.base), ref.path)


def _state_fields(state):
    return (state.definition, state.null, state.alloc, state.rng)


def _value_fields(value):
    return (value.state, value.ref, value.ctype, value.null_literal,
            value.fresh_call, value.alias_refs)


class TestTupleRecords:
    """Refs, states and values compare, hash, sort, print and pickle as
    the frozen dataclasses they replaced did."""

    @given(_any_refs, _any_refs)
    @settings(max_examples=200, deadline=None)
    def test_refs_compare_and_hash_by_their_fields(self, a, b):
        assert (a == b) == (_ref_fields(a) == _ref_fields(b))
        assert (a != b) == (_ref_fields(a) != _ref_fields(b))
        assert (a < b) == (_ref_fields(a) < _ref_fields(b))
        assert (a <= b) == (_ref_fields(a) <= _ref_fields(b))
        assert (a.base < b.base) == (_base_fields(a.base) < _base_fields(b.base))
        assert hash(a) == hash((a.base, a.path))
        assert hash(a.base) == hash(_base_fields(a.base))

    @given(st.lists(_any_refs, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_refs_sort_by_their_fields(self, refs):
        assert [_ref_fields(r) for r in sorted(refs)] == sorted(
            _ref_fields(r) for r in refs
        )

    @given(_any_states, _any_states, _values, _values)
    @settings(max_examples=200, deadline=None)
    def test_states_and_values_compare_and_hash_by_their_fields(
        self, s, t, v, w
    ):
        assert (s == t) == (_state_fields(s) == _state_fields(t))
        assert hash(s) == hash(_state_fields(s))
        assert (v == w) == (_value_fields(v) == _value_fields(w))
        assert hash(v) == hash(_value_fields(v))

    @given(_any_refs, _any_states, _values)
    @settings(max_examples=100, deadline=None)
    def test_repr_is_the_dataclass_form(self, ref, state, value):
        base = ref.base
        assert repr(base) == (
            f"RefBase(kind={base.kind!r}, name={base.name!r}, "
            f"index={base.index!r})"
        )
        assert repr(ref) == f"Ref(base={base!r}, path={ref.path!r})"
        assert repr(state) == (
            f"RefState(definition={state.definition!r}, "
            f"null={state.null!r}, alloc={state.alloc!r}, "
            f"rng={state.rng!r})"
        )
        assert repr(value) == (
            f"Value(state={value.state!r}, ref={value.ref!r}, "
            f"ctype={value.ctype!r}, null_literal={value.null_literal!r}, "
            f"fresh_call={value.fresh_call!r}, "
            f"alias_refs={value.alias_refs!r})"
        )

    @given(_any_refs, _any_states, _values)
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trips(self, ref, state, value):
        for record in (ref.base, ref, state, value):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(record, protocol))
                assert type(copy) is type(record)
                assert copy == record
