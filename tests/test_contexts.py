import pytest

from preloss.contexts import EMPTY, ContextError, VarContext, fmt_state


def test_enumeration_is_lexicographic_by_declaration():
    ctx = VarContext.of(("n", range(4)), ("b", range(2)))
    states = list(ctx.states())
    assert states[0] == (0, 0)
    assert states[1] == (0, 1)
    assert states[2] == (1, 0)
    assert states[-1] == (3, 1)
    assert ctx.n_states == 8
    for i, s in enumerate(states):
        assert ctx.index_of(s) == i
        assert ctx.state(i) == s


def test_equality_is_order_sensitive():
    a = VarContext.of(("x", (0, 1)), ("y", (0, 1)))
    b = VarContext.of(("y", (0, 1)), ("x", (0, 1)))
    assert a != b
    assert a == VarContext.of(("x", (0, 1)), ("y", (0, 1)))


def test_merge_remove_append():
    a = VarContext.of(("x", (0, 1)))
    b = VarContext.of(("z", ("p", "q")))
    m = a.merge(b)
    assert m.names == ("x", "z")
    assert m.remove("x") == b
    assert a.append("z", ("p", "q")) == m
    with pytest.raises(ContextError):
        a.merge(a)
    with pytest.raises(ContextError):
        a.append("x", (0,))


def test_invalid_contexts():
    with pytest.raises(ContextError):
        VarContext.of(("x", ()))
    with pytest.raises(ContextError):
        VarContext.of(("x", (0, 0)))
    with pytest.raises(ContextError):
        VarContext.of(("x", (0,)), ("x", (1,)))


def test_empty_context_has_one_state():
    assert EMPTY.n_states == 1
    assert list(EMPTY.states()) == [()]
    assert EMPTY.index_of(()) == 0


def test_tuple_domains_and_atoms():
    arrays = (("a", "b"), ("b", "c"))
    ctx = VarContext.of(("H", arrays), ("x", ("a", "b", "c")))
    assert ctx.n_states == 6
    assert ctx.index_of((("a", "b"), "c")) == 2
    assert ctx.atoms == frozenset({"a", "b", "c"})
    assert fmt_state((("a", "b"), 1)) == "((a,b),1)"


def test_unknown_value_reports_variable():
    ctx = VarContext.of(("x", (0, 1)))
    with pytest.raises(ContextError, match="x"):
        ctx.index_of((5,))


def test_projection_is_cached_and_matches_index_of():
    from preloss.contexts import _projection

    small = VarContext.of(("b", (0, 1)), ("m", ("x", "y")))
    big = VarContext.of(("n", range(3)), ("m", ("x", "y")), ("b", (0, 1)))
    expected = tuple(small.index_of((s[2], s[1])) for s in big.states())
    hits = _projection.cache_info().hits
    assert small.projection(big) == expected
    assert VarContext.of(("b", (0, 1)), ("m", ("x", "y"))).projection(big) is small.projection(big)
    assert _projection.cache_info().hits >= hits + 2
    assert _projection.cache_info().maxsize is not None
    with pytest.raises(ContextError, match="domain mismatch"):
        small.projection(VarContext.of(("b", (0, 1, 2)), ("m", ("x", "y"))))


def test_layout_is_cached_and_matches_index_of():
    from preloss.contexts import _layout

    pre = VarContext.of(("n", range(3)), ("m", ("x", "y")), ("b", (0, 1)))
    post = VarContext.of(("b", (0, 1)), ("m", ("x", "y")), ("h", (5, 6, 7)))
    bases, offsets = pre.layout(post, ("h", "b"))  # n dropped, m kept, h and b written
    for i, (_, m, _) in enumerate(pre.states()):
        for h in (5, 6, 7):
            for b in (0, 1):
                assert bases[i] + offsets[0][h] + offsets[1][b] == post.index_of((b, m, h))
    assert pre.layout(post, ("h", "b")) is pre.layout(post, ("h", "b"))
    assert _layout.cache_info().maxsize is not None
    for bad in (VarContext.of(("m", ("x", "y", "z"))), VarContext.of(("k", (0, 1)))):
        with pytest.raises(ContextError, match="domain mismatch|unknown variable"):
            pre.layout(bad, ())
