"""Span arithmetic and wrapper lifetime of the traced run."""

import importlib

import pytest

import layers
from tracing import Patcher, Tracer


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] (which holds d [2, 3]) and c [5, 6]
    tracer = Tracer("t", clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    a = tracer.open("a")
    b = tracer.open("b")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(b)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    assert tracer.self_times() == [10 - 3 - 1, 3 - 1, 1, 1]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert {s.trace_id for s in tracer.spans} == {"t"}


def test_close_out_of_order_is_rejected():
    tracer = Tracer("t")
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_wrapper_records_counts_and_closes_on_error():
    tracer = Tracer("t")

    def boom(x):
        raise ValueError(x)

    traced = tracer.wrap("boom", boom, count=lambda counts, a, k, r: counts.update(n=1))
    with pytest.raises(ValueError):
        traced(3)
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.spans[0].counts == {}
    ok = tracer.wrap("ok", len, count=lambda counts, a, k, r: counts.update(n=r))
    assert ok([1, 2]) == 2 and tracer.spans[1].counts == {"n": 2}


def _bindings():
    """Every binding of every traced target across the package's modules."""
    out = {}
    for module_name, attr, _, _ in layers.TARGETS:
        module = importlib.import_module(f"sgp_hawkes.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            out[(cls, method)] = vars(cls)[method]
            continue
        original = getattr(module, attr)
        for mod in layers.package_modules():
            for name, value in vars(mod).items():
                if value is original:
                    out[(mod, name)] = value
    return out


def test_install_rebinds_every_module_and_restore_undoes_it():
    before = _bindings()
    from sgp_hawkes import em, fitbase, vi

    tracer = Tracer("t")
    patcher = layers.install(tracer)
    try:
        assert vi.assemble_system is not before[(fitbase, "assemble_system")]
        assert em.assemble_system is vi.assemble_system is fitbase.assemble_system
        assert vi.expected_log_sigmoid.__wrapped__ is before[(vi, "expected_log_sigmoid")]
        assert all(getattr(owner, name) is not value for (owner, name), value in before.items())
    finally:
        patcher.restore()
    assert all(vars(owner)[name] is value for (owner, name), value in before.items())


def test_patcher_restores_in_reverse_order():
    class Box:
        x = 1

    patcher = Patcher()
    patcher.set(Box, "x", 2)
    patcher.set(Box, "x", 3)
    patcher.restore()
    assert Box.x == 1
