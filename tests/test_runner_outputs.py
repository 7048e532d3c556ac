"""tools/runner_outputs.py runs every protocol runner and tells arrays apart."""

import importlib.util
from pathlib import Path

import numpy as np

import lhvlab
from lhvlab import protocols

_SPEC = importlib.util.spec_from_file_location(
    "runner_outputs", Path(__file__).parents[1] / "tools" / "runner_outputs.py")
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)


def test_every_protocol_runner_is_listed(monkeypatch):
    runners = {name for name in dir(protocols) if name.startswith("run_")}
    called = set()
    for name in runners:
        monkeypatch.setattr(protocols, name, lambda *args, name=name, **kw: called.add(name))
    for run, _ in tool.runners(lhvlab).values():
        run(10, 1, False)
    assert called == runners


def test_digest_tells_dtype_shape_and_bytes_apart():
    x = np.zeros(4)
    variants = (x, x.reshape(2, 2), x.astype(np.int64), x + 1.0, (x,), [x])
    assert len({tool._digest(v) for v in variants}) == len(variants)
    assert tool._digest(x.copy()) == tool._digest(x)
