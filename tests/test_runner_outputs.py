"""tools/runner_outputs.py runs every protocol runner and tells arrays apart."""

import importlib.util
from pathlib import Path

import numpy as np

import lhvlab
from lhvlab import protocols
from lhvlab.geometry import RandomStream

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


def test_mid_block_streams_start_their_windows_mid_block():
    # Every stream the @mid outputs draw from: seeds 5 and 6, the party
    # stream ids of protocols and the model streams.
    for seed in tool.SEEDS:
        for stream_id in range(5):
            state = tool.mid_block(RandomStream(seed, stream_id))._gen.bit_generator.state
            assert state["buffer_pos"] in (1, 2, 3) and state["has_uint32"] == 1
