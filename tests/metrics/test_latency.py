"""Tests for the construction-latency metric."""

import numpy as np

from repro.core.backoff import BackoffParams, BiasedBackoff
from repro.core.mtmrp import MtmrpAgent
from repro.protocols.odmrp import OdmrpAgent
from tests.core.helpers import build, collect_round, line_positions, run_round


def _latency(agent_factory, positions, receivers, seed=1):
    sim, net, agents = build(positions, 25.0, receivers=receivers,
                             agent_factory=agent_factory, seed=seed)
    run_round(sim, agents)
    m, _traffic = collect_round(net, agents, receivers)
    return m.construction_latency


def test_latency_positive_and_bounded():
    lat = _latency(lambda: MtmrpAgent(), line_positions(5), [4])
    bo = BiasedBackoff(BackoffParams())
    assert 0.0 < lat < 5 * bo.max_delay()  # 4 hops of at most max_delay each


def test_latency_grows_with_path_length():
    short = _latency(lambda: MtmrpAgent(), line_positions(3), [2])
    long = _latency(lambda: MtmrpAgent(), line_positions(7), [6])
    assert long > short


def test_latency_scales_with_w():
    slow = lambda: MtmrpAgent(backoff=BiasedBackoff(BackoffParams(w=0.01)))
    fast = lambda: MtmrpAgent(backoff=BiasedBackoff(BackoffParams(w=0.001)))
    assert _latency(slow, line_positions(5), [4]) > _latency(fast, line_positions(5), [4])


def test_odmrp_has_latency_too():
    lat = _latency(lambda: OdmrpAgent(), line_positions(5), [4])
    assert lat > 0.0


def test_zero_receiver_adjacent_to_source():
    """Receiver one hop from the source: latency is essentially the MAC
    access time (no backoff involved for the source's own flood)."""
    lat = _latency(lambda: MtmrpAgent(), line_positions(2), [1])
    assert 0.0 <= lat < 1e-3
