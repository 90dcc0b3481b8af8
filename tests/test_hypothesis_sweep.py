"""Property-based tests for the batched sweep engine.

The exact-equality contract (DESIGN.md §6): for *any* small network,
batch size and master seed, the batched sweep's per-replication outputs
equal a Python loop of ``B = 1`` kernel calls over the same spawned
generators — bitwise, not statistically.  Replication independence is
what the property exercises: any state leaking across the batch axis
(shared counters, wrong masking, cross-replication reductions that
reassociate floating-point sums) breaks it immediately.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.constants import ProtocolConstants
from repro.fastsim import (
    fast_colored_wakeup_batch,
    fast_coloring_batch,
    fast_consensus_batch,
    fast_spont_broadcast_batch,
    fast_uniform_broadcast_batch,
    run_sweep,
    spawn_rngs,
)
from repro.network.network import Network
from repro.sinr.channel import DualSlope, LogNormalShadowing

CONSTANTS = ProtocolConstants.practical()


@st.composite
def small_network(draw):
    """A random connected-ish network of 2-8 distinct stations."""
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    # Chain backbone with jitter guarantees distinctness and connectivity.
    xs = np.arange(n) * 0.45 + rng.uniform(-0.05, 0.05, size=n)
    ys = rng.uniform(-0.1, 0.1, size=n)
    return Network(np.column_stack([xs, ys]))


@st.composite
def off_ideal_network(draw):
    """A 2D or 3D chain-backbone network under a non-uniform channel.

    The batched-equals-sequential property must not depend on the gain
    matrix being the idealized ``P d^-alpha`` — the kernels only ever see
    ``net.gains`` — nor on the deployment being planar.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    xs = np.arange(n) * 0.45 + rng.uniform(-0.05, 0.05, size=n)
    columns = [xs, rng.uniform(-0.1, 0.1, size=n)]
    if draw(st.booleans()):
        columns.append(rng.uniform(-0.1, 0.1, size=n))  # 3D deployment
    channel = draw(
        st.sampled_from(
            [
                LogNormalShadowing(
                    sigma_db=draw(st.floats(0.5, 6.0)),
                    seed=draw(st.integers(0, 2 ** 10)),
                ),
                DualSlope(breakpoint=draw(st.floats(0.3, 1.5))),
            ]
        )
    )
    return Network(np.column_stack(columns), channel=channel)


class TestSweepExactEquality:
    @given(
        net=small_network(),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_coloring_batch_equals_loop(self, net, batch, seed):
        rngs = spawn_rngs(batch, seed)
        result = fast_coloring_batch(net, CONSTANTS, rngs)
        for b, rng in enumerate(spawn_rngs(batch, seed)):
            single = fast_coloring_batch(net, CONSTANTS, [rng]).replication(0)
            assert np.array_equal(result.quit_levels[b], single.quit_levels)
            assert np.allclose(
                result.colors[b], single.colors, equal_nan=True
            )

    @given(
        net=small_network(),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_spont_sweep_equals_loop(self, net, batch, seed):
        sweep = run_sweep(
            "spont_broadcast", net, batch, seed, CONSTANTS, source=0
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(batch, seed)):
            single = fast_spont_broadcast_batch(net, 0, CONSTANTS, [rng])[0]
            assert np.array_equal(out.informed_round, single.informed_round)
            assert out.total_rounds == single.total_rounds
            assert out.success == single.success

    @given(
        net=off_ideal_network(),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_spont_sweep_equals_loop_off_ideal(self, net, batch, seed):
        """Exact equality under shadowed/dual-slope channels and 3D
        deployments — not just the default 2D uniform-power case."""
        sweep = run_sweep(
            "spont_broadcast", net, batch, seed, CONSTANTS, source=0
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(batch, seed)):
            single = fast_spont_broadcast_batch(net, 0, CONSTANTS, [rng])[0]
            assert np.array_equal(out.informed_round, single.informed_round)
            assert out.total_rounds == single.total_rounds
            assert out.success == single.success

    @given(
        net=off_ideal_network(),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_coloring_batch_equals_loop_off_ideal(self, net, batch, seed):
        rngs = spawn_rngs(batch, seed)
        result = fast_coloring_batch(net, CONSTANTS, rngs)
        for b, rng in enumerate(spawn_rngs(batch, seed)):
            single = fast_coloring_batch(net, CONSTANTS, [rng]).replication(0)
            assert np.array_equal(result.quit_levels[b], single.quit_levels)
            assert np.allclose(
                result.colors[b], single.colors, equal_nan=True
            )

    @given(
        net=small_network(),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10 ** 6),
        q=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_uniform_sweep_equals_loop(self, net, batch, seed, q):
        sweep = run_sweep(
            "uniform_broadcast", net, batch, seed, q=q, source=0
        )
        for out, rng in zip(sweep.outcomes, spawn_rngs(batch, seed)):
            single = fast_uniform_broadcast_batch(net, 0, [rng], q=q)[0]
            assert np.array_equal(out.informed_round, single.informed_round)
            assert out.total_rounds == single.total_rounds

    @given(
        net=small_network(),
        batch=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=10, deadline=None)
    def test_colored_wakeup_batch_equals_loop(self, net, batch, seed):
        base = np.full(net.size, 0.05)
        outs = fast_colored_wakeup_batch(
            net, [0], base, CONSTANTS, spawn_rngs(batch, seed)
        )
        for out, rng in zip(outs, spawn_rngs(batch, seed)):
            single = fast_colored_wakeup_batch(
                net, [0], base, CONSTANTS, [rng]
            )[0]
            assert np.array_equal(out.informed_round, single.informed_round)
            assert out.total_rounds == single.total_rounds

    @given(
        net=small_network(),
        batch=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10 ** 6),
        x_max=st.sampled_from([1, 3, 7]),
    )
    @settings(max_examples=6, deadline=None)
    def test_consensus_sweep_equals_loop(self, net, batch, seed, x_max):
        sweep = run_sweep(
            "consensus", net, batch, seed, CONSTANTS, x_max=x_max
        )
        for res, rng in zip(sweep.outcomes, spawn_rngs(batch, seed)):
            values = rng.integers(0, x_max + 1, size=net.size)
            single = fast_consensus_batch(
                net, values.tolist(), x_max, CONSTANTS, [rng]
            )[0]
            assert np.array_equal(res.decided, single.decided)
            assert res.total_rounds == single.total_rounds
            assert res.rounds_per_bit == single.rounds_per_bit
            assert res.agreed == single.agreed
            assert res.correct == single.correct
