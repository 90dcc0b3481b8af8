"""Property-based tests for the vectorized protocol layer.

Invariants that must hold for arbitrary (small) deployments and random
participant sets: legal color assignments, conservation of the informed
set, and agreement between the outcome record and the per-station data.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.coloring import FINAL_COLOR_LEVEL, NOT_PARTICIPATING
from repro.core.constants import ProtocolConstants
from repro.core.outcome import NEVER_INFORMED
from repro.fastsim import (
    fast_coloring_batch,
    fast_spont_broadcast_batch,
    fast_uniform_broadcast_batch,
)
from repro.network.network import Network

CONSTANTS = ProtocolConstants.practical()


@st.composite
def small_network(draw):
    """A random connected-ish network of 2-10 distinct stations."""
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    # Chain backbone with jitter guarantees distinctness and connectivity.
    xs = np.arange(n) * 0.45 + rng.uniform(-0.05, 0.05, size=n)
    ys = rng.uniform(-0.1, 0.1, size=n)
    return Network(np.column_stack([xs, ys])), seed


class TestFastColoringProperties:
    @given(data=small_network(), mask_seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_colors_legal_for_any_participant_set(self, data, mask_seed):
        net, seed = data
        rng = np.random.default_rng(seed)
        mask_rng = np.random.default_rng(mask_seed)
        participants = mask_rng.random(net.size) < 0.7
        if not participants.any():
            participants[0] = True
        result = fast_coloring_batch(
            net, CONSTANTS, [rng], participants=participants
        ).replication(0)
        n = net.size
        legal = {
            CONSTANTS.color_of_level(lv, n)
            for lv in range(CONSTANTS.num_levels(n))
        } | {CONSTANTS.survivor_color}
        for i in range(n):
            if participants[i]:
                assert any(
                    abs(result.colors[i] - v) < 1e-12 for v in legal
                )
                assert result.quit_levels[i] != NOT_PARTICIPATING
            else:
                assert np.isnan(result.colors[i])
                assert result.quit_levels[i] == NOT_PARTICIPATING

    @given(data=small_network())
    @settings(max_examples=25, deadline=None)
    def test_quit_levels_within_ladder(self, data):
        net, seed = data
        result = fast_coloring_batch(
            net, CONSTANTS, [np.random.default_rng(seed)]
        ).replication(0)
        for level in result.quit_levels:
            assert (
                level == FINAL_COLOR_LEVEL
                or 0 <= level < result.schedule.levels
            )


class TestBroadcastProperties:
    @given(data=small_network(), source_frac=st.floats(0.0, 0.999))
    @settings(max_examples=25, deadline=None)
    def test_informed_set_conservation(self, data, source_frac):
        net, seed = data
        source = int(source_frac * net.size)
        out = fast_spont_broadcast_batch(
            net, source, CONSTANTS, [np.random.default_rng(seed)]
        )[0]
        informed = out.informed_round
        # Source informed at round 0; nobody informed before round 0;
        # completion consistent with the per-station data.
        assert informed[source] == 0
        assert np.all((informed >= 0) | (informed == NEVER_INFORMED))
        if out.success:
            assert out.completion_round == informed.max()
            assert out.num_informed == net.size
        else:
            assert np.any(informed == NEVER_INFORMED)

    @given(data=small_network())
    @settings(max_examples=20, deadline=None)
    def test_uniform_flood_progress_monotone(self, data):
        net, seed = data
        out = fast_uniform_broadcast_batch(
            net, 0, [np.random.default_rng(seed)], q=0.5
        )[0]
        curve = out.progress_curve()
        assert np.all(np.diff(curve) >= 0)
        assert curve[0] >= 1  # the source

    @given(data=small_network(), budget=st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_budget_respected(self, data, budget):
        net, seed = data
        out = fast_uniform_broadcast_batch(
            net, 0, [np.random.default_rng(seed)], q=0.5, round_budget=budget
        )[0]
        assert out.total_rounds <= budget
