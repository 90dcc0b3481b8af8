"""Hypothesis properties of the MAC layer (DESIGN.md §11).

Quantified over random deployments, random intent masks, and random
model knobs:

* every session's output is a **subset of the intents** (MACs only
  remove transmitters);
* CSMA transmitters form an **independent set up to backoff ties** in
  the sense graph — two transmitting sense-neighbours always hold equal
  backoffs, and a transmitter never yields to a larger one;
* TDMA slots are a **proper coloring of the interference graph** and
  partition each frame (every station transmits exactly once per frame
  when saturated);
* :class:`~repro.mac.RateTable` lookups are **monotone** in SINR and
  bounded by the table's extremes;
* arbitration is a **pure function of ``(seed, round)``** — replaying
  any round of any session gives the identical mask;
* CSMA's CSR arbitration **equals the all-pairs oracle** — one pass
  per batch row over every sense pair — on sparse and dense networks,
  for any batch, persistence and contention window.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac import (
    CSMA, RateTable, SlottedAloha, TdmaFromColoring, round_rng,
)
from repro.network.network import Network

SIDES = {16: 1.6, 24: 2.0, 32: 2.2}


def _net(seed: int, n: int) -> Network:
    rng = np.random.default_rng(seed)
    while True:
        coords = rng.uniform(0.0, SIDES[n], size=(n, 2))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() > 1e-5:
            return Network(coords)


def _intents(seed: int, shape, density: float) -> np.ndarray:
    return np.random.default_rng(seed).random(shape) < density


MODEL = st.sampled_from(["aloha", "csma", "tdma"])


def _model(kind: str, seed: int):
    if kind == "aloha":
        return SlottedAloha(0.7, seed=seed)
    if kind == "csma":
        return CSMA(cw=4, seed=seed)
    return TdmaFromColoring(seed=seed)


@given(
    net_seed=st.integers(0, 50),
    n=st.sampled_from([16, 24]),
    kind=MODEL,
    mac_seed=st.integers(0, 20),
    intent_seed=st.integers(0, 50),
    density=st.floats(0.1, 1.0),
    round_no=st.integers(0, 200),
)
@settings(max_examples=40, deadline=None)
def test_output_subset_of_intents_and_replayable(
    net_seed, n, kind, mac_seed, intent_seed, density, round_no
):
    net = _net(net_seed, n)
    model = _model(kind, mac_seed)
    intents = _intents(intent_seed, (2, n), density)
    tx = model.session(net).transmit_mask(round_no, intents, net)
    assert tx.shape == intents.shape
    assert not np.any(tx & ~intents)
    replay = model.session(net).transmit_mask(round_no, intents, net)
    assert np.array_equal(tx, replay)


@given(
    net_seed=st.integers(0, 50),
    n=st.sampled_from([16, 24, 32]),
    mac_seed=st.integers(0, 20),
    cw=st.integers(2, 12),
    intent_seed=st.integers(0, 50),
    round_no=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_csma_independent_set_up_to_ties(
    net_seed, n, mac_seed, cw, intent_seed, round_no
):
    net = _net(net_seed, n)
    session = CSMA(cw=cw, seed=mac_seed).session(net)
    intents = _intents(intent_seed, (1, n), 0.8)
    tx = session.transmit_mask(round_no, intents, net)[0]
    backoff = session.round_backoff(round_no)
    for i, j in zip(session.sense_i.tolist(), session.sense_j.tolist()):
        if tx[i] and tx[j]:
            assert backoff[i] == backoff[j]
        elif tx[i] and intents[0, j]:
            assert backoff[i] <= backoff[j]
        elif tx[j] and intents[0, i]:
            assert backoff[j] <= backoff[i]


def _all_pairs_oracle(session, round_no: int, intents: np.ndarray):
    """CSMA arbitration as one all-pairs pass per batch row.

    Draws its own round-keyed stream (gate first, then backoff) and
    scans every sense pair for every row — the direct transcription of
    the rule "transmit unless an intending sense-neighbour drew a
    strictly smaller backoff".
    """
    model = session.model
    rng = round_rng(model.seed, round_no)
    if model.persist < 1.0:
        intents = intents & (rng.random(session.n) < model.persist)[None, :]
    backoff = rng.integers(0, model.cw, size=session.n)
    out = np.zeros_like(intents)
    for b in range(intents.shape[0]):
        act = intents[b]
        if not act.any():
            continue
        floor = np.full(session.n, model.cw, dtype=np.int64)
        mask = act[session.sense_j]
        np.minimum.at(
            floor, session.sense_i[mask], backoff[session.sense_j[mask]]
        )
        mask = act[session.sense_i]
        np.minimum.at(
            floor, session.sense_j[mask], backoff[session.sense_i[mask]]
        )
        out[b] = act & (backoff <= floor)
    return out


@given(
    net_seed=st.integers(0, 50),
    n=st.sampled_from([16, 24, 32]),
    backend=st.sampled_from(["dense", "sparse"]),
    sense_range=st.sampled_from([None, 0.25, 0.6, 1.6]),
    persist=st.sampled_from([0.5, 0.8, 1.0]),
    cw=st.sampled_from([1, 2, 4, 8, 16]),
    mac_seed=st.integers(0, 20),
    row_density=st.lists(
        st.sampled_from([0.0, 0.2, 0.6, 1.0]), min_size=1, max_size=4
    ),
    intent_seed=st.integers(0, 50),
    round_no=st.integers(0, 100),
)
@settings(max_examples=80, deadline=None)
def test_csma_matches_all_pairs_oracle(
    net_seed, n, backend, sense_range, persist, cw, mac_seed,
    row_density, intent_seed, round_no,
):
    # A short explicit sense range leaves stations with no sense
    # neighbours.  On the sparse backend the derived range (1.0 here)
    # is answered from the near field, while 1.6 lies beyond the
    # cutoff and takes the brute-force pair pass.
    cutoff = 1.2 if backend == "sparse" else None
    net = Network(_net(net_seed, n).coords, backend=backend, cutoff=cutoff)
    session = CSMA(
        sense_range, cw=cw, persist=persist, seed=mac_seed
    ).session(net)
    rng = np.random.default_rng(intent_seed)
    intents = np.stack([rng.random(n) < d for d in row_density])
    tx = session.transmit_mask(round_no, intents, net)
    assert tx.dtype == intents.dtype
    assert np.array_equal(tx, _all_pairs_oracle(session, round_no, intents))


@given(
    net_seed=st.integers(0, 50),
    n=st.sampled_from([16, 24]),
    mac_seed=st.integers(0, 20),
    scale=st.floats(1.0, 3.0),
)
@settings(max_examples=25, deadline=None)
def test_tdma_proper_coloring_and_frame_partition(
    net_seed, n, mac_seed, scale
):
    net = _net(net_seed, n)
    session = TdmaFromColoring(
        interference_scale=scale, seed=mac_seed
    ).session(net)
    ii, jj = session.interference_pairs
    assert np.all(session.slots[ii] != session.slots[jj])
    assert set(np.unique(session.slots)) <= set(range(session.frame))
    saturated = np.ones((1, n), dtype=bool)
    counts = np.zeros(n, dtype=int)
    for round_no in range(session.frame):
        counts += session.transmit_mask(round_no, saturated, net)[0]
    assert np.all(counts == 1)


@given(
    thresholds=st.lists(
        st.floats(0.5, 50.0), min_size=1, max_size=5, unique=True
    ),
    sinrs=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=10),
)
@settings(max_examples=50, deadline=None)
def test_rate_table_monotone_and_bounded(thresholds, sinrs):
    thresholds = sorted(thresholds)
    rates = tuple(range(2, 2 + len(thresholds)))
    table = RateTable(thresholds=tuple(thresholds), rates=rates)
    values = sorted(sinrs)
    looked_up = [table.rate_for(s) for s in values]
    assert looked_up == sorted(looked_up)
    assert all(1 <= r <= rates[-1] for r in looked_up)
    assert table.rate_for(thresholds[0] - 1e-9) == 1
    assert table.rate_for(thresholds[-1]) == rates[-1]
