"""Hypothesis properties of the sparse SINR backend (DESIGN.md §2.2).

Two contracts, quantified over random deployments, transmitter sets and
cutoffs:

* **covered ⇒ bitwise.**  When the cutoff covers the deployment
  (per-axis extent at most the cutoff, so the far set is empty) the
  sparse batched resolver equals the dense batched resolver bit for
  bit — same heard senders everywhere, for every batch row.
* **truncated ⇒ certified.**  With a live far field, sparse receptions
  are a subset of dense receptions (conservative acceptance), every
  discrepancy is a *rejection* whose dense SINR clears ``beta`` by less
  than the certified band explains, and the band genuinely brackets the
  true far-field interference.

A third contract pins the strong-entry arg-max of the resolvers:
``heard`` is bitwise the full near scan's, copied below as an oracle
(``_full_scan_oracle``), on both kernels and for any ``beta``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.network import Network
from repro.sinr.params import SINRParameters
from repro.sinr.reception import NO_SENDER, resolve_reception_batch
from repro.sinr.sparse import FFT_SLACK_REL, SparseGainBackend

PARAMS = SINRParameters.default()


def _coords(seed: int, n: int, side: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        coords = rng.uniform(0.0, side, size=(n, 2))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() > 1e-6:
            return coords


def _tx(seed: int, B: int, n: int, prob: float) -> np.ndarray:
    return np.random.default_rng(seed).random((B, n)) < prob


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    B=st.integers(1, 6),
    prob=st.floats(0.05, 0.9),
)
def test_covered_cutoff_bitwise_equal(seed, n, B, prob):
    side = 1.8
    coords = _coords(seed, n, side)
    dense = Network(coords, backend="dense")
    sparse = Network(coords, backend="sparse", cutoff=2.0)
    assert sparse.sparse_backend.far_empty
    tx = _tx(seed ^ 0xA5A5, B, n, prob)
    heard_dense = resolve_reception_batch(
        dense.gain_operator, tx, PARAMS.noise, PARAMS.beta
    )
    heard_sparse = resolve_reception_batch(
        sparse.gain_operator, tx, PARAMS.noise, PARAMS.beta
    )
    assert np.array_equal(heard_dense, heard_sparse)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 80),
    B=st.integers(1, 4),
    prob=st.floats(0.02, 0.3),
    cutoff=st.sampled_from([1.0, 1.5, 2.0]),
)
def test_truncated_cutoff_certified_conservative(seed, n, B, prob, cutoff):
    side = 7.0
    coords = _coords(seed, n, side)
    dense = Network(coords, backend="dense")
    sparse = Network(coords, backend="sparse", cutoff=cutoff)
    backend = sparse.sparse_backend
    tx = _tx(seed ^ 0x5A5A, B, n, prob)
    noise, beta = PARAMS.noise, PARAMS.beta
    heard_dense = resolve_reception_batch(
        dense.gain_operator, tx, noise, beta
    )
    heard_sparse = resolve_reception_batch(
        sparse.gain_operator, tx, noise, beta
    )
    # conservative acceptance: sparse receptions are dense receptions
    assert np.all(
        (heard_sparse == NO_SENDER) | (heard_sparse == heard_dense)
    )
    gains = dense.gains
    far, band = backend.far_band(tx)
    for b in range(B):
        transmitters = np.flatnonzero(tx[b])
        if transmitters.size == 0:
            continue
        total_true = gains[transmitters].sum(axis=0)
        near_total = backend._near_scan(transmitters)[0]
        far_true = total_true - near_total
        # the certificate: the band brackets the true far field
        assert np.all(far[b] + band[b] >= far_true - 1e-9)
        assert np.all(far[b] - band[b] <= far_true + 1e-9)
        # every discrepancy is explained by the band: the dense SINR
        # clears beta, but not once the certified band is charged
        missed = (heard_sparse[b] == NO_SENDER) & (
            heard_dense[b] != NO_SENDER
        )
        for u in np.flatnonzero(missed):
            sender = heard_dense[b, u]
            signal = gains[sender, u]
            denom_true = noise + total_true[u] - signal
            denom_cons = (
                noise + near_total[u] - signal + far[b, u] + band[b, u]
            )
            assert signal / denom_true >= beta  # dense really heard
            assert signal / denom_cons < beta * (1 + 1e-12)


# ----------------------------------------------------------------------
# strong-entry arg-max vs the full near scan
# ----------------------------------------------------------------------
def _full_scan_oracle(backend, tx, noise, beta, far="band"):
    """The full-scan numpy resolver the strong-entry path replaced.

    Folds every near entry of the transmitters' rows, takes the
    strongest sender by ``maximum.at`` + lowest-index ``minimum.at``
    and decides at every listener.  ``far="band"`` charges the batched
    FFT band (:meth:`resolve_reception_batch`); ``far="direct"`` the
    direct gather at every near-reached listener
    (:meth:`resolve_reception_sets`).
    """
    n = backend.n
    heard = np.full(tx.shape, NO_SENDER, dtype=np.intp)
    far_b = band_b = None
    if far == "band" and not backend.far_empty and tx.any():
        far_b, band_b = backend.far_band(tx)
    for b in range(tx.shape[0]):
        transmitters = np.flatnonzero(tx[b])
        if transmitters.size == 0:
            continue
        starts = backend.indptr[transmitters]
        lengths = backend.indptr[transmitters + 1] - starts
        pos = np.concatenate(
            [np.arange(s, s + k) for s, k in zip(starts, lengths)]
            + [np.empty(0, dtype=np.int64)]
        ).astype(np.int64)
        listeners = backend.indices[pos].astype(np.int64)
        values = backend.data[pos]
        senders = np.repeat(transmitters, lengths)
        total = np.bincount(listeners, weights=values, minlength=n)
        best_gain = np.zeros(n)
        np.maximum.at(best_gain, listeners, values)
        best_sender = np.full(n, n, dtype=np.int64)
        winners = values == best_gain[listeners]
        np.minimum.at(best_sender, listeners[winners], senders[winners])
        denom = noise + total - best_gain
        if far_b is not None:
            denom = denom + far_b[b] + band_b[b]
        elif far == "direct" and not backend.far_empty:
            cand = np.flatnonzero(best_sender < n)
            if cand.size:
                est, err = backend._far_direct(transmitters, cand)
                denom[cand] = denom[cand] + est + (
                    err + FFT_SLACK_REL * (est + err)
                )
        sinr = np.divide(best_gain, denom)
        ok = (best_sender < n) & (sinr >= beta) & ~tx[b]
        heard[b, ok] = best_sender[ok]
    return heard


def _assert_matches_oracle(backend, tx, noise, beta):
    """Batch and set resolvers, both kernels, against the oracle."""
    want = _full_scan_oracle(backend, tx, noise, beta)
    for kernel in ("numpy", "compiled"):
        got = backend.resolve_reception_batch(tx, noise, beta, kernel)
        assert np.array_equal(got, want), kernel
    want_sets = _full_scan_oracle(backend, tx, noise, beta, far="direct")
    sets = [np.flatnonzero(row) for row in tx]
    for kernel in ("numpy", "compiled"):
        rows = backend.resolve_reception_sets(sets, noise, beta, kernel)
        assert np.array_equal(np.asarray(rows).reshape(tx.shape),
                              want_sets), kernel


def _with_isolated_tail(coords: np.ndarray, k: int, cutoff: float):
    """Append ``k`` stations beyond ``cutoff`` of everything: the CSR
    ends in empty rows."""
    corner = coords.max(axis=0) + 2.0 * cutoff
    tail = corner + 1.5 * cutoff * np.arange(k)[:, None] * np.ones(2)
    return np.vstack([coords, tail])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    B=st.integers(1, 4),
    prob=st.floats(0.02, 0.6),
    cutoff=st.sampled_from([1.0, 1.5, 2.0]),
    side=st.sampled_from([1.0, 4.0, 7.0]),
    isolated=st.integers(0, 3),
)
def test_strong_scan_matches_full_scan_oracle(
    seed, n, B, prob, cutoff, side, isolated
):
    coords = _with_isolated_tail(_coords(seed, n, side), isolated, cutoff)
    m = coords.shape[0]
    backend = SparseGainBackend(coords, PARAMS, cutoff=cutoff)
    assert backend.indptr[m - isolated] == backend.indptr[m]
    tx = _tx(seed ^ 0x3C3C, B, m, prob)
    tx[seed % B] = False  # an all-idle row
    if isolated:
        tx[:, -1] = True  # a transmitter with an empty row
    # (noise, beta) change between calls on one backend; the last pair
    # leaves no strong entry.
    loud = 2.0 * float(backend.data.max(initial=1.0))
    for noise, beta in ((PARAMS.noise, PARAMS.beta), (0.25, 2.0),
                        (PARAMS.noise, PARAMS.beta), (loud, 1.0)):
        _assert_matches_oracle(backend, tx, noise, beta)


def test_no_strong_entry_in_deployment():
    """Stations spaced beyond the broadcast range but inside the cutoff:
    near entries exist, none clears ``beta * N``."""
    r = PARAMS.broadcast_range
    grid = np.stack(np.meshgrid(np.arange(5), np.arange(5)), -1)
    coords = 1.2 * r * grid.reshape(-1, 2).astype(float)
    backend = SparseGainBackend(coords, PARAMS, cutoff=2.0 * r)
    assert backend.indices.size > 0
    assert backend.data.max() < PARAMS.beta * PARAMS.noise * (1 - 1e-9)
    tx = _tx(11, 3, coords.shape[0], 0.3)
    _assert_matches_oracle(backend, tx, PARAMS.noise, PARAMS.beta)
    assert backend.resolve_reception_batch(
        tx, PARAMS.noise, PARAMS.beta
    ).max() == NO_SENDER


#: Boundary noise per (case, boundary): one sender decodes at
#: ``g / N >= beta``; two tied senders at ``g / (N + g) >= beta``; the
#: strong threshold sits at ``g = beta * N * (1 - STRONG_SLACK)``.
_SLACKED = 1.0 - 1e-9
BOUNDARIES = {
    ("pair", "decision"): lambda g, beta: g / beta,
    ("pair", "strong"): lambda g, beta: g / (beta * _SLACKED),
    ("tie", "decision"): lambda g, beta: g / beta - g,
    ("tie", "strong"): lambda g, beta: g / (beta * _SLACKED),
}


@pytest.mark.parametrize("case, boundary", sorted(BOUNDARIES))
def test_threshold_boundary(case, boundary):
    """Gains exactly at the decision and strong thresholds and 1-4 ulps
    of noise either side: numpy, compiled and the oracle agree."""
    if case == "pair":
        coords = np.array([[0.0, 0.0], [0.8, 0.0]])
        tx = np.array([[True, False], [False, True]])
        beta = PARAMS.beta
    else:  # listener 1 halfway between senders 0 and 2
        coords = np.array([[0.0, 0.0], [0.7, 0.0], [1.4, 0.0]])
        tx = np.array([[True, False, True], [True, False, False]])
        beta = 0.5
    backend = SparseGainBackend(coords, PARAMS, cutoff=2.0)
    gain = float(backend.data[0])
    assert np.all(backend.data[backend.indices == 1] == gain)
    outcomes = set()
    for ulps in range(-4, 5):
        noise = BOUNDARIES[case, boundary](gain, beta)
        for _ in range(abs(ulps)):
            noise = float(np.nextafter(noise, np.copysign(np.inf, ulps)))
        _assert_matches_oracle(backend, tx, noise, beta)
        heard = backend.resolve_reception_batch(tx, noise, beta)
        outcomes.add(int(heard[0, 1]))
    if boundary == "decision":
        assert outcomes == {NO_SENDER, 0}  # the boundary is crossed
    else:
        assert outcomes == {NO_SENDER}


@pytest.mark.parametrize("beta", [4e6, 1e7, 1e15, 1e17])
def test_large_beta_boundary(beta):
    """Above ``beta ~ 1.1e6`` the floor's slack widens with ``beta``
    (past 1 at ``beta ~ 1.1e15``, where every entry competes).  Noise
    steps by an eighth of an ulp of the gain across the decision
    boundary, so ``fl(N + g) - g`` (a multiple of that ulp) also rounds
    below ``g / beta`` while ``N`` is above it: the oracle and both
    kernels agree."""
    coords = np.array([[0.0, 0.0], [0.8, 0.0]])
    tx = np.array([[True, False], [False, True]])
    backend = SparseGainBackend(coords, PARAMS, cutoff=2.0)
    gain = float(backend.data[0])
    step = float(np.spacing(gain)) / 8
    outcomes = set()
    for k in range(-32, 33):
        noise = gain / beta + k * step
        if noise <= 0:
            continue
        with np.errstate(divide="ignore"):  # fl(N + g) - g can be 0
            _assert_matches_oracle(backend, tx, noise, beta)
            heard = backend.resolve_reception_batch(tx, noise, beta)
        outcomes.add(int(heard[0, 1]))
    assert outcomes == {NO_SENDER, 0}
