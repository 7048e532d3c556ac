import io
import math

import numpy as np
import pytest
from scipy import stats

from lhvlab import geometry, protocols
from lhvlab.geometry import RandomStream, dot, planar_setting, sgn, substream
from lhvlab.models import MODELS, JointLaw2x2, estimate_law, law_table, outcome_counts, singlet_law
from lhvlab.protocols import (_CSV_CHUNK_ROWS, _CSV_COLUMNS, CSV_HEADER, EMISSION_STEP, N_BINS,
                              STREAM_A, STREAM_B, STREAM_SHARED_AB, TIME_OF_FLIGHT, WATCH_A,
                              WATCH_B, TranscriptBatch, _bin_index, _fmt,
                              deviation_from_binned_counts,
                              run_conspiracy_audit, run_detection_loophole,
                              run_shared_coin,
                              run_signaling_experiment, run_tb_freewill,
                              run_tb_protocol, run_watch_realization,
                              station_watch_vectors, watch_vector)
from recorded_runs import recorded

X = planar_setting(0.0)
B63 = planar_setting(63.0)


def csv_bits(text):
    """The sums of the bitsAB and bitsBA cells of a transcript CSV."""
    rows = [line.rsplit(",", 2)[1:] for line in text.splitlines()[1:]]
    return sum(int(ab) for ab, _ in rows), sum(int(ba) for _, ba in rows)


# ---------------------------------------------------------------------------
# One-bit protocol


def test_tb_protocol_bit_accounting_is_exact():
    res = run_tb_protocol(5000, X, B63, seed=1)
    assert res.bits_a_to_b == 5000
    assert res.bits_b_to_a == 0
    assert res.summary()["channels"]["communication_assisted"]
    # The counted total is the sum of the bits each trial sent.
    _, text, tr = recorded(run_tb_protocol, 5000, X, B63, seed=1)
    assert res.bits_a_to_b == int(tr["bits_a_to_b"].sum()) == csv_bits(text)[0]


def test_tb_meter_counts_one_bit_on_every_trial():
    n = 1000
    res, _, tr = recorded(run_tb_protocol, n, X, B63, seed=5)
    assert res.bits_a_to_b == n
    assert tr["bits_a_to_b"].tolist() == [1] * n
    # Only the A->B channel carries bits.
    assert res.bits_b_to_a == 0 and "bits_b_to_a" not in tr
    free, text, tr = recorded(run_tb_freewill, n, X, B63, seed=5)
    assert (free.bits_a_to_b, free.bits_b_to_a) == (0, 0) == csv_bits(text)
    assert "bits_a_to_b" not in tr and "bits_b_to_a" not in tr


@pytest.mark.parametrize("n", [1, 2 * _CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("run, bits", [(run_tb_protocol, 1), (run_tb_freewill, 0)],
                         ids=["tb", "tb-freewill"])
def test_transcript_bit_columns_add_up_to_the_counted_totals(run, bits, n):
    fh = io.StringIO()
    res = run(n, X, B63, seed=11, record=fh)
    assert csv_bits(fh.getvalue()) == (res.bits_a_to_b, res.bits_b_to_a) == (bits * n, 0)


def test_tb_protocol_converges_to_singlet():
    res = run_tb_protocol(400_000, X, B63, seed=2, record=False)
    assert res.law.max_abs_diff(singlet_law(X, B63)) < 0.01


def test_tb_protocol_reproducible():
    r1, _, t1 = recorded(run_tb_protocol, 20_000, X, B63, seed=3)
    r2, _, t2 = recorded(run_tb_protocol, 20_000, X, B63, seed=3)
    assert np.array_equal(t1["sigma"], t2["sigma"])
    assert np.array_equal(t1["tau"], t2["tau"])
    assert np.array_equal(t1["u"], t2["u"])
    assert r1.law.p.tolist() == r2.law.p.tolist()


def test_tb_protocol_message_carries_remote_setting():
    # Positive control for the locality tests below: with one bit of
    # communication the partner outcomes do change when a changes.
    _, _, t1 = recorded(run_tb_protocol, 20_000, planar_setting(0.0), B63, seed=4)
    _, _, t2 = recorded(run_tb_protocol, 20_000, planar_setting(70.0), B63, seed=4)
    assert not np.array_equal(t1["tau"], t2["tau"])


# ---------------------------------------------------------------------------
# Constrained-choice reading (zero communication)


def test_tb_freewill_zero_bits_and_constraint():
    res, _, tr = recorded(run_tb_freewill, 50_000, X, B63, seed=5)
    assert res.bits_a_to_b + res.bits_b_to_a == 0
    assert not res.summary()["channels"]["communication_assisted"]
    want = sgn(np.einsum("ij,ij->i", tr["u"], tr["a_used"])) * \
        sgn(np.einsum("ij,ij->i", tr["v"], tr["a_used"]))
    assert np.array_equal(tr["c"], want)
    assert np.all(tr["a_used"] == X)  # the requested setting is the one used


def test_tb_freewill_converges_to_singlet():
    res = run_tb_freewill(400_000, X, B63, seed=6, record=False)
    assert res.law.max_abs_diff(singlet_law(X, B63)) < 0.01


def test_tb_freewill_partner_outcome_local():
    # tau is a pure function of the logged global hidden variables and b.
    _, _, tr = recorded(run_tb_freewill, 10_000, X, B63, seed=7)
    recomputed = -sgn(np.einsum("ij,ij->i", tr["u"] + tr["c"][:, None] * tr["v"],
                                tr["b_used"]))
    assert np.array_equal(recomputed, tr["tau"])
    # and sigma never reads b
    _, _, t2 = recorded(run_tb_freewill, 10_000, X, planar_setting(150.0), seed=7)
    assert np.array_equal(tr["sigma"], t2["sigma"])


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("n", [1, 70_001, 300_007])
@pytest.mark.parametrize("run, model", [(run_tb_protocol, "tb"), (run_tb_freewill, "tb-freewill")],
                         ids=["tb", "tb-freewill"])
def test_one_bit_runners_count_what_the_model_samples(run, model, n, seed):
    # The runners are the models' one construction: the same draws and rules
    # give the same count table, whatever the chunking.
    res = run(n, X, B63, seed)
    law = estimate_law(model, X, B63, n, RandomStream(seed))
    assert np.array_equal(res.law.counts, law.counts)


# ---------------------------------------------------------------------------
# Shared-coin realization


def test_shared_coin_budgets():
    n = 30_000
    res = run_shared_coin(n, seed=8)
    assert res.bits_a_to_b + res.bits_b_to_a == 0
    assert res.shared_draws_total == 2 * n
    assert res.causal_mode == "lambda_causes_settings"


def test_shared_coin_counts_its_draws_on_a_stream_that_has_drawn(monkeypatch):
    # The count is how far the shared stream's counter moves during the
    # run, not where it ends: here every stream has drawn 8 values first.
    n, streams, made = 70_001, [], protocols.substream

    def drawn_first(master_seed, stream_id):
        stream = made(master_seed, stream_id)
        stream.uniform(3)
        stream.integers(0, 12_566, 5)
        streams.append(stream)
        return stream
    monkeypatch.setattr(protocols, "substream", drawn_first)
    res = run_shared_coin(n, seed=8)
    assert res.shared_draws_total == 2 * n
    shared, = (s for s in streams if s.stream_id == STREAM_SHARED_AB)
    assert shared.counter == 8 + 2 * n


def test_shared_coin_forced_branch():
    _, _, tr = recorded(run_shared_coin, 20_000, seed=9)
    m = (tr["c"] == 0) & (tr["d"] == 1)
    assert np.all(tr["a_used"][m] == tr["u"][m])
    assert np.all(tr["sigma"][m] == 1.0)
    m = (tr["c"] == 1) & (tr["d"] == 1)
    assert np.all(tr["b_used"][m] == tr["v"][m])
    assert np.all(tr["tau"][m] == 1.0)


def test_shared_coin_recovers_singlet_binned():
    res = run_shared_coin(2_000_000, seed=10, record=False)
    assert res.singlet_comparison["max_abs_dev"] < 0.005
    assert res.singlet_comparison["min_bin_count"] > 100_000


def test_shared_coin_locality_fault_injection():
    # Corrupting the A side (different requested setting) must leave B's
    # outcomes untouched bit for bit, and symmetrically.
    _, _, base = recorded(run_shared_coin, 20_000, seed=11, a_policy=planar_setting(10.0))
    _, _, corrupt = recorded(run_shared_coin, 20_000, seed=11, a_policy=planar_setting(160.0))
    assert np.array_equal(base["tau"], corrupt["tau"])
    assert not np.array_equal(base["sigma"], corrupt["sigma"])
    _, _, base = recorded(run_shared_coin, 20_000, seed=12, b_policy=planar_setting(20.0))
    _, _, corrupt = recorded(run_shared_coin, 20_000, seed=12, b_policy=planar_setting(110.0))
    assert np.array_equal(base["sigma"], corrupt["sigma"])


@pytest.mark.parametrize("policy", [[[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]],
                                    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                    [2.0, 0.0, 0.0], [1.0, 0.0], "fixed",
                                    [math.nan, 0.0, 0.0]])
def test_shared_coin_rejects_a_policy_that_is_not_one_unit_vector(policy):
    with pytest.raises(ValueError):
        run_shared_coin(10, seed=14, a_policy=policy)
    with pytest.raises(ValueError):
        run_shared_coin(10, seed=14, b_policy=policy)


@pytest.mark.parametrize("policy", [[2.0, 0.0, 0.0], "fixed", [math.nan, 0.0, 0.0]])
@pytest.mark.parametrize("side", ["a_policy", "b_policy"])
def test_shared_coin_checks_a_fixed_policy_before_any_draw(monkeypatch, side, policy):
    streams = _recorded_streams(monkeypatch)
    with pytest.raises(ValueError):
        run_shared_coin(1000, 1, **{side: policy})
    assert sum(s.counter for s in streams) == 0


# ---------------------------------------------------------------------------
# Detection loophole


def test_detection_symmetric_quarter_efficiency():
    rep = run_detection_loophole(1_000_000, "symmetric", seed=13)
    assert abs(rep.efficiency - 0.25) < 0.01
    assert rep.expected_efficiency == 0.25
    assert rep.singlet_deviation < 0.01
    # Every setting pair's law, not only the pooled one, is near its singlet.
    laws = rep.counts / rep.counts.sum(axis=(1, 2), keepdims=True)
    assert (np.abs(laws - rep.reference).max(axis=(1, 2)) < 0.01).all()


def test_detection_asymmetric_half_efficiency():
    rep = run_detection_loophole(1_000_000, "asymmetric", seed=14)
    assert abs(rep.efficiency - 0.50) < 0.01
    assert rep.singlet_deviation < 0.01


@pytest.mark.parametrize("target", [0.05, 0.1])
def test_detection_sphere_efficiency_tracks_cell_size(target):
    delta_omega = target * 2 * math.pi
    rep = run_detection_loophole(1_000_000, "sphere", seed=15,
                                 delta_omega=delta_omega)
    assert rep.expected_efficiency == pytest.approx(target)
    se = math.sqrt(target * (1 - target) / 1_000_000)
    assert abs(rep.efficiency - target) <= 3 * se
    assert rep.singlet_deviation < 0.01


@pytest.mark.parametrize("n", [4, 16])
def test_detection_sphere_counts_coincidences_per_overlap_bin(n):
    # Sphere mode bins its coincidences by a.b as the binned comparison
    # does, and judges each filled bin at the bin's mean overlap.
    rep, _, tr = recorded(run_detection_loophole, 100_000, "sphere", 21, n_directions=n)
    m = tr["detected_a"] & tr["detected_b"]
    counts, t_sums = _binned_counts(dot(tr["a_used"][m], tr["b_used"][m]),
                                    tr["sigma"][m], tr["tau"][m])
    assert np.array_equal(rep.counts, counts)
    filled = counts.sum(axis=(1, 2))
    # Four directions give only a few overlaps, so most bins stay empty.
    assert np.count_nonzero(filled) == (N_BINS if n == 16 else 4)
    assert np.array_equal(rep.reference, [law_table(s / k) if k else np.zeros((2, 2))
                                          for s, k in zip(t_sums, filled)])


def test_detection_validation():
    with pytest.raises(ValueError):
        run_detection_loophole(100, "sphere", seed=16)  # no cell size
    with pytest.raises(ValueError):
        run_detection_loophole(100, "nonsense", seed=17)
    with pytest.raises(ValueError):
        # duplicated directions collapse the instruction set
        run_detection_loophole(100, "symmetric", seed=18,
                               settings_a=[planar_setting(0.0), planar_setting(45.0)],
                               settings_b=[planar_setting(45.0), planar_setting(135.0)])


def _along(u, x):
    return np.all(u == x, axis=1) | np.all(u == -x, axis=1)


@pytest.mark.parametrize("mode, n_directions", [
    ("symmetric", None), ("asymmetric", None),
    ("sphere", 2), ("sphere", 64), ("sphere", 20_000),
])
def test_detection_fire_flags_are_the_match_rule(mode, n_directions):
    # The flagged particle fires exactly when its setting equals +-u.
    rep, _, tr = recorded(run_detection_loophole, 100_000, mode, seed=20,
                          n_directions=n_directions)
    assert np.array_equal(tr["detected_a"], (tr["c"] == 0) | _along(tr["u"], tr["a_used"]))
    assert np.array_equal(tr["detected_b"], (tr["c"] == 1) | _along(tr["u"], tr["b_used"]))
    if n_directions == 2:
        # One antipodal pair: every setting lies along the spin.
        assert rep.efficiency == 1.0


def _masked_counts(tr, settings_a, settings_b):
    """Reference: the coincidence counts per setting pair, their singlet
    tables and the laws' worst deviation from them, one coincidence mask and
    four count_nonzero calls per pair, from the transcript columns tr."""
    coincidence = tr["detected_a"] & tr["detected_b"]
    counts, reference, dev = [], [], 0.0
    for x in settings_a:
        for y in settings_b:
            m = (coincidence & np.all(tr["a_used"] == x, axis=1)
                 & np.all(tr["b_used"] == y, axis=1))
            n = int(np.count_nonzero(m))
            sp = tr["sigma"][m] > 0
            tp = tr["tau"][m] > 0
            p = np.array([[np.count_nonzero(sp & tp), np.count_nonzero(sp & ~tp)],
                          [np.count_nonzero(~sp & tp), np.count_nonzero(~sp & ~tp)]])
            ref = singlet_law(x, y)
            counts.append(p)
            reference.append(ref.p)
            if n:
                dev = max(dev, JointLaw2x2(p / n, n_trials=n).max_abs_diff(ref))
    return np.array(counts), np.array(reference), dev


DEFAULT_A = [planar_setting(0.0), planar_setting(90.0)]
DEFAULT_B = [planar_setting(45.0), planar_setting(135.0)]
GRID_A = [planar_setting(0.0), planar_setting(60.0), np.array([0.6, 0.0, 0.8])]
GRID_B = [planar_setting(30.0), np.array([0.0, 0.6, -0.8])]


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("n, seed, settings_a, settings_b", [
    (200_000, 41, None, None),
    (200_000, 42, GRID_A, GRID_B),
    # Few enough trials that some setting pair has no coincidence.
    (12, 1, None, None),
])
def test_detection_per_setting_matches_masked_reference(mode, n, seed, settings_a, settings_b):
    rep, _, tr = recorded(run_detection_loophole, n, mode, seed, settings_a=settings_a,
                          settings_b=settings_b)
    settings_a = DEFAULT_A if settings_a is None else settings_a
    settings_b = DEFAULT_B if settings_b is None else settings_b
    counts, reference, dev = _masked_counts(tr, settings_a, settings_b)
    assert rep.counts.dtype == np.int64 and np.array_equal(rep.counts, counts)
    assert np.array_equal(rep.reference, reference)
    assert rep.singlet_deviation == dev
    assert counts.sum() == rep.n_coincidences
    if n == 12:
        assert 0 < np.count_nonzero(counts.sum(axis=(1, 2))) < len(settings_a) * len(settings_b)


def test_detection_counts_every_pair_of_twenty_settings_a_side():
    # 400 setting pairs: the indices are stored as uint8, so a pair number
    # i * 20 + j worked out in uint8 would wrap at 256 and merge pairs.
    settings_a = [planar_setting(9.0 * i) for i in range(20)]
    settings_b = [planar_setting(9.0 * i + 4.5) for i in range(20)]
    rep = run_detection_loophole(400_000, "symmetric", 43, settings_a, settings_b)
    assert rep.counts.shape == (400, 2, 2) and rep.counts.any(axis=(1, 2)).all()
    assert rep.counts.sum() == rep.n_coincidences


def test_detection_transcript_records_detection_flags():
    rep, text, tr = recorded(run_detection_loophole, 5000, "symmetric", seed=19)
    assert int(np.count_nonzero(tr["detected_a"] & tr["detected_b"])) == rep.n_coincidences
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5001
    # undetected sides leave their outcome fields empty
    first_miss = int(np.nonzero(~(tr["detected_a"] & tr["detected_b"]))[0][0])
    assert lines[1 + first_miss].split(",")[6:8].count("") >= 1


# ---------------------------------------------------------------------------
# Watch realization


def test_watch_vector_examples():
    # A huge large-hand period pins the azimuth near 0, isolating the
    # small hand: half phase lands on the equator along x, full phase at
    # the north pole.
    from lhvlab.protocols import Watch
    wp = Watch(1.0, 10.0**9)
    assert np.allclose(watch_vector(0.5, wp), [1.0, 0.0, 0.0], atol=1e-6)
    assert np.allclose(watch_vector(1.0 - 1e-12, wp)[2], 1.0, atol=1e-9)


def test_watch_orbit_equidistributes():
    t = np.arange(1_000_000) * EMISSION_STEP
    v = watch_vector(t, WATCH_A)
    assert np.all(np.abs(v.mean(axis=0)) < 0.01)
    v = watch_vector(t, WATCH_B)
    assert np.all(np.abs(v.mean(axis=0)) < 0.01)


def test_watch_station_reconstruction_is_exact():
    t = np.arange(50_000) * EMISSION_STEP
    for watch in (WATCH_A, WATCH_B):
        ent = watch_vector(t, watch)
        station = station_watch_vectors(t + TIME_OF_FLIGHT, watch)
        assert np.array_equal(ent, station)


def _one_tick_late(epoch):
    return lambda arrival: epoch(arrival + EMISSION_STEP)


def _last_row_one_ulp_off(epoch):
    def reconstruct(arrival):
        k = epoch(arrival)
        k[-1] = np.nextafter(k[-1], math.inf)
        return k
    return reconstruct


@pytest.mark.parametrize("model", ["pinned", "hall"])
@pytest.mark.parametrize("fault", [_one_tick_late, _last_row_one_ulp_off])
def test_watch_runner_raises_when_a_station_epoch_drifts(monkeypatch, model, fault):
    # The runner reuses the entangler's vectors, so its epoch check is all
    # that stands between a drifting station clock and a silent desync.
    monkeypatch.setattr(protocols, "_emission_epoch", fault(protocols._emission_epoch))
    with pytest.raises(protocols.WatchDesyncError,
                       match="^station watch reconstruction differs from entangler$"):
        run_watch_realization(70_000, model, seed=3, record=False)


@pytest.mark.parametrize("model", ["pinned", "hall"])
def test_watch_runner_settings_are_the_station_reconstructions(model):
    _, _, tr = recorded(run_watch_realization, 70_000, model, seed=3, start_tick=-5)
    t = (np.arange(70_000) - 5) * EMISSION_STEP
    for used, watch in ((tr["a_used"], WATCH_A), (tr["b_used"], WATCH_B)):
        station = station_watch_vectors(t + TIME_OF_FLIGHT, watch)
        assert np.array_equal(used.view(np.int64), station.view(np.int64))


def test_watch_pinned_recovers_singlet():
    res = run_watch_realization(2_000_000, "pinned", seed=20, record=False)
    assert res.bits_a_to_b + res.bits_b_to_a == 0
    assert res.singlet_comparison["max_abs_dev"] < 0.005


def test_watch_hall_recovers_singlet():
    res = run_watch_realization(2_000_000, "hall", seed=21, record=False)
    assert res.singlet_comparison["max_abs_dev"] < 0.005


def test_watch_hall_spin_follows_conditional_density():
    # Stratify by the realized setting overlap and classify the spin into
    # the four sign cells; the cell masses are exact functions of the
    # overlap, so the chi-square against them is an exact-oracle test.
    _, _, tr = recorded(run_watch_realization, 300_000, "hall", seed=22)
    t = np.einsum("ij,ij->i", tr["a_used"], tr["b_used"])
    sa = sgn(np.einsum("ij,ij->i", tr["u"], tr["a_used"]))
    sb = sgn(np.einsum("ij,ij->i", tr["u"], tr["b_used"]))
    cell = ((sa > 0).astype(int) * 2 + (sb > 0).astype(int))
    strata = np.clip(((t + 1.0) * 5).astype(int), 0, 9)
    # same-sign cells carry (1+t)/4 each, differ-sign cells (1-t)/4
    p_cell = np.empty((len(t), 4))
    p_cell[:, 0] = p_cell[:, 3] = (1 + t) / 4
    p_cell[:, 1] = p_cell[:, 2] = (1 - t) / 4
    chi2 = 0.0
    dof = 0
    for s in range(10):
        m = strata == s
        if np.count_nonzero(m) < 1000:
            continue
        expected = p_cell[m].sum(axis=0)
        observed = np.bincount(cell[m], minlength=4)
        keep = expected > 20
        chi2 += float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        dof += int(keep.sum()) - 1
    assert stats.chi2.sf(chi2, dof) > 0.001


def test_watch_reproducible_and_tick_offset():
    _, _, t1 = recorded(run_watch_realization, 5000, "pinned", seed=23)
    _, _, t2 = recorded(run_watch_realization, 5000, "pinned", seed=23)
    assert np.array_equal(t1["sigma"], t2["sigma"])
    _, _, t3 = recorded(run_watch_realization, 5000, "pinned", seed=23, start_tick=5000)
    assert not np.array_equal(t1["a_used"], t3["a_used"])


# ---------------------------------------------------------------------------
# Signaling discrimination


def test_signaling_action_mode_delivers_message():
    res = run_signaling_experiment([0] * 1000, "action", 40_000, seed=24)
    assert res.success_rate == 1.0
    assert res.empirical_entropy == 0.0
    # Every usable trial sends a 0 and receives a 0.
    assert res.counts.tolist() == [[0, 0], [0, res.n_usable]]
    assert abs(res.usable_fraction - 0.5) < 0.01


def test_signaling_action_mode_arbitrary_message():
    msg = [0, 1, 1, 0, 1, 0, 0, 1]
    res = run_signaling_experiment(msg, "action", 10_000, seed=25)
    assert res.success_rate == 1.0
    # Every received bit is the intended one, and both bits are sent.
    assert res.counts[0, 1] == res.counts[1, 0] == 0
    assert res.counts[0, 0] > 0 and res.counts[1, 1] > 0
    assert res.n_matches == res.counts.sum() == res.n_usable


def test_signaling_slave_will_randomizes():
    res = run_signaling_experiment([0] * 1000, "slave-will", 40_000, seed=26)
    assert res.empirical_entropy >= 0.99
    assert abs(res.success_rate - 0.5) < 0.02
    assert abs(res.usable_fraction - 0.5) < 0.01


def test_signaling_validation():
    with pytest.raises(ValueError):
        run_signaling_experiment([0, 1], "action", 100, seed=27, angle_b=45.0)
    with pytest.raises(ValueError):
        run_signaling_experiment([], "action", 100, seed=28)
    with pytest.raises(ValueError):
        run_signaling_experiment([0, 2], "action", 100, seed=29)


def _recorded_streams(monkeypatch):
    """Every stream the runners make, in order."""
    streams = []

    def substream(seed, stream_id):
        streams.append(RandomStream(seed, stream_id))
        return streams[-1]
    monkeypatch.setattr(protocols, "substream", substream)
    return streams


@pytest.mark.parametrize("n_trials", [0, -1])
@pytest.mark.parametrize("mode", ["action", "slave-will"])
def test_signaling_rejects_fewer_than_one_trial_before_any_draw(monkeypatch, mode, n_trials):
    streams = _recorded_streams(monkeypatch)
    with pytest.raises(ValueError, match="n_trials"):
        run_signaling_experiment([0, 1], mode, n_trials, seed=30)
    assert sum(s.counter for s in streams) == 0


# ---------------------------------------------------------------------------
# Conspiracy audit


def test_audit_honest_mode_no_deviations_but_no_singlet():
    res = run_conspiracy_audit(200_000, X, X, "honest", seed=30)
    assert res.deviations == 0
    # With both settings pinned, the spin is uniform and the correlator
    # drops to -(a.b)/3: at a = b that puts 1/6 where the singlet has 0.
    assert res.law.prob(1, 1) == pytest.approx(1.0 / 6.0, abs=0.01)
    assert res.singlet_deviation > 0.05


def test_audit_slave_mode_deviates_toward_hidden_spin():
    res = run_conspiracy_audit(200_000, X, B63, "slave", seed=31)
    assert res.deviations == 200_000  # one station forced per trial
    assert res.deviations_match_u
    assert res.singlet_deviation < 0.01


def test_slave_audit_is_the_shared_coin_realization():
    n, seed = 20_000, 34
    audit = run_conspiracy_audit(n, X, B63, "slave", seed=seed)
    coin, _, t = recorded(run_shared_coin, n, seed, X, B63)
    assert np.array_equal(audit.law.p, coin.law.p)
    assert audit.singlet_deviation == coin.singlet_comparison["max_abs_dev"]
    deviations = 0
    for used, declared in ((t["a_used"], X), (t["b_used"], B63)):
        moved = ~np.all(used == declared, axis=1)
        deviations += int(np.count_nonzero(moved))
        # Every deviation lands exactly on +u or -u.
        used, u = used[moved], t["u"][moved]
        assert np.all(np.all(used == u, axis=1) | np.all(used == -u, axis=1))
    assert audit.deviations == deviations == n
    assert audit.deviations_match_u


def _gathered_audit(u, a_used, b_used, a, b):
    """The audit as it was first written: gather each side's deviating
    rows, then test them."""
    dev_a = ~np.all(a_used == a, axis=1)
    dev_b = ~np.all(b_used == b, axis=1)
    return (int(np.count_nonzero(dev_a) + np.count_nonzero(dev_b)),
            bool(np.all(protocols._along_axis(u[dev_a], a_used[dev_a]))
                 and np.all(protocols._along_axis(u[dev_b], b_used[dev_b]))))


@pytest.mark.parametrize("off_u", [None, "a", "b"])
def test_audit_matches_the_gathered_formula(off_u):
    # Rows 0-1 deviate on neither side, 2-3 on side a, 4-5 on side b and
    # 6-7 on both; every deviation lies on +-u, but for one row moved off
    # it on side off_u. The rows are column-major, as a chunk holds them.
    u = np.asfortranarray(RandomStream(7, 0).sphere(8))
    a_used = np.asfortranarray(np.tile(X, (8, 1)))
    b_used = np.asfortranarray(np.tile(B63, (8, 1)))
    a_used[[2, 3, 6, 7]] = u[[2, 3, 6, 7]] * [[1], [-1], [1], [-1]]
    b_used[[4, 5, 6, 7]] = u[[4, 5, 6, 7]] * [[-1], [1], [1], [-1]]
    if off_u:
        (a_used if off_u == "a" else b_used)[6] = planar_setting(10.0)
    got = protocols._audit(u, a_used, b_used, X, B63)
    assert got == _gathered_audit(u, a_used, b_used, X, B63) == (8, off_u is None)
    # The declared settings broadcast over every row: no deviation, whatever
    # u is, as with one vector per side, which the honest runs hold.
    a_used, b_used = np.broadcast_to(X, u.shape), np.broadcast_to(B63, u.shape)
    got = protocols._audit(u, a_used, b_used, X, B63)
    assert got == _gathered_audit(u, a_used, b_used, X, B63) == (0, True)
    assert protocols._audit(u, X, B63, X, B63) == (0, True)


def test_audit_third_party_switch_restores_compliance():
    res = run_conspiracy_audit(100_000, X, B63, "third-party", seed=32)
    assert res.deviations == 0
    assert res.singlet_deviation > 0.05


def test_third_party_audit_is_the_honest_run():
    third = run_conspiracy_audit(50_000, X, B63, "third-party", seed=11).summary()
    honest = run_conspiracy_audit(50_000, X, B63, "honest", seed=11).summary()
    assert third.pop("mode") == "third-party" and honest.pop("mode") == "honest"
    assert third == honest


def test_honest_and_slave_audits_measure_the_same_spins_and_noise(monkeypatch):
    # Every audit mode is the one shared-coin run: only the coin differs,
    # so each chunk hands malus_pair the same hidden rows in both modes.
    malus_pair = protocols.malus_pair
    n, seed = 70_001, 9
    runs = {}
    for mode in ("honest", "slave"):
        hidden = runs[mode] = {}

        def recording(h, x, y, hidden=hidden):
            hidden[h[0][0].tobytes()] = tuple(np.array(column) for column in h)
            return malus_pair(h, x, y)
        monkeypatch.setattr(protocols, "malus_pair", recording)
        run_conspiracy_audit(n, X, planar_setting(75.0), mode, seed)
    assert len(runs["honest"]) == -(-n // geometry._CHUNK_ROWS) > 1
    assert runs["honest"].keys() == runs["slave"].keys()
    for first, rows in runs["honest"].items():
        assert all(np.array_equal(h, s) for h, s in zip(rows, runs["slave"][first]))


def test_audit_validation():
    with pytest.raises(ValueError):
        run_conspiracy_audit(100, X, X, "unknown", seed=33)


# ---------------------------------------------------------------------------
# Transcript CSV and binning helper


def test_transcript_csv_format():
    res, text, _ = recorded(run_tb_protocol, 50, X, B63, seed=34)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 51
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[1] == "tb"
    assert fields[10] == "1" and fields[11] == "0"  # bitsAB, bitsBA
    # One bit crosses A->B on every trial, and no draw is shared.
    assert res.bits_a_to_b == 50 and res.shared_draws_total == 0
    assert res.causal_mode == "settings_cause_lambda"


def _binned_counts(t, sigma, tau):
    """The per-bin outcome counts and overlap sums of trials binned by their
    overlap t (_bin_index), as deviation_from_binned_counts takes them."""
    idx = _bin_index(t, N_BINS)
    return outcome_counts(sigma, tau, idx, N_BINS), np.bincount(idx, weights=t, minlength=N_BINS)


def test_binned_deviation_detects_wrong_law():
    stream = substream(35, 0)
    n = 200_000
    t = stream.uniform(n) * 2 - 1
    sigma = stream.signs(n)
    tau = stream.signs(n)  # independent: correlator 0 everywhere
    res = deviation_from_binned_counts(*_binned_counts(t, sigma, tau))
    assert res["max_abs_dev"] > 0.1  # uniform law is far from the singlet


def test_binned_deviation_passes_for_exact_singlet_sampler():
    stream = RandomStream(36)
    n = 400_000
    t = stream.uniform(n) * 2 - 1
    # sample (sigma, tau) from the singlet table at each trial's overlap
    r1 = stream.uniform(n)
    sigma = np.where(r1 < 0.5, 1.0, -1.0)
    p_anti = (1 + t) / 2
    r2 = stream.uniform(n)
    tau = np.where(r2 < p_anti, -sigma, sigma)
    res = deviation_from_binned_counts(*_binned_counts(t, sigma, tau))
    assert res["max_abs_dev"] < 0.01


# ---------------------------------------------------------------------------
# Column-wise transcript writer against the row-by-row reference


def reference_csv(tr) -> str:
    """The original writer: one row at a time, every cell through _fmt."""
    fh = io.StringIO()
    fh.write(CSV_HEADER + "\n")
    ua = dot(tr.u, tr.a_used)
    ub = dot(tr.u, tr.b_used)
    for i in range(tr.n):
        row = [
            str(i), tr.model,
            _fmt(None if tr.c is None else tr.c[i]),
            _fmt(None if tr.d is None else tr.d[i]),
            _fmt(ua[i]), _fmt(ub[i]),
            _fmt(tr.sigma[i]) if tr.detected_a[i] else "",
            _fmt(tr.tau[i]) if tr.detected_b[i] else "",
            _fmt(bool(tr.detected_a[i])), _fmt(bool(tr.detected_b[i])),
            str(int(tr.bits_a_to_b[i])), str(int(tr.bits_b_to_a[i])),
        ]
        fh.write(",".join(row) + "\n")
    return fh.getvalue()


def written_csv(tr) -> str:
    fh = io.StringIO()
    tr.to_csv(fh)
    return fh.getvalue()


def batch_of(model, columns) -> TranscriptBatch:
    """The CSV columns of a recorded run as a batch."""
    return TranscriptBatch(model, **{k: columns[k] for k in _CSV_COLUMNS if k in columns})


def transcript(name, n, seed):
    """(CSV text, batch of its columns) of RUNNERS[name] recorded."""
    _, text, columns = recorded(RUNNERS[name], n, seed)
    return text, batch_of(name, columns)


def head(tr, n):
    """The first n trials of a batch, as a batch of their own."""
    def cut(col):
        return None if col is None else col[:n]

    return TranscriptBatch(
        tr.model, tr.u[:n], tr.a_used[:n], tr.b_used[:n], tr.sigma[:n], tr.tau[:n],
        c=cut(tr.c), d=cut(tr.d), detected_a=tr.detected_a[:n], detected_b=tr.detected_b[:n],
        bits_a_to_b=tr.bits_a_to_b[:n], bits_b_to_a=tr.bits_b_to_a[:n])


# Runner -> run(n, seed, record); each name is the model its transcript names.
RUNNERS = {
    "tb": lambda n, seed, record: run_tb_protocol(n, X, B63, seed, record),
    "tb-freewill": lambda n, seed, record: run_tb_freewill(n, X, B63, seed, record),
    "shared-coin": lambda n, seed, record: run_shared_coin(n, seed, record=record),
    "watch-pinned": lambda n, seed, record: run_watch_realization(n, "pinned", seed, record),
    "watch-hall": lambda n, seed, record: run_watch_realization(n, "hall", seed, record),
    "detection-symmetric":
        lambda n, seed, record: run_detection_loophole(n, "symmetric", seed, record=record),
    "detection-asymmetric":
        lambda n, seed, record: run_detection_loophole(n, "asymmetric", seed, record=record),
    "detection-sphere": lambda n, seed, record: run_detection_loophole(
        n, "sphere", seed, n_directions=64, record=record),
}


@pytest.mark.parametrize("record", ["x.csv", True, 1])
@pytest.mark.parametrize("name", RUNNERS)
def test_runners_reject_a_record_that_is_not_a_file(tmp_path, monkeypatch, name, record):
    # A path, or the retired True, is no file to write to: the run raises
    # before it draws anything, rather than record nothing.
    monkeypatch.chdir(tmp_path)
    draws = []
    for method in ("uniform", "uniform_rows", "integers", "index_rows"):
        def spy(self, *args, _real=getattr(RandomStream, method), _method=method, **kwargs):
            draws.append(_method)
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(RandomStream, method, spy)
    with pytest.raises(TypeError) as exc:
        RUNNERS[name](10, 1, record)
    assert str(exc.value) == f"record must be None, False or an open text file, not {record!r}"
    assert draws == [] and not any(tmp_path.iterdir())
    RUNNERS[name](1000, 1, None)  # enough trials for a coincidence
    assert draws  # the spies see a run's draws


@pytest.mark.parametrize("name", RUNNERS)
def test_transcript_writer_matches_reference_at_chunk_edges(name):
    text, tr = transcript(name, _CSV_CHUNK_ROWS + 1, 41)
    expected = reference_csv(tr).splitlines(keepends=True)
    assert text == "".join(expected)
    for n in (_CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1):
        assert written_csv(head(tr, n)) == "".join(expected[:n + 1]), n


@pytest.mark.parametrize("name", RUNNERS)
def test_transcript_writer_matches_reference_at_smallest_run(name):
    # Detection runs with no coincidence raise, so start where one runs.
    for n in range(1, 100):
        try:
            text, tr = transcript(name, n, 42)
            break
        except RuntimeError:
            continue
    assert text == written_csv(tr) == reference_csv(tr)


def test_transcript_writer_keeps_signed_zeros_and_special_values():
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 1.0, -1.0, 0.1]
    n = 3 * len(special)
    stream = RandomStream(43)
    d = np.array(special * 3)
    tr = TranscriptBatch(
        "hand-built", stream.sphere(n), X, B63, sigma=np.roll(d, 1), tau=np.roll(d, 2),
        c=np.arange(n) % 3 - 1, d=d,
        detected_a=np.arange(n) % 4 != 0, detected_b=np.arange(n) % 5 != 0,
        bits_a_to_b=np.arange(n) % 2, bits_b_to_a=7)
    text = written_csv(tr)
    assert text == reference_csv(tr)
    cells = [line.split(",") for line in text.splitlines()[1:]]
    assert {row[3] for row in cells} >= {"0", "-0", "nan", "inf", "-inf", "1e-300"}
    assert cells[1][2] == "0" and cells[0][2] == "-1"  # integer c, no ".0"
    assert cells[0][6] == "" and cells[0][7] == ""  # undetected on both sides


def _malus_hidden(skip=None):
    """The pinned model's hidden variables: the spin and each station's
    Malus noise, replayed from a fresh stream after the draws that come
    before it there, skip(stream, n)."""
    def hidden(tr, seed):
        n = len(tr["u"])
        noise = []
        for stream in (substream(seed, STREAM_A), substream(seed, STREAM_B)):
            if skip is not None:
                skip(stream, n)
            noise.append(stream.uniform(n))
        return tr["u"], *noise
    return "pinned", hidden


# Runner -> (model id, the model's hidden variables rebuilt from the
# transcript columns).
RUNNER_RULES = {
    "tb": ("tb", lambda tr, seed: (tr["u"], tr["v"])),
    "tb-freewill": ("tb-freewill", lambda tr, seed: (tr["u"], tr["v"], tr["c"])),
    # The random settings, or the setting indices, come first on the
    # station streams.
    "shared-coin": _malus_hidden(lambda s, n: s.sphere(n)),
    "watch-pinned": _malus_hidden(),
    "watch-hall": ("hall", lambda tr, seed: tr["u"]),
    "detection-symmetric": _malus_hidden(lambda s, n: s.integers(0, 2, n)),
    "detection-asymmetric": _malus_hidden(lambda s, n: s.integers(0, 2, n)),
    "detection-sphere": _malus_hidden(lambda s, n: s.integers(0, 64, n)),
}


@pytest.mark.parametrize("name", RUNNER_RULES)
def test_runners_apply_the_model_rules(name):
    model, hidden = RUNNER_RULES[name]
    _, _, tr = recorded(RUNNERS[name], 5000, 43)
    sigma, tau = MODELS[model].outcomes(hidden(tr, 43), tr["a_used"], tr["b_used"])
    assert np.array_equal(sigma, tr["sigma"]) and np.array_equal(tau, tr["tau"])


def test_binned_counts_match_add_at_reference():
    stream = RandomStream(44)
    n = 50_000
    t = np.concatenate([stream.uniform(n) * 2 - 1, [-1.0, 1.0, 0.0, 1.0 / 6]])
    values = np.array([1.0, -1.0, 0.0, -0.0, np.nan])
    sigma = values[stream.integers(0, len(values), len(t))]
    tau = values[stream.integers(0, len(values), len(t))]
    counts, t_sums = _binned_counts(t, sigma, tau)

    # Reference: digitize's bins, and one np.add.at per outcome cell.
    idx = np.clip(np.digitize(t, np.linspace(-1.0, 1.0, 13)) - 1, 0, 11)
    assert np.array_equal(_bin_index(t, 12), idx)
    expected = np.zeros((12, 2, 2), dtype=np.int64)
    sp = sigma > 0
    tp = tau > 0
    for i, (sm, tm) in enumerate(((sp, tp), (sp, ~tp), (~sp, tp), (~sp, ~tp))):
        np.add.at(expected[:, i // 2, i % 2], idx[sm & tm], 1)
    assert counts.dtype == np.int64 and counts.shape == (12, 2, 2)
    assert np.array_equal(counts, expected)
    assert np.array_equal(t_sums, np.bincount(idx, weights=t, minlength=12))


# ---------------------------------------------------------------------------
# Settings that are not unit vectors, NaN included, are rejected

NAN_VECTOR = [math.nan, 0.0, 0.0]


def _no_draws(monkeypatch):
    def substream(seed, stream_id):
        raise AssertionError("a stream was made before the settings were checked")
    monkeypatch.setattr(protocols, "substream", substream)


@pytest.mark.parametrize("mode", ["honest", "slave", "third-party"])
def test_audit_rejects_a_nan_setting(monkeypatch, mode):
    _no_draws(monkeypatch)
    for a, b in ((NAN_VECTOR, X), (X, NAN_VECTOR)):
        with pytest.raises(ValueError, match="nan"):
            run_conspiracy_audit(10, a, b, mode, 1)


@pytest.mark.parametrize("row, shown", [([2.0, 0.0, 0.0], "norm^2=4.0"),
                                        ([0.5, 0.0, 0.0], "norm^2=0.25"),
                                        (NAN_VECTOR, "norm^2=nan")])
@pytest.mark.parametrize("side", ["settings_a", "settings_b"])
@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_detection_rejects_settings_that_are_not_unit_before_any_draw(
        monkeypatch, mode, side, row, shown):
    _no_draws(monkeypatch)
    settings = {side: [row, [0.0, 1.0, 0.0]]}
    with pytest.raises(ValueError, match=f"{side} must be a unit vector") as info:
        run_detection_loophole(100_000, mode, 1, **settings)
    assert shown in str(info.value)


def _per_trial_mean_deviation(tr) -> float:
    """Sphere mode's deviation as the per-trial mean over the coincidences
    of the transcript columns tr: the mean of each outcome indicator minus
    the singlet entry at each trial's overlap a.b, worst over the four cells."""
    coincidence = tr["detected_a"] & tr["detected_b"]
    sc, tc = tr["sigma"][coincidence], tr["tau"][coincidence]
    ref = law_table(dot(tr["a_used"][coincidence], tr["b_used"][coincidence]))
    return max(abs(float(np.mean(((sc == s) & (tc == t)) - ref[i, j])))
               for i, s in enumerate((1.0, -1.0)) for j, t in enumerate((1.0, -1.0)))


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("n_directions", [2, 8, 64, 12_566])
def test_sphere_deviation_is_the_per_trial_mean(n_directions, seed):
    rep, _, tr = recorded(run_detection_loophole, 200_000, "sphere", seed,
                          n_directions=n_directions)
    reference = _per_trial_mean_deviation(tr)
    assert abs(rep.singlet_deviation - reference) <= 1e-15
    assert f"{rep.singlet_deviation:.9g}" == f"{reference:.9g}"
