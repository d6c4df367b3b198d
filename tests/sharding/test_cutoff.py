"""Cutoff adaptation: the windowed quantile must track the size stream."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sharding import WindowedQuantileCutoff
from repro.sharding.cutoff import INITIAL_CUTOFF, MIN_SAMPLES, REFRESH, WINDOW


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(quantile=0.0),
        dict(quantile=1.0),
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WindowedQuantileCutoff(**kwargs)


class TestAdaptation:
    def test_holds_initial_until_min_samples(self):
        est = WindowedQuantileCutoff()
        for _ in range(MIN_SAMPLES - 1):
            est.observe(100.0)
        assert est.cutoff == INITIAL_CUTOFF
        assert est.updates == 0
        est.observe(100.0)
        assert est.updates == 1
        assert est.cutoff == 100.0

    def test_converges_to_stream_quantile(self):
        # A deterministic shuffle of 1..window: nearest-rank q=0.9 over
        # the full window is exactly the 90th percentile of the support.
        est = WindowedQuantileCutoff(quantile=0.9)
        rng = np.random.default_rng(7)
        for size in rng.permutation(np.arange(1, WINDOW + 1)):
            est.observe(float(size))
        ordered = np.arange(1, WINDOW + 1)
        assert est.cutoff == ordered[int(0.9 * (WINDOW - 1))]

    def test_window_ages_out_old_regime(self):
        # Drift: after a full window of the new regime, the old sizes
        # must have no influence on the cutoff.
        est = WindowedQuantileCutoff(quantile=0.5)
        for _ in range(2 * WINDOW):
            est.observe(100.0)
        assert est.cutoff == 100.0
        for _ in range(2 * WINDOW):
            est.observe(100000.0)
        assert est.cutoff == 100000.0

    def test_bimodal_cutoff_separates_modes(self):
        # 98% small / 2% large at q=0.97: the cutoff sits on the small
        # mode, so routing splits exactly along the modes.
        est = WindowedQuantileCutoff(quantile=0.97)
        rng = np.random.default_rng(11)
        for _ in range(4096):
            est.observe(262144.0 if rng.random() < 0.02 else 512.0)
        assert est.cutoff == 512.0
        assert est.is_small(512.0)
        assert not est.is_small(262144.0)

    def test_disabled_never_moves(self):
        est = WindowedQuantileCutoff(enabled=False)
        for size in (1.0, 1e9, 50.0, 1e9) * REFRESH:
            est.observe(size)
        assert est.cutoff == INITIAL_CUTOFF == 8192.0
        assert est.updates == 0
        assert est.observed == 4 * REFRESH
        assert est.is_small(8192.0)
        assert not est.is_small(8193.0)

    def test_refresh_amortizes_updates(self):
        est = WindowedQuantileCutoff()
        for i in range(10 * REFRESH):
            est.observe(float(i))
        # One update per REFRESH observations once MIN_SAMPLES are in.
        assert MIN_SAMPLES <= REFRESH
        assert est.updates == 10
