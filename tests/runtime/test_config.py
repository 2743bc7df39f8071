"""Tests for runtime configuration (α/β/γ modes)."""

import pytest

from repro.errors import RuntimeApiError
from repro.runtime.config import RuntimeConfig


class TestValidation:
    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.n_gpus == 1
        assert cfg.transfers_enabled and cfg.tracking_enabled
        assert cfg.sync_transfers_active

    def test_zero_gpus_rejected(self):
        with pytest.raises(RuntimeApiError):
            RuntimeConfig(n_gpus=0)


class TestMeasurementModes:
    def test_alpha(self):
        cfg = RuntimeConfig(n_gpus=4).alpha()
        assert cfg.transfers_enabled and cfg.tracking_enabled
        assert cfg.n_gpus == 4

    def test_beta_disables_transfers_only(self):
        cfg = RuntimeConfig(n_gpus=4).beta()
        assert not cfg.transfers_enabled
        assert cfg.tracking_enabled
        assert not cfg.sync_transfers_active

    def test_gamma_disables_tracking(self):
        cfg = RuntimeConfig(n_gpus=4).gamma()
        assert not cfg.tracking_enabled
        assert not cfg.sync_transfers_active

    def test_modes_are_copies(self):
        base = RuntimeConfig(n_gpus=2)
        beta = base.beta()
        assert base.transfers_enabled  # original unchanged
        assert beta is not base
