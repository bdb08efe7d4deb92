"""Tests for validated integer environment knobs (repro.envcfg):
``REPRO_SIM_JOBS`` must warn and fall back on bad values — with an
``EnvVarClamped`` remark when remarks are being collected — never
crash."""

from __future__ import annotations

import warnings

import pytest

from repro.bench.runner import MAX_JOBS, resolve_jobs
from repro.envcfg import env_int
from repro.remarks import RemarkEmitter, collecting


class TestEnvInt:
    def test_unset_and_empty_are_silent(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7
            monkeypatch.setenv("REPRO_TEST_KNOB", "")
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_valid_value_passes_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7, minimum=0,
                           maximum=100) == 12

    def test_non_integer_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "lots")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_below_minimum_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-4")
        with pytest.warns(RuntimeWarning, match="below the minimum"):
            assert env_int("REPRO_TEST_KNOB", 7, minimum=0) == 0

    def test_above_maximum_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "999999")
        with pytest.warns(RuntimeWarning, match="above the maximum"):
            assert env_int("REPRO_TEST_KNOB", 7, maximum=64) == 64

    def test_emits_env_var_clamped_remark(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "nope")
        emitter = RemarkEmitter()
        with collecting(emitter), pytest.warns(RuntimeWarning):
            env_int("REPRO_TEST_KNOB", 3)
        remark = next(r for r in emitter if r.name == "EnvVarClamped")
        args = dict(remark.args)
        assert args["var"] == "REPRO_TEST_KNOB"
        assert args["value"] == "nope"
        assert args["used"] == 3


class TestResolveJobs:
    def test_explicit_wins_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_JOBS", "garbage")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(3) == 3

    def test_garbage_env_falls_back_to_autodetect(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_SIM_JOBS"):
            assert resolve_jobs() >= 1

    def test_negative_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_JOBS", "-2")
        with pytest.warns(RuntimeWarning):
            assert resolve_jobs() >= 1

    def test_oversized_env_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_JOBS", str(MAX_JOBS * 10))
        with pytest.warns(RuntimeWarning, match="above the maximum"):
            assert resolve_jobs() == MAX_JOBS

    def test_valid_env_still_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_JOBS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == 2
