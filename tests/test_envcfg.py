"""Tests for validated environment knobs (repro.envcfg): bad integer
and boolean values must warn and fall back — with an ``EnvVarClamped``
remark when remarks are being collected — never crash."""

from __future__ import annotations

import warnings

import pytest

from repro.envcfg import SimOptions, cache_from_env, env_int
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


#: The boolean variables, each with how its value is read back and its
#: default.
BOOL_VARS = {
    "REPRO_SIM_FASTPATH": (lambda: SimOptions.from_env().fastpath, True),
    "REPRO_SIM_TELEMETRY": (lambda: SimOptions.from_env().telemetry,
                            False),
    "REPRO_SIM_CACHE": (lambda: cache_from_env(default=False) is not None,
                        False),
}


class TestEnvBool:
    @pytest.mark.parametrize("name", sorted(BOOL_VARS))
    def test_unset_empty_zero_and_one_are_silent(self, monkeypatch,
                                                 name):
        read, default = BOOL_VARS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.delenv(name, raising=False)
            assert read() is default
            monkeypatch.setenv(name, "")
            assert read() is default
            monkeypatch.setenv(name, "0")
            assert read() is False
            monkeypatch.setenv(name, "1")
            assert read() is True

    @pytest.mark.parametrize("raw", ("false", "yes", "2"))
    @pytest.mark.parametrize("name", sorted(BOOL_VARS))
    def test_other_values_warn_and_use_the_default(self, monkeypatch,
                                                   name, raw):
        read, default = BOOL_VARS[name]
        monkeypatch.setenv(name, raw)
        emitter = RemarkEmitter()
        with collecting(emitter), pytest.warns(
                RuntimeWarning, match=f"{name}='{raw}' is not 0 or 1"):
            assert read() is default
        (remark,) = emitter.by_name("EnvVarClamped")
        assert remark.arg("var") == name
        assert remark.arg("value") == raw
        assert remark.arg("used") is default


class TestCacheFromEnv:
    def test_root_follows_cache_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
        assert cache_from_env(default=False) is None
        assert cache_from_env(default=True) == ".sim-cache"
        assert cache_from_env(default=True, fallback="here") == "here"
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", "/elsewhere")
        assert cache_from_env(default=True) == "/elsewhere"
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        assert cache_from_env(default=True) is None
