"""Tests for the configuration factory and the experiment harness."""

from fractions import Fraction

import pytest

from repro.cache.engine import TIMING, BankPort
from repro.core.factory import (
    config_for_budget,
    known_configs,
    l1d_config,
    make_l1d,
    ratio_config,
)
from repro.core.fuse_cache import FuseCache
from repro.core.tag_queue import TagQueue
from repro.harness.report import format_table, gmean, normalise
from repro.harness.runner import Runner, default_runner


class TestConfigs:
    def test_table1_names_present(self):
        names = known_configs()
        for expected in ("L1-SRAM", "FA-SRAM", "By-NVM", "Hybrid",
                         "Base-FUSE", "FA-FUSE", "Dy-FUSE", "Oracle",
                         "L1-NVM"):
            assert expected in names

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown L1D config"):
            l1d_config("L1-MAGIC")

    def test_every_config_instantiates(self):
        for name in known_configs():
            cache = make_l1d(l1d_config(name))
            assert cache.name == name

    def test_fuse_geometry(self):
        cache = make_l1d(l1d_config("Dy-FUSE"))
        assert isinstance(cache, FuseCache)
        assert cache.sram.num_lines * 128 == 16 * 1024
        assert cache.stt.num_lines * 128 == 64 * 1024

    def test_predictor_thresholds_reach_the_engine(self):
        dy_fuse = l1d_config("Dy-FUSE").with_overrides(unused_threshold=12)
        assert make_l1d(dy_fuse).predictor.unused_threshold == 12
        by_nvm = l1d_config("By-NVM").with_overrides(dead_threshold=9)
        assert make_l1d(by_nvm).predictor.dead_threshold == 9

    def test_with_overrides_is_pure(self):
        base = l1d_config("Dy-FUSE")
        variant = base.with_overrides(swap_entries=8)
        assert base.swap_entries == 3
        assert variant.swap_entries == 8


def _reachable(root, kind):
    """Instances of *kind* reachable from *root* through the attributes
    of repro objects and the containers those attributes hold."""
    def is_repro(obj):
        return type(obj).__module__.startswith("repro.")

    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        values = list(getattr(obj, "__dict__", {}).values())
        values += [getattr(obj, slot) for cls in type(obj).__mro__
                   for slot in cls.__dict__.get("__slots__", ())
                   if hasattr(obj, slot)]
        for value in values:
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                stack.extend(item for item in value if is_repro(item))
            elif is_repro(value):
                stack.append(value)
    return found


#: the bank technologies each engine kind builds
_KIND_TECHNOLOGIES = {
    "sram": {"sram"}, "fa_sram": {"sram"}, "nvm": {"stt"},
    "by_nvm": {"stt"}, "oracle": set(), "fuse": {"sram", "stt"},
}


@pytest.mark.parametrize("name", known_configs())
def test_every_bank_carries_its_technology_timing(name):
    config = l1d_config(name)
    cache = make_l1d(config)
    ports = _reachable(cache, BankPort)
    assert {port.technology for port in ports} == \
        _KIND_TECHNOLOGIES[config.kind]
    for port in ports:
        assert (port.read_latency, port.write_latency, port.read_occupancy,
                port.write_occupancy) == TIMING[port.technology]
    stt = TIMING["stt"]
    queues = _reachable(cache, TagQueue)
    assert len(queues) == (config.kind == "fuse")
    for queue in queues:
        assert (queue.read_latency, queue.write_latency,
                queue.read_occupancy) == stt[:3]
    if config.kind == "fuse":
        assert (cache.stt_read_latency, cache.stt_write_latency) == stt[:2]
    if config.kind == "oracle":
        assert (cache.read_latency, cache.write_latency) == \
            TIMING["sram"][:2]


class TestRatioConfigs:
    def test_half_matches_table1(self):
        cfg = ratio_config(Fraction(1, 2))
        assert cfg.sram_kb == 16
        assert cfg.stt_kb == 64

    def test_sixteenth(self):
        cfg = ratio_config(Fraction(1, 16))
        assert cfg.sram_kb == 2
        assert cfg.stt_kb == 120

    def test_three_quarters(self):
        cfg = ratio_config(Fraction(3, 4))
        assert cfg.sram_kb == 24
        assert cfg.stt_kb == 32

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ratio_config(Fraction(0, 1))
        with pytest.raises(ValueError):
            ratio_config(Fraction(1, 1))

    def test_ratio_configs_instantiate(self):
        for frac in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4),
                     Fraction(1, 2), Fraction(3, 4)):
            cache = make_l1d(ratio_config(frac))
            total = cache.sram.num_lines + cache.stt.num_lines
            assert total > 0


class TestBudgetScaling:
    def test_volta_budget_quadruples(self):
        cfg = config_for_budget("Dy-FUSE", 128)
        assert cfg.sram_kb == 64
        assert cfg.stt_kb == 256
        assert cfg.num_cbfs == (256 * 1024 // 128) // 4

    def test_identity_at_default_budget(self):
        assert config_for_budget("L1-SRAM", 32) == l1d_config("L1-SRAM")

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            config_for_budget("L1-SRAM", 30)

    def test_scaled_configs_instantiate(self):
        for name in ("L1-SRAM", "By-NVM", "Dy-FUSE"):
            cache = make_l1d(config_for_budget(name, 128))
            assert cache is not None


class TestReportHelpers:
    def test_gmean(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)
        assert gmean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            gmean([])

    def test_gmean_clamps_zero(self):
        assert gmean([0.0, 1.0]) > 0.0

    def test_normalise(self):
        values = {"a": 2.0, "b": 4.0}
        assert normalise(values, "a") == {"a": 1.0, "b": 2.0}

    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["x", 1.5], ["longer", 0.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "longer" in text
        assert "1.500" in text


class TestRunner:
    def test_run_and_cache(self):
        runner = Runner(scale="smoke", num_sms=2)
        first = runner.run("L1-SRAM", "2DCONV")
        second = runner.run("L1-SRAM", "2DCONV")
        assert first is second
        assert runner.cache_size() == 1
        assert first.ipc > 0
        assert first.energy is not None

    def test_distinct_configs_not_conflated(self):
        runner = Runner(scale="smoke", num_sms=2)
        a = runner.run("L1-SRAM", "2DCONV")
        b = runner.run("Dy-FUSE", "2DCONV")
        assert a is not b
        assert runner.cache_size() == 2

    def test_invalid_profile_and_scale(self):
        with pytest.raises(ValueError):
            Runner(gpu_profile="ampere")
        with pytest.raises(ValueError):
            Runner(scale="huge")

    def test_default_runner_memoised(self):
        a = default_runner("fermi", "smoke", num_sms=2)
        b = default_runner("fermi", "smoke", num_sms=2)
        assert a is b

    def test_custom_l1d_config(self):
        from repro.core.factory import ratio_config

        runner = Runner(scale="smoke", num_sms=2)
        cfg = ratio_config(Fraction(1, 4))
        result = runner.run(cfg.name, "2DCONV", l1d=cfg)
        assert result.config_name == cfg.name
