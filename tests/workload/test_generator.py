"""Workload generator and request mix tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workload.generator import RequestMix, Workload
from repro.workload.mixes import SOCIAL_MIXES, hotel_mix, social_mix
from repro.workload.patterns import ConstantLoad, StepLoad


class TestRequestMix:
    def test_normalizes_ratios(self):
        mix = RequestMix.from_ratios({"a": 5, "b": 80, "c": 15})
        fractions = mix.as_dict()
        assert fractions["a"] == pytest.approx(0.05)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            RequestMix.from_ratios({"a": 0.0})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RequestMix.from_ratios({"a": -1.0, "b": 2.0})

    def test_vector_alignment(self, tiny_graph):
        mix = RequestMix.from_ratios({"Write": 1, "Read": 3})
        vec = mix.vector(tiny_graph)
        assert vec[tiny_graph.type_names.index("Read")] == pytest.approx(0.75)
        assert vec.sum() == pytest.approx(1.0)

    def test_vector_rejects_unknown_type(self, tiny_graph):
        mix = RequestMix.from_ratios({"Nope": 1})
        with pytest.raises(ValueError, match="unknown request types"):
            mix.vector(tiny_graph)

    def test_missing_types_get_zero(self, tiny_graph):
        mix = RequestMix.from_ratios({"Read": 1})
        vec = mix.vector(tiny_graph)
        assert vec[tiny_graph.type_names.index("Write")] == 0.0

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=0.01, max_value=100),
            min_size=1,
        )
    )
    def test_property_fractions_sum_to_one(self, ratios):
        mix = RequestMix.from_ratios(ratios)
        assert sum(mix.as_dict().values()) == pytest.approx(1.0)


class TestWorkload:
    def test_rates_scale_with_users(self, tiny_graph, tiny_mix):
        wl = Workload(tiny_graph, ConstantLoad(100), tiny_mix)
        rates = wl.rates(0.0)
        assert rates.sum() == pytest.approx(100.0)
        assert rates[tiny_graph.type_names.index("Read")] == pytest.approx(90.0)

    def test_rps_per_user(self, tiny_graph, tiny_mix):
        wl = Workload(tiny_graph, ConstantLoad(100), tiny_mix, rps_per_user=2.0)
        assert wl.total_rps(0.0) == pytest.approx(200.0)

    def test_rejects_nonpositive_rps_per_user(self, tiny_graph, tiny_mix):
        with pytest.raises(ValueError):
            Workload(tiny_graph, ConstantLoad(1), tiny_mix, rps_per_user=0.0)

    def test_time_varying_pattern(self, tiny_graph, tiny_mix):
        wl = Workload(tiny_graph, StepLoad(((0.0, 0.0), (50.0, 100.0))), tiny_mix)
        assert wl.total_rps(0.0) == pytest.approx(0.0)
        assert wl.total_rps(100.0) == pytest.approx(100.0)
        assert wl.rates(100.0)[tiny_graph.type_names.index("Read")] == pytest.approx(
            90.0
        )

    def test_with_pattern_and_mix(self, tiny_graph, tiny_mix):
        wl = Workload(tiny_graph, ConstantLoad(10), tiny_mix)
        wl2 = wl.with_pattern(ConstantLoad(20))
        assert wl2.total_rps(0) == pytest.approx(20.0)
        new_mix = RequestMix.from_ratios({"Write": 1})
        wl3 = wl.with_mix(new_mix)
        assert wl3.rates(0)[tiny_graph.type_names.index("Write")] == pytest.approx(10.0)


class TestCanonicalMixes:
    def test_social_mixes_match_paper_ratios(self):
        w0 = SOCIAL_MIXES["W0"].as_dict()
        assert w0["ComposePost"] == pytest.approx(0.05)
        assert w0["ReadHomeTimeline"] == pytest.approx(0.80)
        assert w0["ReadUserTimeline"] == pytest.approx(0.15)
        w3 = SOCIAL_MIXES["W3"].as_dict()
        assert w3["ReadUserTimeline"] == pytest.approx(0.25)

    def test_all_four_mixes_exist(self):
        assert set(SOCIAL_MIXES) == {"W0", "W1", "W2", "W3"}

    def test_social_mix_lookup(self):
        assert social_mix().as_dict() == SOCIAL_MIXES["W0"].as_dict()
        with pytest.raises(KeyError, match="unknown social mix"):
            social_mix("W9")

    def test_hotel_mix_is_search_dominated(self):
        mix = hotel_mix().as_dict()
        assert mix["Search"] > 0.5
        assert sum(mix.values()) == pytest.approx(1.0)
