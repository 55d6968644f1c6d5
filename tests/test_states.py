"""State and window value types plus their symmetry transforms."""

import json
from importlib.resources import files

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasebound import (
    DomainError,
    FockState,
    NegativeIndexError,
    NumberWindow,
    PhaseWindow,
    ZeroStateError,
    least_upper_bound,
    normalize,
    number_shift,
    phase_shift,
)

amplitude_lists = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


def states(min_norm=1e-6):
    return (
        st.tuples(amplitude_lists, st.integers(min_value=0, max_value=8))
        .map(lambda t: FockState(np.array(t[0]), offset=t[1]))
        .filter(lambda s: s.norm_squared > min_norm)
    )


class TestNormalize:
    def test_scaling(self):
        out = normalize(FockState([2.0, 0.0, 0.0]))
        assert np.allclose(out.amplitudes, [1.0, 0.0, 0.0])

    def test_equal_superposition(self):
        out = normalize(FockState([1.0, 1.0]))
        assert np.allclose(out.amplitudes, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroStateError):
            normalize(FockState([0.0, 0.0]))

    @given(states())
    @settings(max_examples=60)
    def test_unit_norm_and_proportional(self, s):
        out = normalize(s)
        assert abs(out.norm_squared - 1.0) < 1e-14
        # proportionality: out * ||s|| == s
        assert np.allclose(
            out.amplitudes * np.sqrt(s.norm_squared), s.amplitudes, atol=1e-12
        )

    @given(states())
    @settings(max_examples=60)
    def test_idempotent(self, s):
        once = normalize(s)
        twice = normalize(once)
        assert np.max(np.abs(twice.amplitudes - once.amplitudes)) < 1e-14


class TestPhaseShift:
    def test_vacuum_component_unchanged(self):
        out = phase_shift(FockState([1.0, 0.0]), 1.3)
        assert np.allclose(out.amplitudes, [1.0, 0.0])

    def test_half_turn_flips_odd_component(self):
        out = phase_shift(FockState([0.0, 1.0]), np.pi)
        assert np.allclose(out.amplitudes, [0.0, -1.0])

    def test_norm_preserved(self):
        s = normalize(FockState(np.array([0.3 + 1j, -0.7, 0.2j])))
        assert abs(phase_shift(s, 0.7).norm_squared - s.norm_squared) < 1e-14

    def test_offset_enters_the_phase(self):
        # amplitude at photon number 1, stored with offset 1
        out = phase_shift(FockState([1.0], offset=1), np.pi)
        assert np.allclose(out.amplitudes, [-1.0])

    @given(states(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=60)
    def test_additive(self, s, t1, t2):
        # argument rounding grows with n*theta, so keep the product modest
        s = normalize(s)
        lhs = phase_shift(phase_shift(s, t1), t2)
        rhs = phase_shift(s, t1 + t2)
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-14


class TestNumberShift:
    def test_relabels_indices(self):
        out = number_shift(FockState([1.0, 0.0, 0.0]), 2)
        assert out.offset == 2
        assert np.array_equal(out.amplitudes, np.array([1.0, 0.0, 0.0], dtype=complex))

    def test_down_shift(self):
        assert number_shift(FockState([1.0], offset=1), -1).offset == 0

    def test_negative_index_rejected(self):
        with pytest.raises(NegativeIndexError):
            number_shift(FockState([1.0]), -1)

    @given(states(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=60)
    def test_round_trip_exact(self, s, m):
        assert number_shift(number_shift(s, m), -m) == s


class TestFockState:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FockState([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FockState([np.nan])

    def test_rejects_negative_offset(self):
        with pytest.raises(NegativeIndexError):
            FockState([1.0], offset=-1)

    def test_amplitudes_read_only(self):
        s = FockState([1.0, 2.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 5.0

    def test_number_state(self):
        s = FockState.number_state(5)
        assert s.offset == 5 and s.norm_squared == 1.0

    def test_json_round_trip(self):
        s = FockState([1.0 + 2.0j, -0.5], offset=3)
        assert FockState.from_json(s.to_json()) == s

    def test_from_json_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            FockState.from_json({"offset": 0, "re": [1.0, 2.0], "im": [0.0]})

    @pytest.mark.parametrize(
        "doc",
        [
            FockState([1.0 + 2.0j, -0.5], offset=3).to_json(),
            FockState.number_state(0).to_json(),
            {"offset": 0, "re": [1, 0], "im": [0, -2]},
            {"offset": 1.0, "re": [1.0, 1.0], "im": [0.0, 0.0]},
            {"offset": True, "re": [1.0, 1.0], "im": [0.0, 0.0]},
            {"offset": 1.5, "re": [1.0], "im": [0.0]},
            {"offset": "1", "re": [1.0], "im": [0.0]},
            {"offset": None, "re": [1.0], "im": [0.0]},
            {"offset": -1, "re": [1.0], "im": [0.0]},
            {"offset": -1.0, "re": [1.0], "im": [0.0]},
            {"offset": 0, "re": [True], "im": [0.0]},
            {"offset": 0, "re": ["1.0"], "im": [0.0]},
            {"offset": 0, "re": [None], "im": [0.0]},
            {"offset": 0, "re": [[1.0]], "im": [[0.0]]},
            {"offset": 0, "re": 1.0, "im": 0.0},
            {"offset": 0, "re": [], "im": []},
            {"offset": 0, "re": [1.0], "im": [0.0], "note": "x"},
            {"offset": 0, "re": [1.0]},
            [0, [1.0], [0.0]],
            "state",
        ],
    )
    def test_from_json_agrees_with_schema(self, doc):
        # beyond the schema, from_json also refuses re and im of different
        # lengths and non-finite amplitudes; no document here has either
        schema = json.loads((files("phasebound") / "schemas" / "state.schema.json").read_text())
        valid = jsonschema.Draft202012Validator(schema).is_valid(doc)
        try:
            FockState.from_json(doc)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == valid


class TestPhaseWindow:
    def test_center_normalized(self):
        assert PhaseWindow(3 * np.pi, 1.0).center == pytest.approx(-np.pi)
        assert PhaseWindow(np.pi, 1.0).center == pytest.approx(-np.pi)

    def test_bounds(self):
        lo, hi = PhaseWindow(0.5, 1.0).bounds
        assert (lo, hi) == (0.0, 1.0)

    @pytest.mark.parametrize("width", [-0.1, 2 * np.pi + 0.1, np.nan])
    def test_width_domain(self, width):
        with pytest.raises(DomainError):
            PhaseWindow(0.0, width)

    def test_degenerate_widths_allowed(self):
        assert PhaseWindow(0.0, 0.0).width == 0.0
        assert PhaseWindow(0.0, 2 * np.pi).width == 2 * np.pi


class TestNumberWindow:
    def test_member_count(self):
        w = NumberWindow(3, 4)
        assert list(w.members()) == [3, 4, 5, 6, 7]
        assert w.size == 5 and w.top == 7

    @pytest.mark.parametrize("base,precision", [(-1, 0), (0, -1)])
    def test_domain(self, base, precision):
        with pytest.raises(DomainError):
            NumberWindow(base, precision)


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: least_upper_bound(1.0, True), DomainError),
        (lambda: NumberWindow(True, False), DomainError),
        (lambda: NumberWindow(0, True), DomainError),
        (lambda: FockState([1.0], offset=True), ValueError),
        (lambda: number_shift(FockState([1.0]), True), ValueError),
    ],
    ids=["dk", "window-base", "window-precision", "offset", "shift"],
)
def test_integer_parameters_refuse_booleans(build, error):
    # bool subclasses int; each refuses it as it refuses any non-integer
    with pytest.raises(error, match="integer"):
        build()
