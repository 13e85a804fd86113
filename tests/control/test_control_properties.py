"""Property tests for the control stack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.controllers import BangBangController, PiController
from repro.control.sensors import ThermalSensor

_settings = settings(max_examples=40, deadline=None)


class TestPiProperties:
    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.5, max_value=20.0),
    )
    @_settings
    def test_output_always_in_range(self, error, kp, ki, i_max):
        controller = PiController(85.0, kp=kp, ki=ki, i_max=i_max)
        for _ in range(5):
            command = controller.update(85.0 + error, 0.5)
            assert 0.0 <= command <= i_max

    @given(st.floats(min_value=0.1, max_value=10.0))
    @_settings
    def test_proportional_monotone_in_error(self, kp):
        """At zero integrator state, a hotter reading never commands
        less current."""
        low = PiController(85.0, kp=kp, ki=0.0, i_max=100.0).update(86.0, 0.1)
        high = PiController(85.0, kp=kp, ki=0.0, i_max=100.0).update(90.0, 0.1)
        assert high >= low

    @given(st.lists(st.floats(min_value=60.0, max_value=110.0),
                    min_size=1, max_size=30))
    @_settings
    def test_integrator_bounded_under_any_reading_sequence(self, readings):
        """Anti-windup keeps the internal integral from exploding no
        matter what the sensor reports."""
        controller = PiController(85.0, kp=1.0, ki=1.0, i_max=10.0)
        for reading in readings:
            controller.update(reading, 1.0)
        # the integral's contribution stays within the actuator range
        # plus one step's proportional headroom.
        assert abs(controller._integral) <= (10.0 / 1.0) + 50.0


class TestBangBangProperties:
    @given(st.lists(st.floats(min_value=60.0, max_value=110.0),
                    min_size=1, max_size=40))
    @_settings
    def test_output_is_always_one_of_two_levels(self, readings):
        controller = BangBangController(85.0, hysteresis_c=2.0,
                                        i_on=6.0, i_off=1.0)
        for reading in readings:
            assert controller.update(reading, 0.5) in (1.0, 6.0)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @_settings
    def test_no_release_inside_hysteresis_band(self, hysteresis):
        controller = BangBangController(85.0, hysteresis_c=hysteresis, i_on=5.0)
        controller.update(86.0, 0.5)  # engage
        inside = 85.0 - 0.5 * hysteresis
        assert controller.update(inside, 0.5) == 5.0


class TestSensorProperties:
    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=20.0, max_value=120.0),
        st.integers(min_value=0, max_value=10**6),
    )
    @_settings
    def test_quantized_readings_land_on_grid(self, quantum, truth, seed):
        sensor = ThermalSensor(0, noise_std_c=0.3, quantization_c=quantum,
                               seed=seed)
        reading = sensor.read([truth])
        steps = reading / quantum
        assert abs(steps - round(steps)) < 1e-6

    @given(
        st.floats(min_value=20.0, max_value=120.0),
        st.integers(min_value=0, max_value=10**6),
    )
    @_settings
    def test_noiseless_sensor_error_bounded_by_half_quantum(self, truth, seed):
        sensor = ThermalSensor(0, noise_std_c=0.0, quantization_c=0.5, seed=seed)
        assert abs(sensor.read([truth]) - truth) <= 0.25 + 1e-9
