import pytest

import speed


def test_each_time_is_scaled_by_the_samples_around_it():
    ref = speed.REFERENCE_S
    times = [1.0, 3.0]
    samples = [ref, 3 * ref, 2 * ref]   # speed means: 2*ref, then 2.5*ref
    assert speed.to_reference(times, samples) == pytest.approx([0.5, 1.2])


def test_a_missing_speed_sample_is_an_error():
    with pytest.raises(ValueError):
        speed.to_reference([1.0, 2.0], [0.01, 0.01])
