import numpy as np
import pytest

from gwve.streams import stream


def test_same_path_same_stream():
    a = stream(42, "yaglom", 500, 3).integers(10**9, size=5)
    b = stream(42, "yaglom", 500, 3).integers(10**9, size=5)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    base = stream(42, "yaglom", 500, 3).integers(10**9, size=5)
    for other in (stream(43, "yaglom", 500, 3), stream(42, "yaglom", 500, 4),
                  stream(42, "other", 500, 3), stream(42, "yaglom", 501, 3)):
        assert not np.array_equal(base, other.integers(10**9, size=5))


def test_string_labels_are_stable():
    # labels hash through sha256, not the process-seeded builtin hash
    assert stream(7, "tag").integers(10**9) == stream(7, "tag").integers(10**9)


def test_path_type_validation():
    with pytest.raises(TypeError):
        stream(1, 2.5)


def test_negative_seed_rejected():
    # reducing modulo 2^64 would alias -1 with 2^64 - 1
    with pytest.raises(ValueError):
        stream(-1, "a")
    with pytest.raises(ValueError):
        stream(2**64, "a")


def test_negative_path_part_rejected():
    with pytest.raises(ValueError):
        stream(1, "a", -1)
    with pytest.raises(ValueError):
        stream(1, "a", np.int64(-1))


def test_largest_path_integer_accepted():
    a = stream(2**64 - 1, "a", 2**64 - 1).integers(10**9, size=3)
    b = stream(2**64 - 1, "a", np.uint64(2**64 - 1)).integers(10**9, size=3)
    assert np.array_equal(a, b)
