"""Unit tests for the platform model."""

import pytest

from repro.core import IN, OUT, Interconnect, InvalidPlatformError, Platform, Processor


class TestProcessor:
    def test_basic(self):
        p = Processor(index=2, speed=1.5)
        assert p.label == "P3"

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(InvalidPlatformError):
            Processor(index=0, speed=0.0)


class TestPlatform:
    def test_homogeneous(self):
        plat = Platform.homogeneous(4, 2.0)
        assert plat.p == 4
        assert plat.is_homogeneous
        assert plat.total_speed == 8.0
        assert plat.speeds == (2.0, 2.0, 2.0, 2.0)

    def test_heterogeneous(self):
        plat = Platform.heterogeneous([2, 2, 1, 1])
        assert not plat.is_homogeneous
        assert plat.fastest.index == 0  # ties broken by lowest index
        assert plat.total_speed == 6.0

    def test_sorted_by_speed(self):
        plat = Platform.heterogeneous([2, 1, 3])
        asc = plat.sorted_by_speed()
        assert [p.speed for p in asc] == [1.0, 2.0, 3.0]
        desc = plat.sorted_by_speed(descending=True)
        assert [p.speed for p in desc] == [3.0, 2.0, 1.0]

    def test_sort_is_stable_on_ties(self):
        plat = Platform.heterogeneous([2, 2, 1])
        asc = plat.sorted_by_speed()
        assert [p.index for p in asc] == [2, 0, 1]

    def test_subset_helpers(self):
        plat = Platform.heterogeneous([5, 3, 2])
        assert plat.subset_speeds([0, 2]) == (5.0, 2.0)
        assert plat.min_speed([0, 2]) == 2.0
        assert plat.sum_speed([0, 2]) == 7.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidPlatformError):
            Platform(processors=())

    def test_rejects_bad_numbering(self):
        with pytest.raises(InvalidPlatformError):
            Platform(processors=(Processor(index=1, speed=1.0),))


class TestInterconnect:
    def test_uniform(self):
        inter = Interconnect.uniform(3, 2.0)
        assert inter.link(0, 1) == 2.0
        assert inter.link(IN, 2) == 2.0
        assert inter.link(1, OUT) == 2.0

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(InvalidPlatformError):
            Interconnect.uniform(2, 0.0)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidPlatformError):
            Interconnect(
                bandwidth=((1.0,), (1.0,)),
                in_bandwidths=(1.0, 1.0),
                out_bandwidths=(1.0, 1.0),
            )

    def test_platform_with_bandwidth(self):
        plat = Platform.homogeneous(2, 1.0, bandwidth=4.0)
        assert plat.interconnect is not None
        assert plat.interconnect.link(0, 1) == 4.0

    def test_platform_interconnect_size_mismatch(self):
        with pytest.raises(InvalidPlatformError):
            Platform(
                processors=(Processor(0, 1.0),),
                interconnect=Interconnect.uniform(2, 1.0),
            )
