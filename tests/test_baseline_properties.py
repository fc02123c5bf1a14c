"""Hypothesis round trips for the non-LeCo codecs: Elias-Fano, rANS and the
§3.4 string extension, on int64 extremes, empty input and single values."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.elias_fano import EliasFano
from repro.baselines.rans import RANSCodec
from repro.core.string_codec import StringLeCo

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
EXTREMES = [I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX]

int64s = st.one_of(st.integers(I64_MIN, I64_MAX), st.sampled_from(EXTREMES), st.integers(-50, 50))
int64_lists = st.one_of(
    st.lists(int64s, max_size=80),
    st.sampled_from([[], [I64_MIN], [I64_MAX], [I64_MIN, I64_MAX], [I64_MIN, I64_MIN, 0, I64_MAX]]),
)


def _ints(codec, values):
    v = np.array(values, dtype=np.int64)
    enc = codec.encode(v)
    assert np.array_equal(codec.decode(enc), v)
    if codec.supports_random_access:
        assert [codec.access(enc, i) for i in range(len(v))] == v.tolist()


@given(data=st.data(), name=st.sampled_from(["Elias-Fano", "rANS", "LeCo-str"]))
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(data, name):
    if name == "Elias-Fano":
        _ints(EliasFano(), sorted(data.draw(int64_lists)))
    elif name == "rANS":
        _ints(RANSCodec(), data.draw(int64_lists))
    else:
        strings = data.draw(st.lists(st.text(max_size=12), min_size=1, max_size=60))
        codec = StringLeCo(data.draw(st.sampled_from([1, 3, 16, 200])), pow2_base=data.draw(st.booleans()))
        enc = codec.encode(strings)
        assert codec.decode(enc) == strings
        assert [codec.access(enc, i) for i in range(len(strings))] == strings


@given(st.lists(int64s, min_size=2, max_size=40).filter(lambda v: v != sorted(v)))
@settings(max_examples=100, deadline=None)
def test_elias_fano_rejects_unsorted(values):
    with pytest.raises(ValueError):
        EliasFano().encode(np.array(values, dtype=np.int64))
