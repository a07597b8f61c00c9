"""Tests for fixed-base comb tables and Montgomery batch inversion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastexp
from repro.crypto.fastexp import (
    FixedBaseTable,
    batch_invert,
    cached_table,
    clear_fastexp_cache,
    ephemeral_table,
    fastexp_cache_info,
    fixed_base,
    pow_many,
)
from repro.crypto.group import RFC3526_GROUP_2048, TEST_GROUP


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_fastexp_cache()
    yield
    clear_fastexp_cache()


class TestFixedBaseTable:
    def test_matches_builtin_pow_for_small_exponents(self):
        table = FixedBaseTable(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        for e in (0, 1, 2, 3, 17, 255, 256, 1 << 20):
            assert table.pow(e) == pow(TEST_GROUP.g, e, TEST_GROUP.p)

    def test_exponent_reduced_mod_q(self):
        table = FixedBaseTable(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        e = TEST_GROUP.q + 12345
        assert table.pow(e) == pow(TEST_GROUP.g, e % TEST_GROUP.q, TEST_GROUP.p)

    @given(
        base=st.integers(min_value=2, max_value=1 << 60),
        e=st.integers(min_value=0, max_value=1 << 70),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_builtin_pow(self, base, e):
        group = TEST_GROUP
        base = pow(base, 2, group.p)  # force into the order-q subgroup
        table = FixedBaseTable(group.p, group.q, base)
        assert table.pow(e) == pow(base, e % group.q, group.p)

    @given(e=st.integers(min_value=0, max_value=1 << 256))
    @settings(max_examples=5, deadline=None)
    def test_property_matches_builtin_pow_production_group(self, e):
        group = RFC3526_GROUP_2048
        table = fixed_base(group.p, group.q, group.g)  # cached across examples
        assert table.pow(e) == pow(group.g, e % group.q, group.p)

    def test_every_window_width_agrees(self):
        group = TEST_GROUP
        e = 0xDEADBEEFCAFE
        expected = pow(group.g, e % group.q, group.p)
        for w in (1, 4, 8, 16):
            table = FixedBaseTable(group.p, group.q, group.g, window=w)
            assert table.pow(e) == expected


class TestTableCache:
    def test_same_base_returns_same_table(self):
        a = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        b = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        assert a is b
        assert fastexp_cache_info()["entries"] == 1

    def test_cached_table_peek_does_not_build(self):
        assert cached_table(TEST_GROUP.p, TEST_GROUP.g) is None
        built = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        assert cached_table(TEST_GROUP.p, TEST_GROUP.g) is built

    def test_lru_cap_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(fastexp, "MAX_CACHED_TABLES", 3)
        group = TEST_GROUP
        bases = [group.gexp(x) for x in (2, 3, 5, 7, 11)]
        for base in bases:
            fixed_base(group.p, group.q, base)
        assert fastexp_cache_info()["entries"] == 3
        # the two oldest fell out, the three newest survive
        assert cached_table(group.p, bases[0]) is None
        assert cached_table(group.p, bases[1]) is None
        for base in bases[2:]:
            assert cached_table(group.p, base) is not None

    def test_lru_touch_on_reuse_protects_entry(self, monkeypatch):
        monkeypatch.setattr(fastexp, "MAX_CACHED_TABLES", 2)
        group = TEST_GROUP
        b1, b2, b3 = (group.gexp(x) for x in (2, 3, 5))
        fixed_base(group.p, group.q, b1)
        fixed_base(group.p, group.q, b2)
        fixed_base(group.p, group.q, b1)  # touch: b1 becomes most recent
        fixed_base(group.p, group.q, b3)  # evicts b2, not b1
        assert cached_table(group.p, b1) is not None
        assert cached_table(group.p, b2) is None


class TestEphemeralTable:
    def test_below_threshold_uses_pow_proxy(self):
        handle = ephemeral_table(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g, 1)
        assert not isinstance(handle, FixedBaseTable)
        assert handle.pow(42) == TEST_GROUP.gexp(42)

    def test_at_threshold_builds_table(self):
        handle = ephemeral_table(
            TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g,
            fastexp.EPHEMERAL_MIN_USES,
        )
        assert isinstance(handle, FixedBaseTable)
        assert handle.pow(42) == TEST_GROUP.gexp(42)

    def test_never_touches_module_cache(self):
        ephemeral_table(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g, 100)
        assert fastexp_cache_info()["entries"] == 0


def _exponents(q):
    """Edge exponents around the group order, plus arbitrary ones."""
    return st.one_of(
        st.sampled_from([0, 1, q - 1, q, q + 1, 2 * q, -1, -q, -q - 1]),
        st.integers(min_value=-(1 << 70), max_value=1 << 70),
    )


class TestPowMany:
    @given(
        exponent=_exponents(TEST_GROUP.q),
        bases=st.lists(st.integers(min_value=2, max_value=1 << 60),
                       min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_per_table_pow(self, exponent, bases, data):
        group = TEST_GROUP
        tables = [fixed_base(group.p, group.q, pow(b, 2, group.p)) for b in bases]
        factors = data.draw(st.lists(
            st.integers(min_value=0, max_value=group.p - 1),
            min_size=len(tables), max_size=len(tables),
        ))
        expected = [f * t.pow(exponent) % group.p for f, t in zip(factors, tables)]
        assert pow_many(tables, exponent, factors) == expected

    @given(exponent=_exponents(RFC3526_GROUP_2048.q))
    @settings(max_examples=5, deadline=None)
    def test_property_matches_per_table_pow_production_group(self, exponent):
        group = RFC3526_GROUP_2048
        tables = [fixed_base(group.p, group.q, b) for b in (group.g, 9)]
        factors = [group.p - 1, 12345]
        expected = [f * t.pow(exponent) % group.p for f, t in zip(factors, tables)]
        assert pow_many(tables, exponent, factors) == expected

    def test_factors_default_to_one(self):
        group = TEST_GROUP
        tables = [fixed_base(group.p, group.q, b) for b in (group.g, 9, 25)]
        assert pow_many(tables, 987654321) == [t.pow(987654321) for t in tables]

    def test_no_tables(self):
        assert pow_many([], 5) == []

    def test_mismatched_windows_rejected(self):
        group = TEST_GROUP
        narrow = FixedBaseTable(group.p, group.q, group.g, window=4)
        wide = FixedBaseTable(group.p, group.q, group.g, window=8)
        with pytest.raises(ValueError):
            pow_many([narrow, wide], 7)

    def test_factor_count_must_match(self):
        table = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        with pytest.raises(ValueError):
            pow_many([table, table], 7, [1])

    def test_counts_one_pow_per_base(self):
        pows = _FakeCounter()
        fastexp.bind_instruments(pows=pows)
        try:
            group = TEST_GROUP
            tables = [fixed_base(group.p, group.q, b) for b in (group.g, 9, 25)]
            pow_many(tables, 11, [2, 3, 4])
            assert pows.count == 3
            pow_many(tables[:1], 0)
            assert pows.count == 4
        finally:
            fastexp.bind_instruments()


class TestBatchInvert:
    def test_matches_per_element_inversion(self):
        p = TEST_GROUP.p
        values = [TEST_GROUP.gexp(x) for x in range(1, 40)]
        expected = [pow(v, p - 2, p) for v in values]
        assert batch_invert(p, values) == expected

    def test_single_element(self):
        p = TEST_GROUP.p
        assert batch_invert(p, [7]) == [pow(7, p - 2, p)]

    def test_empty(self):
        assert batch_invert(TEST_GROUP.p, []) == []

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            batch_invert(TEST_GROUP.p, [3, 0, 5])

    def test_values_reduced_mod_p(self):
        p = TEST_GROUP.p
        assert batch_invert(p, [p + 3]) == [pow(3, p - 2, p)]

    @given(st.lists(st.integers(min_value=1, max_value=1 << 62), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_inverse_really_inverts(self, values):
        p = TEST_GROUP.p
        values = [v % p or 1 for v in values]
        for v, inv in zip(values, batch_invert(p, values)):
            assert v * inv % p == 1


class _FakeCounter:
    def __init__(self):
        self.count = 0

    def inc(self, amount=1):
        self.count += amount


class _FakeGauge:
    def __init__(self):
        self.value = None

    def set(self, value):
        self.value = value


class TestMetricsBinding:
    def test_counters_fire_when_bound(self):
        pows, builds, inversions = _FakeCounter(), _FakeCounter(), _FakeCounter()
        tables = _FakeGauge()
        fastexp.bind_instruments(
            pows=pows, builds=builds, tables=tables, batch_inversions=inversions
        )
        try:
            table = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
            table.pow(5)
            table.pow(6)
            batch_invert(TEST_GROUP.p, [3, 5])
            assert builds.count == 1
            assert pows.count == 2
            assert inversions.count == 1
            assert tables.value == 1
        finally:
            fastexp.bind_instruments()

    def test_unbound_is_silent(self):
        table = fixed_base(TEST_GROUP.p, TEST_GROUP.q, TEST_GROUP.g)
        assert table.pow(5) == TEST_GROUP.gexp(5)
