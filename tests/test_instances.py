import math
import pickle

import numpy as np
import pytest

from bestarm import (
    Instance,
    conjectured_bound,
    format_instance,
    group_index,
    make_discrete_instance,
    parse_instance,
    profile,
    profile_csv_row,
)


def brute_force_profile(means):
    """Independent re-derivation of the gap statistics from first principles.

    Scans group indices linearly instead of using logs, and accumulates in
    plain left-to-right sums.
    """
    top = max(means)
    gaps = sorted(top - m for m in means if m != top)
    assert len(gaps) == len(means) - 1, "unique best arm expected"

    def scan_group(gap):
        for k in range(0, 4000):
            if 2.0 ** -(k + 1) < gap <= 2.0**-k:
                return k
        raise AssertionError(f"no group for gap {gap}")

    Hk = {}
    for g in gaps:
        k = scan_group(g)
        Hk[k] = Hk.get(k, 0.0) + g**-2
    H = sum(sorted(Hk.values()))
    pk = {k: v / H for k, v in Hk.items()}
    ent = -sum(p * math.log(p) for p in sorted(pk.values()))
    return H, Hk, pk, ent, max(Hk)


class TestParseInstance:
    def test_roundtrip_of_plain_means(self):
        inst = parse_instance("1.0\n0.5\n0.75")
        assert inst.means == (1.0, 0.5, 0.75)

    def test_comment_and_blank_lines_skipped(self):
        inst = parse_instance("0.9\n# comment\n\n0.4")
        assert inst.means == (0.9, 0.4)

    def test_tied_maximum_rejected(self):
        with pytest.raises(ValueError, match="tied"):
            parse_instance("1.0\n1.0")

    def test_out_of_range_mean_rejected(self):
        for bad in ("1.5", "-0.1", "1.1", "nan", "inf", "-inf"):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                parse_instance(f"{bad}\n0.5")
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                Instance.from_means((float(bad), 0.5))

    def test_single_arm_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            parse_instance("0.5")

    def test_malformed_number_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_instance("0.5\nbogus\n0.25")

    def test_format_parse_roundtrip(self):
        inst = Instance.from_means((1.0, 0.625, 0.3), label="rt")
        again = parse_instance(format_instance(inst), label="rt")
        assert again == inst


class TestGroupIndex:
    def test_examples(self):
        assert group_index(0.5) == 1
        assert group_index(1.0) == 0
        assert group_index(0.3) == 1
        # subnormal gaps, where 1 / gap overflows to inf
        assert group_index(5e-324) == 1074
        assert group_index(2.0**-1024) == 1024
        assert group_index(math.nextafter(2.0**-1024, 1.0)) == 1023

    def test_boundary_gap_goes_to_closed_end(self):
        # gap exactly 2^-k belongs to group k, not k-1
        for k in range(0, 20):
            assert group_index(2.0**-k) == k

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.25, 1.0000001, 2.0):
            with pytest.raises(ValueError):
                group_index(bad)

    def test_interval_membership_on_random_gaps(self):
        rng = np.random.default_rng(7)
        gaps = rng.uniform(1e-9, 1.0, size=100_000)
        for g in gaps:
            k = group_index(float(g))
            assert 2.0 ** -(k + 1) < g <= 2.0**-k


class TestProfile:
    def test_worked_example(self):
        inst = Instance.from_means((1.0, 0.5, 0.5, 0.75))
        p = profile(inst)
        assert p.gaps == (0.25, 0.5, 0.5)
        assert p.H == 24.0
        assert p.Hk == {1: 8.0, 2: 16.0}
        assert p.pk[1] == pytest.approx(1 / 3, rel=1e-12)
        assert p.pk[2] == pytest.approx(2 / 3, rel=1e-12)
        assert p.ent == pytest.approx(0.6365141682948128, rel=1e-12)
        # max nonempty group: the 0.25 gap sits in group 2
        assert p.r_max == 2

    def test_single_group_has_zero_entropy(self):
        p = profile(Instance.from_means((1.0, 0.5)))
        assert p.H == 4.0
        assert p.pk == {1: 1.0}
        assert p.ent == 0.0
        assert p.r_max == 1

    def test_unit_gap_lands_in_group_zero(self):
        p = profile(Instance.from_means((1.0, 0.0)))
        assert p.Hk == {0: 1.0}
        assert p.H == 1.0
        assert p.r_max == 0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            means = rng.uniform(0.0, 1.0, size=n)
            means[int(rng.integers(0, n))] = 1.0  # unique max
            if sorted(means)[-2] == 1.0:
                continue
            inst = Instance.from_means(means)
            p = profile(inst)
            H, Hk, pk, ent, r_max = brute_force_profile(inst.means)
            assert p.H == pytest.approx(H, rel=1e-12)
            assert p.ent == pytest.approx(ent, rel=1e-12, abs=1e-12)
            assert p.r_max == r_max
            assert set(p.Hk) == set(Hk)
            for k in Hk:
                assert p.Hk[k] == pytest.approx(Hk[k], rel=1e-12)

    def test_mass_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            means = np.concatenate([[1.0], rng.uniform(0.0, 0.999, size=n - 1)])
            p = profile(Instance.from_means(means))
            assert math.fsum(p.pk.values()) == pytest.approx(1.0, rel=1e-12)
            assert math.fsum(p.Hk.values()) == pytest.approx(p.H, rel=1e-12)
            assert p.ent <= math.log(len(p.Hk)) + 1e-12
            assert p.H >= len(means) - 1 - 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        means = [1.0, 0.5, 0.43, 0.77, 0.12, 0.66]
        base = profile(Instance.from_means(means))
        for _ in range(20):
            perm = list(rng.permutation(means))
            p = profile(Instance.from_means(perm))
            assert p.gaps == base.gaps
            assert p.H == base.H
            assert p.Hk == base.Hk
            assert p.pk == base.pk
            assert p.ent == base.ent
            assert p.r_max == base.r_max


    def test_is_computed_once_per_instance(self):
        inst = Instance.from_means((1.0, 0.5, 0.75, 0.75), "memo")
        first = profile(inst)
        assert profile(inst) is first
        twin = Instance.from_means((1.0, 0.5, 0.75, 0.75), "memo")
        assert profile(twin) == first and profile(twin) is not first

    @pytest.mark.parametrize("means", [(5e-324, 0.0), (1e-154, 0.0, 0.0, 0.0)])
    def test_overflowing_complexity_is_refused_with_the_smallest_gap(self, means):
        # 5e-324**-2 overflows alone; 1e-154**-2 = 1e308 fits, but three of them do not
        with pytest.raises(ValueError, match=f"smallest gap {means[0]!r} too small"):
            profile(Instance.from_means(means))

    def test_memo_leaves_equality_hash_and_pickle_alone(self):
        plain = Instance.from_means((1.0, 0.5, 0.75), "memo")
        profiled = Instance.from_means((1.0, 0.5, 0.75), "memo")
        profile(profiled)
        assert plain == profiled and hash(plain) == hash(profiled)
        assert repr(plain) == repr(profiled)
        for inst in (plain, profiled):
            copy = pickle.loads(pickle.dumps(inst))
            assert copy == inst and hash(copy) == hash(inst)
            assert profile(copy) == profile(inst)


class TestConjecturedBound:
    def test_worked_examples(self):
        p = profile(Instance.from_means((1.0, 0.5, 0.5, 0.75)))
        assert conjectured_bound(p, 0.01) == pytest.approx(125.80042450278971, rel=1e-12)
        assert conjectured_bound(p, 0.1) == pytest.approx(70.5383822709326, rel=1e-12)

    def test_unit_value_when_log_term_is_one(self):
        p = profile(Instance.from_means((1.0, 0.5)))
        assert conjectured_bound(p, math.exp(-1.0)) == pytest.approx(4.0, rel=1e-12)

    def test_rejects_bad_delta(self):
        p = profile(Instance.from_means((1.0, 0.5)))
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                conjectured_bound(p, bad)

    def test_refuses_a_bound_that_overflows(self):
        p = profile(Instance.from_means((2.0**-511, 0.0)))
        assert p.H == 2.0**1022  # finite; the log factor takes it past the float range
        with pytest.raises(ValueError, match=f"smallest gap {2.0**-511!r} too small"):
            conjectured_bound(p, 0.01)


class TestMakeDiscreteInstance:
    def test_worked_example(self):
        inst = make_discrete_instance({1: 2, 3: 1}, 1.0)
        assert sorted(inst.means) == [0.5, 0.5, 0.875, 1.0]

    def test_two_arm_case(self):
        inst = make_discrete_instance({1: 1}, 1.0)
        assert profile(inst).gaps == (0.5,)

    def test_mean_below_zero_rejected(self):
        with pytest.raises(ValueError, match="below 0"):
            make_discrete_instance({2: 3}, 0.2)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            make_discrete_instance({}, 1.0)
        with pytest.raises(ValueError):
            make_discrete_instance({1: 0}, 1.0)

    def test_complexity_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            counts = {k: int(rng.integers(0, 4)) for k in (1, 2, 3)}
            counts = {k: n for k, n in counts.items() if n}
            if not counts:
                continue
            inst = make_discrete_instance(counts, 1.0)
            assert profile(inst).H == float(sum(4**k * n for k, n in counts.items()))


def test_profile_csv_row_shape():
    inst = Instance.from_means((1.0, 0.5, 0.5, 0.75), label="demo")
    row = profile_csv_row(inst)
    assert row[:2] == ["demo", "4"]
    assert float(row[2]) == 24.0
    assert int(row[4]) == 2
    # two nonempty groups -> two (k, H_k, p_k) triples
    assert len(row) == 5 + 2 * 3
    assert [row[5], row[8]] == ["1", "2"]
