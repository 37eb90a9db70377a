"""Determinism and distribution checks for the seeded stream."""

import math

import pytest

from ringtrace.rng import Rng


def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a = Rng(1)
    b = Rng(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_fork_is_deterministic_and_independent():
    root = Rng(99)
    c1 = root.fork("economy", 3)
    c2 = root.fork("economy", 3)
    c3 = root.fork("economy", 4)
    s1 = [c1.next_u64() for _ in range(10)]
    assert s1 == [c2.next_u64() for _ in range(10)]
    assert s1 != [c3.next_u64() for _ in range(10)]
    # forking does not consume parent state
    root2 = Rng(99)
    root2.fork("x")
    assert Rng(99).next_u64() == root2.next_u64()


def test_random_in_unit_interval():
    rng = Rng(5)
    xs = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    mean = sum(xs) / len(xs)
    # mean of U(0,1): sd of the mean is 1/sqrt(12 n)
    assert abs(mean - 0.5) < 5 / math.sqrt(12 * len(xs))


def test_randrange_uniform_chi_square():
    rng = Rng(7)
    n, draws = 10, 50_000
    counts = [0] * n
    for _ in range(draws):
        counts[rng.randrange(n)] += 1
    expected = draws / n
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # df = 9: mean 9, sd sqrt(18); 6 sigma head room
    assert chi2 < 9 + 6 * math.sqrt(18)


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randrange(0)


@pytest.mark.parametrize("lam", [0.5, 5.0, 100.0])
def test_poisson_mean_within_3_sigma(lam):
    rng = Rng(21)
    n = 10_000
    draws = [rng.poisson(lam) for _ in range(n)]
    mean = sum(draws) / n
    sigma_mean = math.sqrt(lam / n)
    assert abs(mean - lam) < 3 * sigma_mean


def test_poisson_large_mean_chunked():
    # above the chunk size; exactness relies on Poisson additivity
    rng = Rng(23)
    lam, n = 2_000.0, 2_000
    draws = [rng.poisson(lam) for _ in range(n)]
    mean = sum(draws) / n
    assert abs(mean - lam) < 3 * math.sqrt(lam / n)
    var = sum((d - mean) ** 2 for d in draws) / n
    # Poisson variance equals the mean; sd of sample var ~ lam * sqrt(2/n)
    assert abs(var - lam) < 5 * lam * math.sqrt(2 / n)


def test_poisson_zero():
    assert Rng(1).poisson(0.0) == 0
