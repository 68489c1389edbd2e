import pytest

from bincurve.rng import Rng

# Reference stream for the mix function, frozen so any reimplementation or
# platform drift is caught immediately.
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_frozen_vectors_seed_zero():
    r = Rng(0)
    assert tuple(r.next_u64() for _ in range(3)) == SEED0_STREAM


def test_seed_is_state_offset():
    # seeding with the increment equals skipping one step of the zero stream
    assert Rng(0x9E3779B97F4A7C15).next_u64() == SEED0_STREAM[1]


def test_determinism_and_independence():
    a, b = Rng(42), Rng(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert Rng(42).next_u64() != Rng(43).next_u64()


def test_below_bounds_and_rejects_bad_n():
    r = Rng(7)
    for _ in range(200):
        assert 0 <= r.below(6) < 6
    with pytest.raises(ValueError):
        r.below(0)


def test_below_hits_every_residue():
    r = Rng(1)
    seen = {r.below(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}


def test_choice_and_distinct():
    r = Rng(3)
    pool = list(range(10))
    assert r.choice(pool) in pool
    picks = r.distinct(pool, 7)
    assert len(picks) == 7 and len(set(picks)) == 7
    assert all(x in pool for x in picks)
    with pytest.raises(ValueError):
        r.distinct(pool, 11)


def test_spawn_gives_detached_stream():
    parent = Rng(99)
    child = parent.spawn()
    first = child.next_u64()
    # child state was consumed from the parent, so the two streams differ
    assert first != parent.next_u64()
    # and respawning from the same parent seed reproduces the child
    assert Rng(99).spawn().next_u64() == first
