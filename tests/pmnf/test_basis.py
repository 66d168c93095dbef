"""The cached term basis against per-term evaluation."""

import threading

import numpy as np
import pytest

from repro.pmnf import basis as basis_module
from repro.pmnf.basis import BASIS_CACHE_SIZE, basis_row, term_basis
from repro.pmnf.searchspace import EXPONENT_PAIRS, NUM_CLASSES
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.synthesis.sequences import SequenceKind, random_sequence
from repro.util.seeding import as_generator

TERMS = [CompoundTerm.from_pair(pair) for pair in EXPONENT_PAIRS]


def per_term(xs):
    return np.array([term.evaluate(xs) for term in TERMS])


def layouts():
    """Layouts of every sequence kind plus sorted uniform floats, n = 5..11."""
    gen = as_generator(2021)
    for n in range(5, 12):
        for kind in SequenceKind:
            yield random_sequence(n, kind, gen)
        yield np.sort(gen.uniform(1.0, 1000.0, n))


class TestBitIdentity:
    def test_every_pair_matches_evaluate(self):
        for xs in layouts():
            np.testing.assert_array_equal(term_basis(xs), per_term(xs))

    def test_row_order_is_the_class_order(self):
        assert term_basis(np.arange(2.0, 7.0)).shape == (NUM_CLASSES, 5)
        for k, pair in enumerate(EXPONENT_PAIRS):
            assert basis_row(pair) == k

    def test_pair_outside_the_search_space_has_no_row(self):
        assert basis_row(ExponentPair(7, 0)) is None  # repro-lint: disable=PMNF001 -- probes a pair outside E on purpose

    def test_strided_column_matches_its_contiguous_copy(self):
        grid = np.array([[10.0, 3.0], [20.0, 3.0], [30.0, 5.0], [40.0, 5.0], [50.0, 7.0]])
        np.testing.assert_array_equal(term_basis(grid[:, 0]), per_term(grid[:, 0]))

    def test_row_wise_scalar_powers_are_required(self):
        # NumPy special-cases scalar exponents (x ** 2 runs as a square,
        # x ** 0.5 as sqrt); a broadcast exponent column takes the general
        # pow path and rounds differently in the last bit on this layout
        # (the log2(x) ** 2 rows). The basis therefore raises each row to
        # a scalar power, as CompoundTerm.evaluate does.
        xs = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        i = np.array([float(p.i) for p in EXPONENT_PAIRS])[:, None]
        j = np.array([p.j for p in EXPONENT_PAIRS])[:, None]
        broadcast = np.power(xs, i) * np.power(np.log2(xs), j)
        assert not np.array_equal(broadcast, per_term(xs))
        np.testing.assert_array_equal(term_basis(xs), per_term(xs))

    def test_read_only(self):
        basis = term_basis(np.arange(2.0, 7.0))
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


class TestErrors:
    @pytest.mark.parametrize("bad", [0.0, -4.0])
    def test_non_positive_x_raises_like_evaluate(self, bad):
        xs = np.array([bad, 2.0, 4.0, 8.0, 16.0])
        with pytest.raises(ValueError) as expected:
            CompoundTerm(1).evaluate(xs)
        with pytest.raises(ValueError) as actual:
            term_basis(xs)
        assert str(actual.value) == str(expected.value)


class TestCache:
    def test_repeated_layout_is_served_from_the_cache(self):
        xs = np.array([3.0, 6.0, 12.0, 24.0, 48.0])
        assert term_basis(xs) is term_basis(xs.copy())

    def test_never_exceeds_its_bound(self):
        cache = basis_module._CACHE
        for k in range(3 * BASIS_CACHE_SIZE):
            term_basis(np.arange(1.0, 6.0) + k)
            assert len(cache) <= BASIS_CACHE_SIZE
        assert len(cache) == BASIS_CACHE_SIZE

    def test_evicted_layout_is_rebuilt_identically(self):
        xs = np.array([5.0, 7.0, 11.0, 13.0, 17.0])
        first = term_basis(xs).copy()
        for k in range(BASIS_CACHE_SIZE + 1):
            term_basis(np.arange(100.0, 105.0) + k)
        np.testing.assert_array_equal(term_basis(xs), first)

    def test_concurrent_callers_get_identical_arrays(self):
        layouts_list = [np.arange(1.0, 8.0) * (k + 1) for k in range(2 * BASIS_CACHE_SIZE)]
        expected = [per_term(xs) for xs in layouts_list]
        mismatches = []
        barrier = threading.Barrier(4)

        def worker(offset):
            barrier.wait()
            for step in range(3 * len(layouts_list)):
                k = (step + offset) % len(layouts_list)
                if not np.array_equal(term_basis(layouts_list[k]), expected[k]):
                    mismatches.append(k)

        threads = [threading.Thread(target=worker, args=(7 * t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []
        assert len(basis_module._CACHE) <= BASIS_CACHE_SIZE
