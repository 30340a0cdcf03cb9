import numpy as np
import pytest

from reservoirq import numerics
from reservoirq.esn import EsnModel
from reservoirq.esqn import EsqnModel
from reservoirq.numerics import (check_array, check_integer, check_sequence, drive,
                                 one_blas_thread, seeded_rng, substream_seed)


# each reservoir kind, with its input and reservoir sizes
BOTH_MODELS = pytest.mark.parametrize("cls, n_in, n_res",
                                      [(EsnModel, 2, 40), (EsqnModel, 3, 25)],
                                      ids=["esn", "esqn"])


class TestDrive:
    def test_columns_equal_a_literal_step_loop(self):
        rng = seeded_rng(12)
        n_in, n, k = 2, 4, 6
        inputs = rng.uniform(0.0, 1.0, (k, n_in))
        for ufunc in (np.tanh, np.divide):
            state = rng.uniform(0.0, 1.0, n)
            step = rng.uniform(0.1, 1.0, (ufunc.nin * n, 1 + n_in + n))
            regressors = drive(inputs, state, step, ufunc)
            assert regressors.shape == (1 + n_in + n, k)
            x = state
            for t in range(k):
                # the step matrix's columns multiply [x_{t-1}; 1; a_t]
                r = step @ np.concatenate([x, [1.0], inputs[t]])
                x = ufunc(*np.split(r, ufunc.nin))
                np.testing.assert_array_equal(
                    regressors[:, t], np.concatenate([[1.0], inputs[t], x]))

    def test_no_inputs_give_no_columns_and_the_given_state(self):
        state = np.array([0.5, -0.25])
        regressors = drive(np.empty((0, 1)), state, np.ones((2, 4)), np.tanh)
        assert regressors.shape == (4, 0)
        np.testing.assert_array_equal(state, [0.5, -0.25])

    @BOTH_MODELS
    def test_split_run_equals_whole_run(self, cls, n_in, n_res):
        # validation drives the model on from the last state column of training
        rng = seeded_rng(40)
        first, second = rng.uniform(0.0, 1.0, (12, n_in)), rng.uniform(0.0, 1.0, (30, n_in))
        start = rng.uniform(0.0, 1.0, n_res)
        split, whole = (cls.random(n_in, n_res, seeded_rng(41)) for _ in range(2))
        tail = split.run(second, split.run(first, start)[-n_res:, -1])
        joined = whole.run(np.vstack([first, second]), start)
        np.testing.assert_allclose(tail, joined[:, len(first):], rtol=0, atol=1e-15)
        if cls is EsqnModel:
            assert split.overload_steps == whole.overload_steps


class TestCheckInteger:
    @pytest.mark.parametrize("value", [3, 7, np.int64(3), np.uint8(3)])
    def test_integers_at_the_bound_or_above_pass_through(self, value):
        assert check_integer("k", value, 3) is value

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, 0.9, "3", None])
    def test_non_integers_rejected_naming_the_argument(self, value):
        with pytest.raises(ValueError) as info:
            check_integer("k", value, 0)
        assert str(info.value) == f"k must be an integer, got {value!r}"

    def test_below_the_bound_rejected(self):
        with pytest.raises(ValueError) as info:
            check_integer("k", np.int64(-2), 0)
        assert str(info.value) == "k must be >= 0, got -2"


class TestCheckSequence:
    @pytest.mark.parametrize("value", [[1, 2, 3], (1, 2, 3), np.arange(1, 4),
                                       (k for k in range(1, 4))],
                             ids=["list", "tuple", "array", "generator"])
    def test_entries_are_admitted_in_order(self, value):
        assert check_sequence("s", value, lambda entry: 2 * entry) == (2, 4, 6)

    # no entry reaches ``admit``
    @pytest.mark.parametrize("value", [5, "0,1", np.array(3), [], (k for k in ())],
                             ids=["scalar", "string", "0-d-array", "empty",
                                  "exhausted-generator"])
    def test_no_sequence_rejected_naming_the_argument(self, value):
        with pytest.raises(ValueError) as info:
            check_sequence("s", value, pytest.fail)
        assert str(info.value) == f"s must be a non-empty sequence, got {value!r}"


class TestCheckArray:
    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_a_free_length_matches_any_length(self, k):
        arr = check_array("x", np.ones((k, 3), dtype=int), (None, 3))
        assert arr.dtype == float and arr.shape == (k, 3)

    @pytest.mark.parametrize("value, given", [
        (np.ones(3), "(3,)"),              # too few axes
        (np.ones((2, 3, 1)), "(2, 3, 1)"),  # too many
        (np.ones((2, 4)), "(2, 4)"),        # a fixed length differs
        (2.5, "()"),                        # a scalar is an array of no axes
    ], ids=["1-d", "3-d", "length", "scalar"])
    def test_wrong_shape_names_the_argument_and_both_shapes(self, value, given):
        with pytest.raises(ValueError) as info:
            check_array("x", value, (None, 3))
        assert str(info.value) == f"x must have shape (None, 3), got {given}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            check_array("x", [[0.0, bad]], (1, 2))
        assert str(info.value) == "x must be finite"

    # a cast of a complex array would keep its real part, with only a warning
    @pytest.mark.parametrize("value", [[[1.0], [1.0, 2.0]], "abc", {"a": 1}, 1j,
                                       np.array([1.0 + 1j, 2.0])],
                             ids=["ragged", "text", "dict", "complex", "complex-array"])
    def test_value_that_is_no_float_array_rejected_naming_the_argument(self, value):
        with pytest.raises(ValueError, match="^x must be a float array: "):
            check_array("x", value, (None,))


class TestRng:
    def test_substreams_are_reproducible_and_distinct(self):
        a = seeded_rng(5, 0, 1).uniform(size=4)
        b = seeded_rng(5, 0, 1).uniform(size=4)
        c = seeded_rng(5, 0, 2).uniform(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # the stream of numpy's SeedSequence over the whole key
        want = np.random.default_rng(np.random.SeedSequence([5, 0, 1])).uniform(size=4)
        np.testing.assert_array_equal(a, want)

    def test_substream_seed_is_stable(self):
        assert substream_seed(7, 1, 3) == substream_seed(7, 1, 3)
        assert substream_seed(7, 1, 3) != substream_seed(7, 1, 4)

    @pytest.mark.parametrize("seed", [True, 2.0, -1])
    def test_seeded_rng_takes_only_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            seeded_rng(seed)

    def test_substreams_take_numpy_integers_and_no_float(self):
        assert substream_seed(np.int64(1), 1, np.uint8(0)) == substream_seed(1, 1, 0)
        # a float is not truncated to the stream of its integer part
        with pytest.raises(ValueError):
            substream_seed(1.5, 1, 0)
        with pytest.raises(ValueError):
            seeded_rng(1, 1.5)

    @pytest.mark.parametrize("key", [True, "1", -1])
    def test_substream_keys_pass_the_integer_rule(self, key):
        # numpy's SeedSequence would read True and "1" as the stream of 1
        for call in (lambda: substream_seed(key, 1, 0), lambda: seeded_rng(1, key)):
            with pytest.raises(ValueError, match="^stream key must be"):
                call()


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for
    the test so a pin to 1 is visible, and the old count restored after."""
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not use its bundled OpenBLAS here")
    get, put = calls
    before = get()
    put(2)
    yield get
    put(before)


class TestOneBlasThread:
    def test_pins_one_thread_inside_the_block(self, blas_threads):
        with one_blas_thread() as pinned:
            assert pinned is True
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_the_count_when_the_body_raises(self, blas_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with one_blas_thread():
                raise RuntimeError("boom")
        assert blas_threads() == 2

    def test_without_openblas_yields_false_and_changes_nothing(
            self, blas_threads, monkeypatch):
        monkeypatch.setattr(numerics, "_openblas_thread_calls", lambda: None)
        with one_blas_thread() as pinned:
            assert pinned is False
            assert blas_threads() == 2
        assert blas_threads() == 2
