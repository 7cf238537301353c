import numpy as np
import pytest

from quinticlab import eval_f, f_family, random_instance
from quinticlab.ffamily import FAMILY_PATTERNS
from quinticlab.kernels import eval_f_rows
from quinticlab.permutations import S5_IMAGES


def _reference_rows(x, idx):
    import math

    out = []
    for row in idx:
        y = [x[i] for i in row]
        total = 0j
        for n in range(1, 5):
            w = math.sin(2 * math.pi * n / 5)
            for m in range(5):
                total += w * y[m] * y[(m + n) % 5] ** 2 * y[(m + 2 * n) % 5] ** 2
        out.append(total)
    return np.array(out)


@pytest.fixture
def random_case():
    rng = np.random.default_rng(42)
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    idx = rng.integers(0, 5, size=(64, 5)).astype(np.int64)
    return x, idx


def test_matches_scalar_reference(random_case):
    x, idx = random_case
    got = eval_f_rows(x, idx)
    want = _reference_rows(x, idx)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


def test_empty_batch(random_case):
    x, _ = random_case
    out = eval_f_rows(x, np.empty((0, 5), dtype=np.int64))
    assert out.shape == (0,)


def test_validation_errors(random_case):
    x, idx = random_case
    with pytest.raises(ValueError):
        eval_f_rows(x[:4], idx)
    with pytest.raises(ValueError):
        eval_f_rows(x, idx[:, :4])
    bad = idx.copy()
    bad[0, 0] = 5
    with pytest.raises(ValueError):
        eval_f_rows(x, bad)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).tobytes()


def test_single_row_equals_its_family_row():
    # eval_f makes a one-row call and f_family a six-row call; a row's value
    # must not depend on how many rows share the call.
    for i in range(200):
        roots = random_instance(5, i)
        assert _bits([eval_f(roots)]) == _bits([f_family(roots).f]), i


@pytest.mark.parametrize("chunk", [1, 7, 128, 719])
def test_sweep_is_bitwise_independent_of_chunking(chunk):
    # The 720 rows of an S5 family sweep, evaluated at once and in chunks.
    rows = S5_IMAGES[:, FAMILY_PATTERNS].reshape(-1, 5)
    for i in range(50):
        x = random_instance(3, i)
        whole = eval_f_rows(x, rows)
        parts = [eval_f_rows(x, rows[s : s + chunk]) for s in range(0, len(rows), chunk)]
        assert _bits(np.concatenate(parts)) == _bits(whole), i
