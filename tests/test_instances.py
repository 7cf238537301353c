import json

import numpy as np
import pytest

from quinticlab import InstanceSpec, InvalidInputError, load_instance_file, random_instance
from quinticlab import instances
from quinticlab.instances import SEPARATION_MIN, complex_to_pair, random_instances
from quinticlab.polynomials import is_degenerate, poly_from_roots

from oracles import random_instance_reference

# At these (seed, index) pairs the first well-separated draw is one that
# is_degenerate flags.
REJECTION_PAIRS = [(2557245980999375963, 24), (7297217133110036595, 51)]


def _bits(tuples) -> np.ndarray:
    return np.asarray(tuples, dtype=complex).view(np.uint64)


class TestRandomInstance:
    def test_bitwise_determinism(self):
        a = random_instance(42, 7)
        b = random_instance(42, 7)
        assert a == b

    def test_indices_differ(self):
        assert random_instance(42, 0) != random_instance(42, 1)

    def test_seeds_differ(self):
        assert random_instance(1, 0) != random_instance(2, 0)

    @pytest.mark.parametrize("index", range(25))
    def test_annulus_and_separation(self, index):
        roots = random_instance(3, index)
        assert len(roots) == 5
        for z in roots:
            assert 0.5 - 1e-12 <= abs(z) <= 1.5 + 1e-12
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(roots[i] - roots[j]) >= SEPARATION_MIN

    @pytest.mark.parametrize("seed, index", REJECTION_PAIRS)
    def test_degenerate_draws_are_rejected(self, seed, index):
        # The sampler must move past the flagged first draw.
        assert not is_degenerate(random_instance(seed, index))

    def test_seed_bounds(self):
        with pytest.raises(InvalidInputError):
            random_instance(-1, 0)
        with pytest.raises(InvalidInputError):
            random_instance(2**64, 0)
        with pytest.raises(InvalidInputError):
            random_instance(5, -2)


class TestChunkSampler:
    @pytest.mark.parametrize("seed", range(21))
    def test_rows_are_random_instance_bitwise(self, seed):
        chunk = random_instances(seed, 0, 2001)
        assert np.array_equal(_bits(chunk), _bits([random_instance(seed, i) for i in range(2001)]))

    @pytest.mark.parametrize("seed", range(21))
    def test_rows_are_the_scalar_stream(self, seed):
        want = [random_instance_reference(seed, i) for i in range(300, 500)]
        assert np.array_equal(_bits(random_instances(seed, 300, 500)), _bits(want))

    @pytest.mark.parametrize("seed, index", REJECTION_PAIRS)
    def test_rejection_pairs(self, seed, index):
        chunk = random_instances(seed, 0, 100)
        want = random_instance_reference(seed, index)
        assert np.array_equal(_bits(chunk[index]), _bits(want))
        assert np.array_equal(_bits(chunk[index]), _bits(random_instance(seed, index)))

    def test_forced_rejections_redraw_from_their_own_stream(self, monkeypatch):
        # Reject the first draw of chosen indices: each of them draws again
        # from its own generator, and every other row keeps its first
        # accepted draw.
        seed, chosen = 11, [0, 3, 4, 250, 999]
        screen, rounds = instances.is_degenerate, []

        def reject_chosen_first(roots):
            flags = screen(roots)
            if not rounds:
                flags[chosen] = True
            rounds.append(len(roots))
            return flags

        monkeypatch.setattr(instances, "is_degenerate", reject_chosen_first)
        chunk = random_instances(seed, 0, 1000)
        monkeypatch.undo()

        assert rounds[0] == 1000 and rounds[1] >= len(chosen)
        want = [random_instance_reference(seed, i, reject_first=i in chosen) for i in range(1000)]
        assert np.array_equal(_bits(chunk), _bits(want))
        assert not np.array_equal(_bits(chunk[chosen]), _bits([random_instance(seed, i) for i in chosen]))

    def test_empty_and_invalid_ranges(self):
        assert random_instances(4, 7, 7).shape == (0, 5)
        with pytest.raises(InvalidInputError):
            random_instances(4, -1, 3)
        with pytest.raises(InvalidInputError):
            random_instances(2**64, 0, 3)


class TestInstanceSpec:
    def test_exactly_one_source(self):
        with pytest.raises(InvalidInputError):
            InstanceSpec()
        with pytest.raises(InvalidInputError):
            InstanceSpec(roots=(1, 2, 3, 4, 5), seed=1)

    def test_roots_source(self):
        roots = random_instance(8, 0)
        assert InstanceSpec(roots=roots).root_tuple() == roots

    def test_generator_source(self):
        spec = InstanceSpec(seed=8, index=3)
        assert spec.root_tuple() == random_instance(8, 3)

    def test_coefficients_source_recovers_roots(self):
        roots = random_instance(8, 1)
        coeffs = poly_from_roots(roots).coeffs
        recovered = InstanceSpec(coefficients=coeffs).root_tuple()
        expected = sorted(roots, key=lambda z: (z.real, z.imag))
        assert all(
            abs(a - b) < 1e-8 for a, b in zip(recovered, expected)
        )


class TestInstanceFile:
    def _write(self, tmp_path, payload):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_roots_file(self, tmp_path):
        roots = random_instance(9, 0)
        path = self._write(tmp_path, {"roots": [complex_to_pair(z) for z in roots]})
        spec = load_instance_file(path)
        assert spec.roots == roots

    def test_coefficients_file(self, tmp_path):
        path = self._write(
            tmp_path, {"coefficients": [[0.0, 0.0]] * 4 + [[-1.0, 0.0]]}
        )
        spec = load_instance_file(path)
        assert spec.coefficients == (0j, 0j, 0j, 0j, -1 + 0j)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            load_instance_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_instance_file(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"roots": [[0, 0]] * 4},
            {"roots": [[0, 0]] * 5, "coefficients": [[0, 0]] * 5},
            {"roots": [[0, 0, 0]] * 5},
            {"roots": [["a", 0]] * 5},
            [1, 2, 3],
        ],
    )
    def test_bad_payloads(self, tmp_path, payload):
        path = self._write(tmp_path, payload)
        with pytest.raises(InvalidInputError):
            load_instance_file(path)
