import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinticlab import InvalidInputError, sqrt_discriminant
from quinticlab.ffamily import A5_IN_S5, S5_IMAGES, S5_PARITY, s5_index
from quinticlab.instances import random_instance

from oracles import Perm5, all_a5, all_s5, apply, compose, identity, inverse, three_cycles

perm_strategy = st.permutations(range(5)).map(lambda img: Perm5(tuple(img)))


def test_s5_count_and_order():
    perms = all_s5()
    assert len(perms) == 120
    assert len({p.image for p in perms}) == 120
    assert perms == sorted(perms, key=lambda p: p.image)
    assert perms[0] == identity()


def test_identity_parity():
    assert identity().parity == 1


def test_parity_counts():
    perms = all_s5()
    assert sum(1 for p in perms if p.parity == 1) == 60
    assert sum(1 for p in perms if p.parity == -1) == 60


def test_a5_is_even_subset():
    a5 = all_a5()
    assert len(a5) == 60
    assert all(p.parity == 1 for p in a5)
    assert set(p.image for p in a5) == {
        p.image for p in all_s5() if p.parity == 1
    }


def test_index_tables_match_the_permutations():
    # The package holds S5 only as index tables; these objects are their
    # reference.
    perms = all_s5()
    assert [tuple(row) for row in S5_IMAGES.tolist()] == [p.image for p in perms]
    assert S5_PARITY.tolist() == [p.parity for p in perms]
    assert s5_index([p.image for p in all_a5()]).tolist() == A5_IN_S5.tolist()
    assert s5_index(S5_IMAGES).tolist() == list(range(120))
    for table in (S5_IMAGES, S5_PARITY, A5_IN_S5):
        assert not table.flags.writeable


def test_three_cycles():
    cycles = three_cycles()
    assert len(cycles) == 20
    assert all(p.parity == 1 for p in cycles)
    for p in cycles:
        assert compose(p, compose(p, p)) == identity()
        assert p != identity()


def test_a5_contains_all_three_cycles():
    a5_images = {p.image for p in all_a5()}
    assert all(p.image in a5_images for p in three_cycles())


def test_apply_identity(seeded_roots):
    assert apply(identity(), seeded_roots) == tuple(seeded_roots)


def test_apply_transposition_is_involution(seeded_roots):
    t = Perm5((1, 0, 2, 3, 4))
    assert apply(t, apply(t, seeded_roots)) == tuple(seeded_roots)


def test_apply_pull_convention():
    p = Perm5((2, 0, 1, 3, 4))
    assert apply(p, ("a", "b", "c", "d", "e")) == ("c", "a", "b", "d", "e")


@given(perm_strategy, perm_strategy, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_compose_consistency(p, q, seed):
    rt = random_instance(seed, 0)
    assert apply(compose(p, q), rt) == apply(p, apply(q, rt))


def test_compose_with_identity():
    for p in all_s5():
        assert compose(p, identity()) == p
        assert compose(identity(), p) == p


def test_parity_homomorphism_full():
    perms = all_s5()
    for p in perms:
        for q in perms:
            assert compose(p, q).parity == p.parity * q.parity


def test_inverse():
    for p in all_s5():
        assert compose(p, inverse(p)) == identity()
        assert compose(inverse(p), p) == identity()


def test_invalid_image_rejected():
    with pytest.raises(InvalidInputError):
        Perm5((0, 0, 1, 2, 3))


def test_sqrt_discriminant_parity_behavior(seeded_roots):
    base = sqrt_discriminant(seeded_roots)
    assert abs(base) > 0
    for p in all_s5():
        relabeled = sqrt_discriminant(apply(p, seeded_roots))
        assert abs(relabeled - p.parity * base) <= 1e-12 * abs(base)
