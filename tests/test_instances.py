import math

import numpy as np
import pytest

import cdut.instances
from cdut.instances import separated_planted_instance


def lattice_sites(n: int, d: int, rng) -> np.ndarray:
    """n sites of the side^d lattice as the generator first drew them: every
    site built, last axis fastest, and n of them kept by one permutation."""
    side = math.ceil(n ** (1.0 / d))
    axes = np.stack(np.meshgrid(*[np.arange(side, dtype=np.float64)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return axes[rng.permutation(len(axes))[:n]]


class TestSeparatedPlanted:
    def test_m_over_n_is_rejected(self):
        with pytest.raises(ValueError, match="m = 40 exceeds n = 12"):
            separated_planted_instance(40, 12, 2, 1.0, 2.0, 0.25, "yes", seed=0)

    @pytest.mark.parametrize("kind", ["yes", "no"])
    def test_m_equal_to_n_is_accepted(self, kind):
        inst = separated_planted_instance(12, 12, 2, 1.0, 2.0, 0.25, kind, seed=0)
        assert len(inst.a) == len(inst.b) == 12

    @pytest.mark.parametrize(
        "m,n,d", [(4, 4, 1), (6, 12, 2), (16, 32, 2), (8, 30, 3), (16, 32, 16), (10, 70, 5)]
    )
    @pytest.mark.parametrize("kind", ["yes", "no"])
    def test_sites_match_the_whole_lattice_build(self, m, n, d, kind):
        for seed in range(3):
            inst = separated_planted_instance(m, n, d, 1.0, 2.0, 0.25, kind, seed)
            rng = np.random.default_rng(seed)
            spacing = 3.0 * (2.0 + 1.0) * (1.0 + 2.0 / m) * 1.0
            assert inst.b.points.tobytes() == (lattice_sites(n, d, rng) * spacing).tobytes()
            # the rest of the instance draws from the same stream after the sites
            chosen = rng.permutation(n)[:m]
            shift = rng.uniform(-5.0, 5.0, size=d)
            assert inst.shift.tobytes() == shift.tobytes()
            if kind == "no":
                assert np.array_equal(inst.a.points[:, 1:], inst.b.points[chosen, 1:] - shift[1:])

    def test_a_lattice_over_the_site_cap_is_refused(self, monkeypatch):
        # 2^25 sites at d = 25, twice the cap: refused before the
        # permutation of every site is drawn
        with pytest.raises(ValueError, match="2\\^25 sites exceeds the cap of 16777216"):
            separated_planted_instance(2, 2, 25, 1.0, 2.0, 0.25, "yes", seed=0)
        monkeypatch.setattr(cdut.instances, "_MAX_SITES", 15)
        with pytest.raises(ValueError, match="4\\^2 sites exceeds the cap of 15"):
            separated_planted_instance(4, 16, 2, 1.0, 2.0, 0.25, "yes", seed=0)
        monkeypatch.setattr(cdut.instances, "_MAX_SITES", 16)
        assert len(separated_planted_instance(4, 16, 2, 1.0, 2.0, 0.25, "yes", seed=0).b) == 16


@pytest.mark.parametrize("make", [cdut.instances.translated_copy_instance, cdut.instances.noisy_copy_instance])
class TestGivenShift:
    @pytest.mark.parametrize("d,shift", [(3, [5.0]), (2, [5.0, 6.0, 7.0]), (1, [[5.0]])])
    def test_a_shift_of_another_length_is_refused(self, make, d, shift):
        with pytest.raises(ValueError, match=f"translation has length .*, expected \\({d},\\)"):
            make(6, d, 0, shift=shift)

    def test_a_shift_of_length_d_is_planted(self, make):
        inst = make(6, 2, 0, shift=[5, -6])
        assert inst.shift.dtype == np.float64 and inst.shift.tolist() == [5.0, -6.0]
        assert np.allclose(inst.b.points - inst.a.points, inst.shift, atol=0.5)
