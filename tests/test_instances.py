import pytest

from cdut.instances import separated_planted_instance


class TestSeparatedPlanted:
    def test_m_over_n_is_rejected(self):
        with pytest.raises(ValueError, match="m = 40 exceeds n = 12"):
            separated_planted_instance(40, 12, 2, 1.0, 2.0, 0.25, "yes", seed=0)

    @pytest.mark.parametrize("kind", ["yes", "no"])
    def test_m_equal_to_n_is_accepted(self, kind):
        inst = separated_planted_instance(12, 12, 2, 1.0, 2.0, 0.25, kind, seed=0)
        assert len(inst.a) == len(inst.b) == 12
