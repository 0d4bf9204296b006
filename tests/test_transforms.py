import pytest

from sectorpack import (LinearMap2, Sector, SectorPackError, Slope,
                        lambda_map, m_map, phi_map, psi_map)

from family_zoo import sector_points


class TestFactories:
    def test_lambda(self):
        assert lambda_map(0) == LinearMap2.identity()
        assert lambda_map(1) == LinearMap2(1, 1, 0, 1)
        assert lambda_map(3) == LinearMap2(1, 3, 0, 1)

    def test_m(self):
        assert m_map(0) == LinearMap2(0, 1, 1, 0)
        assert m_map(2) == LinearMap2(2, 1, 1, 0)

    def test_m_is_shear_times_swap(self):
        for s in range(11):
            assert m_map(s) == lambda_map(s).compose(m_map(0))

    def test_phi(self):
        assert phi_map(1) == LinearMap2(1, 0, 1, -1)
        assert phi_map(2) == LinearMap2(2, -3, 1, -2)
        assert phi_map(0) == LinearMap2(0, 1, 1, 0)

    def test_psi(self):
        assert psi_map(1) == LinearMap2(1, 0, 1, -1)
        assert psi_map(3) == LinearMap2(1, 0, 3, -1)
        assert psi_map(1) == phi_map(1)

    def test_psi_rejects_zero(self):
        with pytest.raises(SectorPackError):
            psi_map(0)

    def test_negative_parameters_rejected(self):
        for factory in (lambda_map, m_map, phi_map):
            with pytest.raises(SectorPackError):
                factory(-1)

    def test_factories_are_unimodular(self):
        for s in range(21):
            assert lambda_map(s).det in (1, -1)
            assert m_map(s).det in (1, -1)
            assert phi_map(s).det in (1, -1)
            if s >= 1:
                assert psi_map(s).det in (1, -1)


class TestApply:
    def test_examples(self):
        assert lambda_map(2).apply((1, 1)) == (3, 1)
        assert phi_map(1).apply((5, 2)) == (5, 3)
        assert LinearMap2.identity().apply((7, 4)) == (7, 4)
        assert psi_map(2).apply((3, 1)) == (3, 5)

    def test_may_leave_quadrant(self):
        assert lambda_map(2).inverse().apply((0, 1)) == (-2, 1)


class TestAlgebra:
    def test_shear_composition(self):
        assert lambda_map(2).compose(lambda_map(3)) == lambda_map(5)
        for s in range(11):
            for t in range(11):
                assert lambda_map(s).compose(lambda_map(t)) == lambda_map(s + t)

    def test_matmul_operator(self):
        assert lambda_map(2) @ lambda_map(3) == lambda_map(5)

    def test_shear_inverse(self):
        for s in range(21):
            assert lambda_map(s).inverse() == LinearMap2(1, -s, 0, 1)
            assert lambda_map(s) @ lambda_map(s).inverse() == LinearMap2.identity()

    def test_inverse_of_negative_determinant(self):
        m = m_map(3)
        assert m.det == -1
        assert m @ m.inverse() == LinearMap2.identity()
        assert m.inverse() @ m == LinearMap2.identity()

    def test_inverse_requires_unimodular(self):
        with pytest.raises(SectorPackError):
            LinearMap2(2, 0, 0, 2).inverse()

    def test_involutions(self):
        for s in range(21):
            assert phi_map(s) @ phi_map(s) == LinearMap2.identity()
            if s >= 1:
                assert psi_map(s) @ psi_map(s) == LinearMap2.identity()
        assert lambda_map(1) @ lambda_map(1) != LinearMap2.identity()


class TestSectorAction:
    def test_shear_carries_quadrant_onto_reciprocal_sector(self):
        # injective on the box, image inside the target sector, and the
        # inverse shear recovers every target point from a quadrant point
        quadrant = Sector(Slope.infinite())
        box = sector_points(quadrant, 50, 50)
        for s in range(21):
            target = Sector(Slope(1, s) if s else Slope.infinite())
            images = {lambda_map(s).apply(p) for p in box}
            assert len(images) == len(box)
            assert all(q in target for q in images)
            back = lambda_map(s).inverse()
            for q in sector_points(target, 50) if s else box:
                assert back.apply(q) in quadrant

    def test_psi_restricts_to_bijection_of_steep_sector(self):
        for r in range(1, 11):
            sector = Sector(Slope(r, 1))
            for p in sector_points(sector, 50):
                q = psi_map(r).apply(p)
                assert q in sector
                assert psi_map(r).apply(q) == p

    def test_phi_preserves_reciprocal_sector(self):
        for s in range(1, 11):
            sector = Sector(Slope(1, s))
            for p in sector_points(sector, 50):
                assert phi_map(s).apply(p) in sector
