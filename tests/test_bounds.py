import math

import numpy as np
import pytest

from nbperc import (
    build_hashimoto,
    compute_bounds_report,
    compute_spectral_report,
    enumerate_elementary_circuits,
    expected_sac_count,
    gen_complete_sym,
    gen_cycle,
    gen_erdos_renyi_digraph,
    gen_random_regular_sym,
    improved_out_bound,
    out_component_probability_bound,
    pc_lower_bounds,
    sac_bound_closed,
    sac_bound_logdet,
    sac_bound_trace,
)
from nbperc.errors import BoundDomainError, CapExceededError
from nbperc.hashimoto import EXACT_TRACE_CAP

from conftest import dense_hashimoto


class TestPcLowerBounds:
    def test_complete_sym(self, k4sym):
        sr = compute_spectral_report(k4sym)
        pcs = pc_lower_bounds(sr)
        assert pcs == pytest.approx((0.5, 0.5, 0.5), abs=1e-9)

    def test_cycle(self, c3):
        sr = compute_spectral_report(c3)
        assert pc_lower_bounds(sr) == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_path_sym_infinite_spectral(self, p3sym):
        # Each arc of P3sym has exactly one allowed successor, so both
        # induced norms are 1 while rho(H) = 0 (nilpotent).
        sr = compute_spectral_report(p3sym)
        pc_s, pc_o, pc_i = pc_lower_bounds(sr)
        assert math.isinf(pc_s)
        assert pc_o == 1.0 and pc_i == 1.0

    def test_star_sym_infinite_spectral(self, star3sym):
        sr = compute_spectral_report(star3sym)
        pc_s, pc_o, pc_i = pc_lower_bounds(sr)
        assert math.isinf(pc_s)
        assert pc_o == 0.5 and pc_i == 0.5


class TestTheorem1Curve:
    def test_value(self):
        assert out_component_probability_bound(0.25, 2) == pytest.approx(2.0)

    def test_p_zero(self):
        assert out_component_probability_bound(0.0, 17) == 1.0

    def test_boundary_void(self):
        with pytest.raises(BoundDomainError):
            out_component_probability_bound(0.5, 2)


class TestImprovedBound:
    def test_complete_sym_coincides(self):
        assert improved_out_bound(0.25, 2.0, 1.0) == pytest.approx(2.0)

    def test_p_zero_gives_gamma(self):
        assert improved_out_bound(0.0, 2.0, 3.7) == pytest.approx(3.7)

    def test_boundary_void(self):
        with pytest.raises(BoundDomainError):
            improved_out_bound(0.5, 2.0, 1.0)

    def test_missing_gamma(self):
        with pytest.raises(BoundDomainError):
            improved_out_bound(0.1, 2.0, None)


class TestSacClosed:
    def test_cycle_value(self):
        assert sac_bound_closed(0.5, 1.0, 3) == pytest.approx(3 * math.log(2))

    def test_p_zero(self):
        assert sac_bound_closed(0.0, 5.0, 100) == 0.0

    def test_complete_sym_value(self):
        assert sac_bound_closed(0.3, 2.0, 12) == pytest.approx(12 * abs(math.log(0.4)))

    def test_void(self):
        with pytest.raises(BoundDomainError):
            sac_bound_closed(0.6, 2.0, 12)


class TestSacTrace:
    def test_cycle_geometric_pattern(self, c3):
        h = build_hashimoto(c3)
        value, tail = sac_bound_trace(0.5, h, 12, 1.0)
        # Tr H^{3k} = 3, so the series is sum over k of (1/8)^k / k.
        expected = sum((0.125 ** k) / k for k in range(1, 5))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value + tail >= -math.log1p(-0.125) - 1e-12

    def test_p_zero(self, c3):
        value, tail = sac_bound_trace(0.0, build_hashimoto(c3), 6, 1.0)
        assert value == 0.0 and tail == 0.0

    def test_complete_sym_sandwich(self, k4sym):
        h = build_hashimoto(k4sym)
        value, _ = sac_bound_trace(0.3, h, 20, 2.0)
        census = enumerate_elementary_circuits(k4sym)
        exact = expected_sac_count(census, 0.3)
        assert exact == pytest.approx(8 * 0.3 ** 3 + 6 * 0.3 ** 4)
        closed = sac_bound_closed(0.3, 2.0, 12)
        assert exact <= value <= closed

    def test_trace_below_closed_plus_tail(self):
        for seed in range(6):
            g = gen_erdos_renyi_digraph(8, 0.3, seed)
            h = build_hashimoto(g)
            sr = compute_spectral_report(g, h)
            if sr.rho_H == 0 or h.n_arcs == 0:
                continue
            for target in (0.25, 0.5, 0.75, 0.95):
                p = target / sr.rho_H
                value, tail = sac_bound_trace(p, h, 32, sr.rho_H)
                closed = sac_bound_closed(p, sr.rho_H, h.n_arcs)
                assert value <= closed + tail + 1e-9


class TestSacLogdet:
    GRAPHS = [gen_cycle(3), gen_complete_sym(4)] + [
        gen_erdos_renyi_digraph(8, 0.3, seed) for seed in range(6)
    ]

    def test_dense_slogdet_and_trace_sandwich(self):
        checked = 0
        for g in self.GRAPHS:
            h = build_hashimoto(g)
            sr = compute_spectral_report(g, h)
            if sr.rho_H == 0:
                continue
            eye = np.eye(h.n_arcs)
            for target in (0.1, 0.25, 0.5, 0.75, 0.95):
                p = target / sr.rho_H
                got = sac_bound_logdet(p, h, sr.rho_H)
                sign, logdet = np.linalg.slogdet(eye - p * dense_hashimoto(g))
                assert sign == 1.0
                assert got == pytest.approx(-logdet, rel=1e-12, abs=1e-14)
                value, tail = sac_bound_trace(p, h, 64, sr.rho_H)
                slack = 1e-12 * max(1.0, value)
                assert value - slack <= got <= value + tail + slack
                checked += 1
        assert checked >= 20

    def test_cycle_closed_form(self, c3):
        # Tr H^s = 3 when 3 | s, else 0: the series is -ln(1 - p^3).
        got = sac_bound_logdet(0.5, build_hashimoto(c3), 1.0)
        assert got == pytest.approx(-math.log1p(-0.125), rel=1e-14)

    def test_domain_and_cap(self, k4sym):
        h = build_hashimoto(k4sym)
        with pytest.raises(BoundDomainError):
            sac_bound_logdet(0.5, h, 2.0)
        with pytest.raises(BoundDomainError):
            sac_bound_logdet(-0.1, h, 2.0)
        big = build_hashimoto(gen_cycle(EXACT_TRACE_CAP + 1))
        with pytest.raises(CapExceededError):
            sac_bound_logdet(0.1, big, 1.0)

    def test_nilpotent_is_zero(self, p3sym):
        assert sac_bound_logdet(0.9, build_hashimoto(p3sym), 0.0) == 0.0

    def test_report_positive_zero_at_p_zero(self, k4sym):
        h = build_hashimoto(k4sym)
        sr = compute_spectral_report(k4sym, h)
        br = compute_bounds_report(sr, h, [0.0, 0.2])
        assert br.sac_trace[0] == 0.0
        assert math.copysign(1.0, br.sac_trace[0]) == 1.0

    def test_report_at_trace_cap(self):
        # 4,998 arcs, just under the cap: the old truncated series ran for
        # hours here.
        g = gen_random_regular_sym(1666, 3, 1)
        h = build_hashimoto(g)
        sr = compute_spectral_report(g, h)
        grid = [0.05, 0.2, 0.35, 0.45, 0.49]
        br = compute_bounds_report(sr, h, grid)
        for p, tr, cl in zip(grid, br.sac_trace, br.sac_closed):
            assert isinstance(tr, float) and cl is not None
            assert 0.0 < tr <= cl


class TestBoundsReport:
    def test_curves_monotone_and_voids(self, k4sym):
        h = build_hashimoto(k4sym)
        sr = compute_spectral_report(k4sym, h)
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.45, 0.6]
        br = compute_bounds_report(sr, h, grid)
        assert br.theorem1_out[-1] is None  # p = 0.6 beyond 1/norm
        finite = [x for x in br.theorem1_out if x is not None]
        assert finite == sorted(finite)
        assert br.theorem1_out[0] == 1.0
        assert br.improved_out[0] == pytest.approx(sr.gamma_L)
        assert br.sac_closed[0] == 0.0
        assert br.sac_trace[0] == 0.0

    def test_trace_skipped_beyond_cap(self):
        # One arc above the cap: sac_bound_logdet refuses, the curve is void.
        g = gen_cycle(EXACT_TRACE_CAP + 1)
        h = build_hashimoto(g)
        sr = compute_spectral_report(g, h)
        br = compute_bounds_report(sr, h, [0.1])
        assert br.sac_trace == [None]
        assert br.sac_closed[0] is not None
