"""Set-up shared by every workload: models and the exact layer they are checked against.

This is the work that setup_s times in a fresh process, after the homfrag
and numpy import: model construction, the PhiEvaluators in closed-form,
quadrature and monte_carlo mode, and the quadrature p_bar.
"""

import math


class Reference:
    def __init__(self, H, seed):
        self.ub = H.UniformBinaryModel()
        self.dyadic = H.AtomicModel([([0.5, 0.5], 1.0)])
        self.ptail = H.PowerTailBinaryModel(epsilon=0.01)
        self.ub_eval = H.PhiEvaluator(self.ub)
        self.dyadic_eval = H.PhiEvaluator(self.dyadic)
        self.ptail_quad = H.PhiEvaluator(self.ptail, mode="quadrature")
        self.ptail_mc = H.PhiEvaluator(self.ptail, mode="monte_carlo",
                                       mc_seed=seed)
        self.ptail_quad.p_bar()
        p_bar = self.ub_eval.p_bar()
        self.barrier_slope = self.ub_eval.phi_derivs(p_bar).first
        if not abs(p_bar - math.sqrt(2.0)) <= 1e-9:
            raise RuntimeError(f"uniform_binary p_bar = {p_bar!r}, not sqrt(2)")
