// The balanced refinement as it stood before the warm-started Phase-1 engine,
// kept verbatim (only its namespace and the name of the solver it calls
// differ) as a differential oracle for solve_share_lp: it solves one LP per
// free variable per max-min level, each rebuilt from scratch on the old
// dense tableau (simplex_v1.cpp), with a bisection for relaxed floors.
// Used by tests/refine_test.cpp only.
#include "oracle/refine_v1.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace e2efa::oracle {

namespace {

constexpr double kTol = 1e-7;

/// Builds the base problem: n share variables (+1 trailing variable for the
/// max-min passes when with_t). Capacity rows and x_i <= 1 safety rows.
LpProblem base_problem(const ShareLp& lp, double min_scale, bool with_t) {
  const int n = static_cast<int>(lp.weights.size());
  const int nv = n + (with_t ? 1 : 0);
  LpProblem p(nv);
  for (int i = 0; i < n; ++i)
    p.set_lower_bound(i, lp.lower_bounds[static_cast<std::size_t>(i)] * min_scale);
  for (const auto& row : lp.capacity_rows) {
    E2EFA_ASSERT(static_cast<int>(row.size()) == n);
    std::vector<double> coeffs(static_cast<std::size_t>(nv), 0.0);
    std::copy(row.begin(), row.end(), coeffs.begin());
    p.add_constraint(std::move(coeffs), Relation::kLessEq, 1.0);
  }
  // No share can exceed the full channel; keeps every pass bounded.
  for (int i = 0; i < n; ++i) {
    std::vector<double> coeffs(static_cast<std::size_t>(nv), 0.0);
    coeffs[static_cast<std::size_t>(i)] = 1.0;
    p.add_constraint(std::move(coeffs), Relation::kLessEq, 1.0);
  }
  return p;
}

bool feasible_at_scale(const ShareLp& lp, double scale) {
  LpProblem p = base_problem(lp, scale, /*with_t=*/false);
  // Any objective; we only care about feasibility.
  LpSolution s = solve_lp_v1(p);
  return s.status == LpStatus::kOptimal;
}

}  // namespace

ShareLpResult solve_share_lp(const ShareLp& lp) {
  const int n = static_cast<int>(lp.weights.size());
  E2EFA_ASSERT(n >= 1);
  E2EFA_ASSERT(lp.lower_bounds.size() == lp.weights.size());
  for (double w : lp.weights) E2EFA_ASSERT(w > 0.0);

  ShareLpResult out;

  // Relax the lower bounds if they are jointly infeasible (possible in the
  // distributed algorithm where a node over-estimates local basic shares).
  double scale = 1.0;
  if (!feasible_at_scale(lp, 1.0)) {
    double lo = 0.0, hi = 1.0;
    E2EFA_ASSERT_MSG(feasible_at_scale(lp, 0.0), "capacity rows alone infeasible");
    for (int it = 0; it < 50; ++it) {
      const double mid = 0.5 * (lo + hi);
      (feasible_at_scale(lp, mid) ? lo : hi) = mid;
    }
    scale = lo;
  }
  out.min_relaxation = scale;

  // Pass 1: maximize total share.
  LpProblem p = base_problem(lp, scale, /*with_t=*/false);
  for (int i = 0; i < n; ++i) p.set_objective(i, 1.0);
  LpSolution best = solve_lp_v1(p);
  if (best.status != LpStatus::kOptimal) {
    out.status = best.status;
    return out;
  }
  const double total = best.objective;

  // Balanced refinement: lexicographic max-min of x_i / w_i among optima.
  std::vector<bool> fixed(static_cast<std::size_t>(n), false);
  std::vector<double> fixed_value(static_cast<std::size_t>(n), 0.0);

  auto build_refine_problem = [&](bool with_t, double t_floor) {
    LpProblem q = base_problem(lp, scale, with_t);
    const int tvar = n;  // only valid when with_t
    // Stay on the optimal face: Σ x >= total - tol.
    {
      std::vector<double> coeffs(static_cast<std::size_t>(q.num_vars()), 0.0);
      for (int i = 0; i < n; ++i) coeffs[static_cast<std::size_t>(i)] = 1.0;
      q.add_constraint(std::move(coeffs), Relation::kGreaterEq, total - kTol);
    }
    for (int i = 0; i < n; ++i) {
      if (fixed[static_cast<std::size_t>(i)]) {
        std::vector<double> coeffs(static_cast<std::size_t>(q.num_vars()), 0.0);
        coeffs[static_cast<std::size_t>(i)] = 1.0;
        q.add_constraint(std::move(coeffs), Relation::kEqual,
                         fixed_value[static_cast<std::size_t>(i)]);
      } else if (with_t) {
        // x_i - w_i t >= 0
        std::vector<double> coeffs(static_cast<std::size_t>(q.num_vars()), 0.0);
        coeffs[static_cast<std::size_t>(i)] = 1.0;
        coeffs[static_cast<std::size_t>(tvar)] = -lp.weights[static_cast<std::size_t>(i)];
        q.add_constraint(std::move(coeffs), Relation::kGreaterEq, 0.0);
      } else {
        // Free variables keep the established floor t_floor.
        std::vector<double> coeffs(static_cast<std::size_t>(q.num_vars()), 0.0);
        coeffs[static_cast<std::size_t>(i)] = 1.0;
        q.add_constraint(std::move(coeffs), Relation::kGreaterEq,
                         lp.weights[static_cast<std::size_t>(i)] * t_floor - kTol);
      }
    }
    return q;
  };

  int free_count = n;
  std::vector<double> x = best.x;
  while (free_count > 0) {
    // Maximize the minimum weighted share t among free variables.
    LpProblem q = build_refine_problem(/*with_t=*/true, 0.0);
    q.set_objective(n, 1.0);
    LpSolution st = solve_lp_v1(q);
    if (st.status != LpStatus::kOptimal) break;  // keep current x (tolerances)
    const double t_star = st.x[static_cast<std::size_t>(n)];

    // Fix every free variable that cannot rise above w_i * t_star.
    int newly_fixed = 0;
    int argmin = -1;
    double argmin_head = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      if (fixed[static_cast<std::size_t>(i)]) continue;
      LpProblem qi = build_refine_problem(/*with_t=*/false, t_star);
      qi.set_objective(i, 1.0);
      LpSolution si = solve_lp_v1(qi);
      const double target = lp.weights[static_cast<std::size_t>(i)] * t_star;
      const double headroom =
          si.status == LpStatus::kOptimal ? si.objective - target : 0.0;
      if (headroom <= 10 * kTol) {
        fixed[static_cast<std::size_t>(i)] = true;
        fixed_value[static_cast<std::size_t>(i)] = target;
        ++newly_fixed;
        --free_count;
      } else if (headroom < argmin_head) {
        argmin_head = headroom;
        argmin = i;
      }
    }
    if (newly_fixed == 0) {
      // Numerical guard: force progress by fixing the tightest variable.
      E2EFA_ASSERT(argmin >= 0);
      fixed[static_cast<std::size_t>(argmin)] = true;
      fixed_value[static_cast<std::size_t>(argmin)] =
          lp.weights[static_cast<std::size_t>(argmin)] * t_star;
      --free_count;
    }
    x = st.x;
    x.resize(static_cast<std::size_t>(n));
  }

  // Final re-solve with all fixes applied for a clean vertex.
  {
    LpProblem q = build_refine_problem(/*with_t=*/false, 0.0);
    for (int i = 0; i < n; ++i) q.set_objective(i, 1.0);
    LpSolution sf = solve_lp_v1(q);
    if (sf.status == LpStatus::kOptimal) {
      x = sf.x;
      x.resize(static_cast<std::size_t>(n));
    }
  }

  out.status = LpStatus::kOptimal;
  out.shares = std::move(x);
  out.total = 0.0;
  for (double v : out.shares) out.total += v;
  return out;
}

}  // namespace e2efa::oracle
