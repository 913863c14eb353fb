#include "alloc/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace e2efa {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest s <= 1 with s·lb feasible. With non-negative rows, s·lb is the
/// least point of its box, so it fits exactly when every capacity row and
/// every x_i <= 1 holds there.
double floor_relaxation(const ShareLp& lp) {
  double worst = 0.0;
  for (const auto& row : lp.capacity_rows) {
    E2EFA_ASSERT(row.size() == lp.weights.size());
    double load = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      E2EFA_ASSERT_MSG(row[i] >= 0.0, "capacity rows must be non-negative");
      load += row[i] * lp.lower_bounds[i];
    }
    worst = std::max(worst, load);
  }
  for (double lb : lp.lower_bounds) {
    E2EFA_ASSERT_MSG(lb >= 0.0, "basic shares must be non-negative");
    worst = std::max(worst, lb);
  }
  return worst > 1.0 ? 1.0 / worst : 1.0;
}

}  // namespace

ShareLpResult solve_share_lp(const ShareLp& lp) {
  const int n = static_cast<int>(lp.weights.size());
  E2EFA_ASSERT(n >= 1);
  E2EFA_ASSERT(lp.lower_bounds.size() == lp.weights.size());
  E2EFA_ASSERT(lp.upper_bounds.empty() || lp.upper_bounds.size() == lp.weights.size());
  for (double w : lp.weights) E2EFA_ASSERT(w > 0.0);

  ShareLpResult out;
  const double scale = floor_relaxation(lp);
  out.min_relaxation = scale;

  // Columns: the shares x_0..x_{n-1}, then the max-min level t (column n).
  // Rows: the capacity rows, then one level row x_i - w_i·t >= 0 per share.
  const int ncap = static_cast<int>(lp.capacity_rows.size());
  std::vector<std::vector<double>> rows;
  rows.reserve(static_cast<std::size_t>(ncap + n));
  for (const auto& row : lp.capacity_rows) {
    rows.push_back(row);
    rows.back().push_back(0.0);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<double> level(static_cast<std::size_t>(n + 1), 0.0);
    level[static_cast<std::size_t>(i)] = 1.0;
    level[static_cast<std::size_t>(n)] = -lp.weights[static_cast<std::size_t>(i)];
    rows.push_back(std::move(level));
  }
  BoundedSimplex s(rows, n + 1);
  const double eps = SimplexOptions{}.epsilon;
  for (int k = 0; k < ncap; ++k) s.set_row_bounds(k, -kInf, 1.0);
  for (int i = 0; i < n; ++i) {
    const double lb = lp.lower_bounds[static_cast<std::size_t>(i)];
    const bool capped = !lp.upper_bounds.empty();
    const double cap = capped ? lp.upper_bounds[static_cast<std::size_t>(i)] : 1.0;
    E2EFA_ASSERT_MSG(!capped || cap >= lb, "rate cap below the lower bound");
    s.set_row_bounds(ncap + i, 0.0, kInf);
    s.set_col_bounds(i, scale * lb, std::min(1.0, cap));
  }

  // Pass 1: maximize total share. The floors fit, so the all-slack start
  // basis is feasible and no phase 1 runs (nor in the first level pass when
  // this one is skipped).
  std::vector<double> objective(static_cast<std::size_t>(n + 1), 1.0);
  objective[static_cast<std::size_t>(n)] = 0.0;
  if (lp.maximize_total) {
    s.set_col_bounds(n, 0.0, 0.0);  // t stays out of the total pass
    s.set_objective(objective);
    ++out.lp_solves;
    const LpStatus total_status = s.solve();
    if (total_status != LpStatus::kOptimal) {
      out.status = total_status;
      return out;
    }
    // Every later pass stays on the set of total-maximizing points, pinned
    // exactly through the pass's reduced costs.
    s.restrict_to_optimal_face();
    s.set_col_bounds(n, 0.0, kInf);
  }

  // Balanced refinement: lexicographic max-min of x_i / w_i among optima.
  std::vector<bool> frozen(static_cast<std::size_t>(n), false);
  std::vector<double> shares(static_cast<std::size_t>(n), 0.0);
  int free_count = n;
  auto freeze = [&](int i, double v) {
    frozen[static_cast<std::size_t>(i)] = true;
    shares[static_cast<std::size_t>(i)] = v;
    --free_count;
    s.set_col_bounds(i, v, v);
    s.set_row_bounds(ncap + i, -kInf, kInf);  // t may now rise past it
  };
  // A share the restricted face pins (a nonbasic column with a nonzero
  // reduced cost) has one value left; freezing it there now leaves the
  // max-min point unchanged, since a constant component shifts every
  // sorted comparison equally, and spares it a level and a probe.
  auto freeze_pinned = [&] {
    for (int i = 0; i < n; ++i)
      if (!frozen[static_cast<std::size_t>(i)] && std::abs(s.reduced_cost(i)) > eps)
        freeze(i, s.value(i));
  };
  if (lp.maximize_total) freeze_pinned();
  while (free_count > 0) {
    // Maximize the common level t of the free shares.
    std::fill(objective.begin(), objective.end(), 0.0);
    objective[static_cast<std::size_t>(n)] = 1.0;
    s.set_objective(objective);
    ++out.lp_solves;
    if (s.solve() != LpStatus::kOptimal) break;  // keep the current point
    const double t = s.value(n);
    const int free_before = free_count;

    // A free share whose level row carries a positive dual (a negative
    // row_dual on a >= row) sits at w_i·t in every optimal point of this
    // level (Nace & Pióro's non-blocking test): freeze it. A tight row
    // with a zero dual is dual-degenerate and needs a probe; a slack row
    // shows the share already above the level.
    std::vector<int> at_level, leftovers;
    int lowest = -1;
    for (int i = 0; i < n; ++i) {
      if (frozen[static_cast<std::size_t>(i)]) continue;
      const double headroom = s.row_activity(ncap + i);
      if (lowest < 0 || headroom < s.row_activity(ncap + lowest)) lowest = i;
      if (s.row_dual(ncap + i) < -eps) at_level.push_back(i);
      else if (headroom <= eps && std::abs(s.reduced_cost(i)) <= eps) leftovers.push_back(i);
    }
    // Later levels stay on this level's optimal face too. Restrict before
    // freezing: freezing frees the level rows the restriction would pin.
    s.restrict_to_optimal_face();
    for (int i : at_level) freeze(i, lp.weights[static_cast<std::size_t>(i)] * t);
    freeze_pinned();
    if (!leftovers.empty()) {
      // Probe the leftovers with the level held: maximize their sum. If
      // none rises above w_i·t at the optimum, none can rise anywhere (each
      // is >= w_i·t and the sum cannot grow), so all freeze; otherwise the
      // ones that rose are free and the rest are probed again.
      s.set_col_bounds(n, t, t);
      while (!leftovers.empty()) {
        std::fill(objective.begin(), objective.end(), 0.0);
        for (int i : leftovers) objective[static_cast<std::size_t>(i)] = 1.0;
        s.set_objective(objective);
        ++out.lp_solves;
        if (s.solve() != LpStatus::kOptimal) break;
        std::vector<int> still;
        for (int i : leftovers)
          if (s.row_activity(ncap + i) <= eps) still.push_back(i);
        if (still.size() == leftovers.size()) {
          for (int i : leftovers) freeze(i, lp.weights[static_cast<std::size_t>(i)] * t);
          break;
        }
        leftovers = std::move(still);
      }
    }
    s.set_col_bounds(n, t, kInf);
    // Numerical guard: every level freezes at least one share (the free
    // rows' duals satisfy Σ w_i·dual_i = -1), so fall back to the lowest.
    if (free_count == free_before) freeze(lowest, lp.weights[static_cast<std::size_t>(lowest)] * t);
  }
  for (int i = 0; i < n; ++i)
    if (!frozen[static_cast<std::size_t>(i)]) shares[static_cast<std::size_t>(i)] = s.value(i);

  out.status = LpStatus::kOptimal;
  out.shares = std::move(shares);
  out.total = 0.0;
  for (double v : out.shares) out.total += v;
  return out;
}

}  // namespace e2efa
