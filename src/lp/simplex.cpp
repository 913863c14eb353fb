#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace e2efa {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Consecutive degenerate steps after which pricing falls back to Bland's
/// rule until the objective moves again.
constexpr int kDegenerateRun = 50;

}  // namespace

BoundedSimplex::BoundedSimplex(const std::vector<std::vector<double>>& rows, int num_cols,
                               const SimplexOptions& options)
    : opt_(options), m_(static_cast<int>(rows.size())), n_(num_cols) {
  E2EFA_ASSERT(n_ >= 1);
  const auto nv = static_cast<std::size_t>(n_ + m_);
  lo_.assign(nv, -kInf);
  hi_.assign(nv, kInf);
  std::fill(lo_.begin(), lo_.begin() + n_, 0.0);
  cost_.assign(nv, 0.0);
  x_.assign(nv, 0.0);
  pos_.resize(nv);
  basic_.assign(nv, false);
  head_.resize(static_cast<std::size_t>(m_));
  nonbasic_.resize(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    nonbasic_[static_cast<std::size_t>(j)] = j;
    pos_[static_cast<std::size_t>(j)] = j;
  }
  t_.reserve(static_cast<std::size_t>(m_) * static_cast<std::size_t>(n_));
  for (int k = 0; k < m_; ++k) {
    const auto& a = rows[static_cast<std::size_t>(k)];
    E2EFA_ASSERT_MSG(static_cast<int>(a.size()) == n_, "constraint arity mismatch");
    for (double v : a) E2EFA_ASSERT_MSG(std::isfinite(v), "constraint coefficient must be finite");
    t_.insert(t_.end(), a.begin(), a.end());
    const int var = n_ + k;
    head_[static_cast<std::size_t>(k)] = var;
    pos_[static_cast<std::size_t>(var)] = k;
    basic_[static_cast<std::size_t>(var)] = true;
  }
  d_.assign(static_cast<std::size_t>(n_), 0.0);
}

void BoundedSimplex::set_objective(const std::vector<double>& c) {
  E2EFA_ASSERT(static_cast<int>(c.size()) == n_);
  std::copy(c.begin(), c.end(), cost_.begin());
}

void BoundedSimplex::set_col_bounds(int j, double lo, double hi) {
  E2EFA_ASSERT(j >= 0 && j < n_);
  set_bounds(j, lo, hi);
}

void BoundedSimplex::set_row_bounds(int k, double lo, double hi) {
  E2EFA_ASSERT(k >= 0 && k < m_);
  set_bounds(n_ + k, lo, hi);
}

void BoundedSimplex::set_bounds(int var, double lo, double hi) {
  E2EFA_ASSERT_MSG(!std::isnan(lo) && !std::isnan(hi) && lo <= hi && lo < kInf && hi > -kInf,
                   "bad bounds");
  const auto v = static_cast<std::size_t>(var);
  if (!basic_[v]) {
    // A nonbasic variable keeps the side it sat on; solve() re-derives the
    // basic values from it.
    double& x = x_[v];
    if (x == lo_[v] && std::isfinite(lo)) x = lo;
    else if (x == hi_[v] && std::isfinite(hi)) x = hi;
    x = std::max(lo, std::min(hi, x));
  }
  lo_[v] = lo;
  hi_[v] = hi;
}

double BoundedSimplex::objective() const {
  double z = 0.0;
  for (int j = 0; j < n_; ++j) z += cost_[static_cast<std::size_t>(j)] * x_[static_cast<std::size_t>(j)];
  return z;
}

double BoundedSimplex::nonbasic_cost(int var) const {
  const auto v = static_cast<std::size_t>(var);
  return basic_[v] ? 0.0 : d_[static_cast<std::size_t>(pos_[v])];
}

void BoundedSimplex::restrict_to_optimal_face() {
  for (int j = 0; j < n_; ++j) {
    if (std::abs(d_[static_cast<std::size_t>(j)]) <= opt_.epsilon) continue;
    const auto v = static_cast<std::size_t>(nonbasic_[static_cast<std::size_t>(j)]);
    lo_[v] = hi_[v] = x_[v];
  }
}

void BoundedSimplex::recompute_basic_values() {
  for (int i = 0; i < m_; ++i) {
    const double* row = &t_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_)];
    double v = 0.0;
    for (int j = 0; j < n_; ++j) v += row[j] * x_[static_cast<std::size_t>(nonbasic_[static_cast<std::size_t>(j)])];
    x_[static_cast<std::size_t>(head_[static_cast<std::size_t>(i)])] = v;
  }
}

void BoundedSimplex::recompute_reduced_costs(const std::vector<double>& cost, bool skip_tiny) {
  for (int j = 0; j < n_; ++j)
    d_[static_cast<std::size_t>(j)] = cost[static_cast<std::size_t>(nonbasic_[static_cast<std::size_t>(j)])];
  for (int i = 0; i < m_; ++i) {
    const double cb = cost[static_cast<std::size_t>(head_[static_cast<std::size_t>(i)])];
    if (cb == 0.0) continue;
    const double* row = &t_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_)];
    for (int j = 0; j < n_; ++j)
      if (!skip_tiny || std::abs(row[j]) > opt_.epsilon) d_[static_cast<std::size_t>(j)] += cb * row[j];
  }
}

bool BoundedSimplex::infeasible(int var) const {
  const auto v = static_cast<std::size_t>(var);
  return x_[v] < lo_[v] - opt_.epsilon || x_[v] > hi_[v] + opt_.epsilon;
}

int BoundedSimplex::choose_entering(Rule rule) const {
  int best = -1;
  double best_score = 0.0;
  for (int j = 0; j < n_; ++j) {
    const double dj = d_[static_cast<std::size_t>(j)];
    const auto v = static_cast<std::size_t>(nonbasic_[static_cast<std::size_t>(j)]);
    if (dj > opt_.epsilon) {
      if (x_[v] >= hi_[v]) continue;
    } else if (dj < -opt_.epsilon) {
      if (x_[v] <= lo_[v]) continue;
    } else {
      continue;
    }
    if (rule == Rule::kBland) {
      if (best < 0 || nonbasic_[static_cast<std::size_t>(j)] < nonbasic_[static_cast<std::size_t>(best)]) best = j;
    } else if (std::abs(dj) > best_score) {
      best_score = std::abs(dj);
      best = j;
    }
  }
  return best;
}

void BoundedSimplex::pivot(int row, int col) {
  const auto n = static_cast<std::size_t>(n_);
  const auto c = static_cast<std::size_t>(col);
  double* pr = &t_[static_cast<std::size_t>(row) * n];
  const double inv = 1.0 / pr[c];
  // Solve row `row` for the entering variable.
  for (std::size_t k = 0; k < n; ++k) pr[k] *= -inv;
  pr[c] = inv;
  auto eliminate = [&](double* r) {
    const double f = r[c];
    if (f == 0.0) return;
    for (std::size_t k = 0; k < n; ++k) r[k] += f * pr[k];
    r[c] = f * inv;
  };
  for (int i = 0; i < m_; ++i)
    if (i != row) eliminate(&t_[static_cast<std::size_t>(i) * n]);
  eliminate(d_.data());

  const int leaving = head_[static_cast<std::size_t>(row)];
  const int entering = nonbasic_[c];
  head_[static_cast<std::size_t>(row)] = entering;
  nonbasic_[c] = leaving;
  pos_[static_cast<std::size_t>(entering)] = row;
  pos_[static_cast<std::size_t>(leaving)] = col;
  basic_[static_cast<std::size_t>(entering)] = true;
  basic_[static_cast<std::size_t>(leaving)] = false;
}

LpStatus BoundedSimplex::iterate(bool phase1, int& budget) {
  const double eps = opt_.epsilon;
  const auto n = static_cast<std::size_t>(n_);
  std::vector<double> infeasibility_cost;
  if (phase1) infeasibility_cost.assign(lo_.size(), 0.0);
  int degenerate = 0;
  for (;;) {
    if (phase1) {
      // Maximize -(sum of bound violations of the basic variables).
      bool any = false;
      std::fill(infeasibility_cost.begin(), infeasibility_cost.end(), 0.0);
      for (int var : head_) {
        const auto v = static_cast<std::size_t>(var);
        infeasibility_cost[v] = x_[v] < lo_[v] - eps ? 1.0 : x_[v] > hi_[v] + eps ? -1.0 : 0.0;
        any = any || infeasibility_cost[v] != 0.0;
      }
      if (!any) return LpStatus::kOptimal;
      recompute_reduced_costs(infeasibility_cost, /*skip_tiny=*/true);
    }
    const int col = choose_entering(degenerate > kDegenerateRun ? Rule::kBland : Rule::kDantzig);
    if (col < 0) return phase1 ? LpStatus::kInfeasible : LpStatus::kOptimal;
    if (budget <= 0) return LpStatus::kIterationLimit;
    --budget;

    // Ratio test: how far can the entering variable move before a basic
    // variable (or the entering variable itself) reaches a bound?
    const auto c = static_cast<std::size_t>(col);
    const auto e = static_cast<std::size_t>(nonbasic_[c]);
    const double dir = d_[c] > 0.0 ? 1.0 : -1.0;
    double theta = dir > 0.0 ? hi_[e] - x_[e] : x_[e] - lo_[e];
    int leave = -1;
    double leave_alpha = 0.0, leave_bound = 0.0;
    const bool bland = degenerate > kDegenerateRun;
    for (int i = 0; i < m_; ++i) {
      const double a = dir * t_[static_cast<std::size_t>(i) * n + c];
      if (std::abs(a) <= eps) continue;
      const auto b = static_cast<std::size_t>(head_[static_cast<std::size_t>(i)]);
      double bound;
      if (phase1 && x_[b] < lo_[b] - eps) {
        if (a < 0.0) continue;  // moves away; the phase-1 cost accounts for it
        bound = lo_[b];
      } else if (phase1 && x_[b] > hi_[b] + eps) {
        if (a > 0.0) continue;
        bound = hi_[b];
      } else {
        bound = a > 0.0 ? hi_[b] : lo_[b];
      }
      if (!std::isfinite(bound)) continue;
      const double r = std::max(0.0, (bound - x_[b]) / a);
      bool take = r < theta - eps;
      if (!take && leave >= 0 && r <= theta + eps)
        take = bland ? head_[static_cast<std::size_t>(i)] < head_[static_cast<std::size_t>(leave)]
                     : std::abs(a) > std::abs(leave_alpha);
      if (take) {
        theta = std::min(theta, r);
        leave = i;
        leave_alpha = a;
        leave_bound = bound;
      }
    }
    if (!std::isfinite(theta)) return LpStatus::kUnbounded;

    const double step = dir * theta;
    if (step != 0.0) {
      x_[e] += step;
      for (int i = 0; i < m_; ++i)
        x_[static_cast<std::size_t>(head_[static_cast<std::size_t>(i)])] +=
            t_[static_cast<std::size_t>(i) * n + c] * step;
    }
    ++iterations_;
    degenerate = theta <= eps ? degenerate + 1 : 0;
    if (leave < 0) {
      x_[e] = dir > 0.0 ? hi_[e] : lo_[e];  // bound flip, no pivot
      continue;
    }
    x_[static_cast<std::size_t>(head_[static_cast<std::size_t>(leave)])] = leave_bound;
    pivot(leave, col);
  }
}

LpStatus BoundedSimplex::solve() {
  int budget = opt_.max_iterations;
  recompute_basic_values();
  if (std::any_of(head_.begin(), head_.end(), [&](int v) { return infeasible(v); })) {
    const LpStatus s = iterate(/*phase1=*/true, budget);
    if (s != LpStatus::kOptimal) return s;
  }
  recompute_reduced_costs(cost_, /*skip_tiny=*/false);
  return iterate(/*phase1=*/false, budget);
}

LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options) {
  const int n = problem.num_vars();
  std::vector<std::vector<double>> rows;
  rows.reserve(problem.constraints().size());
  for (const auto& c : problem.constraints()) rows.push_back(c.coeffs);
  BoundedSimplex s(rows, n, options);
  for (int k = 0; k < static_cast<int>(rows.size()); ++k) {
    const LpConstraint& c = problem.constraints()[static_cast<std::size_t>(k)];
    s.set_row_bounds(k, c.rel == Relation::kLessEq ? -kInf : c.rhs,
                     c.rel == Relation::kGreaterEq ? kInf : c.rhs);
  }
  for (int j = 0; j < n; ++j) {
    const double lb = problem.lower_bounds()[static_cast<std::size_t>(j)];
    E2EFA_ASSERT_MSG(std::isfinite(lb), "lower bound must be finite");
    s.set_col_bounds(j, lb, kInf);
  }
  s.set_objective(problem.objective());

  LpSolution out;
  out.status = s.solve();
  out.iterations = s.iterations();
  if (out.status != LpStatus::kOptimal) return out;
  out.objective = s.objective();
  for (int j = 0; j < n; ++j) {
    out.x.push_back(s.value(j));
    out.reduced_costs.push_back(s.reduced_cost(j));
  }
  for (int k = 0; k < s.num_rows(); ++k) out.duals.push_back(s.row_dual(k));
  return out;
}

}  // namespace e2efa
