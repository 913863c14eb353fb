// Bounded-variable primal Simplex with warm starts.
//
// The paper notes that "in most cases it is sufficient to solve the problem
// with the Simplex algorithm"; this is that solver, built from scratch. It
// works on
//     maximize  c·x
//     s.t.      row_lo_k <= a_k·x <= row_hi_k     (one logical r_k = a_k·x per row)
//               col_lo_j <= x_j   <= col_hi_j     (either side may be infinite)
// and keeps a condensed tableau: every basic variable (structural or
// logical) as a linear function of the nonbasic ones. The system
// [A, -I]·(x, r) = 0 is homogeneous, so the all-logical start basis needs no
// artificial columns: it is feasible whenever the nonbasic structurals sit
// at bounds that satisfy every row, and otherwise a sum-of-infeasibilities
// phase 1 restores feasibility first. Pricing is Dantzig's rule, switching
// to Bland's rule after a run of degenerate pivots so the method terminates.
//
// After a solve the basis stays in place: changing the objective or any
// bound and calling solve() again re-optimizes from there. That is what the
// balanced refinement (alloc/refine) relies on to solve one LP per max-min
// level. Row duals and reduced costs come from the final basis.
#pragma once

#include <string>
#include <vector>

#include "lp/problem.hpp"

namespace e2efa {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* to_string(LpStatus s);

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;       ///< c^T x at the returned point (valid if optimal).
  std::vector<double> x;        ///< Primal values in original variable space.
  /// Row duals y_k (valid if optimal): the objective's rate of change per
  /// unit of row k's right-hand side. y_k >= 0 on binding <= rows,
  /// <= 0 on binding >= rows, 0 on slack rows.
  std::vector<double> duals;
  /// Reduced costs d_j = c_j - Σ_k y_k a_kj (valid if optimal); nonzero
  /// only for a variable held at its lower bound (then d_j <= 0).
  std::vector<double> reduced_costs;
  int iterations = 0;           ///< Pivots and bound flips, both phases.
};

struct SimplexOptions {
  int max_iterations = 10'000;  ///< Per solve() call.
  double epsilon = 1e-9;        ///< Pivot, feasibility and optimality tolerance.
};

/// A re-optimizable LP. Rows are fixed at construction; objective and bounds
/// may change between solve() calls. All accessors that read the solution
/// are valid after a solve() that returned kOptimal.
class BoundedSimplex {
 public:
  /// `rows[k]` holds a_k (num_cols entries). Rows start unbounded, columns
  /// start at [0, +inf), the objective at zero.
  BoundedSimplex(const std::vector<std::vector<double>>& rows, int num_cols,
                 const SimplexOptions& options = {});

  int num_rows() const { return m_; }

  void set_objective(const std::vector<double>& c);
  void set_col_bounds(int j, double lo, double hi);
  void set_row_bounds(int k, double lo, double hi);

  /// Re-optimizes from the current basis.
  LpStatus solve();

  double objective() const;
  double value(int j) const { return x_[static_cast<std::size_t>(j)]; }
  double row_activity(int k) const { return x_[static_cast<std::size_t>(n_ + k)]; }
  double row_dual(int k) const { return nonbasic_cost(n_ + k); }
  double reduced_cost(int j) const { return nonbasic_cost(j); }
  /// Pivots and bound flips over every solve() so far.
  int iterations() const { return iterations_; }

  /// Restricts the feasible set to the optimal face of the last solve:
  /// every nonbasic variable (column or row logical) with a nonzero reduced
  /// cost is fixed where it sits. By complementary slackness the points
  /// left are exactly the optimal solutions of that solve.
  void restrict_to_optimal_face();

 private:
  enum class Rule { kDantzig, kBland };

  double nonbasic_cost(int var) const;
  void set_bounds(int var, double lo, double hi);
  void recompute_basic_values();
  /// d = cost_N + cost_B·t. `skip_tiny` ignores entries at or below
  /// epsilon, as the ratio test does.
  void recompute_reduced_costs(const std::vector<double>& cost, bool skip_tiny);
  bool infeasible(int var) const;
  /// One phase: returns kOptimal when no column can improve `phase1 ? sum
  /// of infeasibilities : c·x` any further.
  LpStatus iterate(bool phase1, int& budget);
  int choose_entering(Rule rule) const;
  void pivot(int row, int col);

  SimplexOptions opt_;
  int m_ = 0;  ///< Rows (= logicals).
  int n_ = 0;  ///< Structural columns.
  /// Per variable (n_ structurals, then m_ logicals).
  std::vector<double> lo_, hi_, cost_, x_;
  std::vector<int> pos_;  ///< Tableau row (basic) or column (nonbasic) of a variable.
  std::vector<bool> basic_;
  std::vector<int> head_;     ///< Basic variable of each tableau row.
  std::vector<int> nonbasic_; ///< Nonbasic variable of each tableau column.
  std::vector<double> t_;     ///< m_ x n_ row-major: basic = t · nonbasic.
  std::vector<double> d_;     ///< Reduced cost of each tableau column.
  int iterations_ = 0;
};

/// Solves `problem` (maximization). Never throws on infeasible/unbounded —
/// those are reported through the status; throws ContractViolation only on
/// malformed input.
LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace e2efa
