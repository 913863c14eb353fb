// The dense two-phase tableau Simplex as it stood before the bounded,
// warm-started engine, kept verbatim (only its namespace and the entry
// point's name differ; to_string is the library's) so the oracle
// refinement in refine_v1.cpp runs on the solver it was written for. Used
// by tests/refine_test.cpp only.
#include "oracle/refine_v1.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace e2efa::oracle {

namespace {

/// Dense tableau with Bland's rule. Columns: [structural | slack/surplus |
/// artificial | rhs]. The objective row stores negated reduced costs; a
/// column enters while its entry is < -eps.
class Tableau {
 public:
  Tableau(const LpProblem& p, const SimplexOptions& opt) : opt_(opt) {
    const int n = p.num_vars();
    const auto& lb = p.lower_bounds();
    for (double b : lb) E2EFA_ASSERT_MSG(std::isfinite(b), "lower bound must be finite");

    // Shift x = lb + y so y >= 0; record the objective constant.
    obj_shift_ = 0.0;
    for (int i = 0; i < n; ++i) obj_shift_ += p.objective()[i] * lb[i];

    struct Row {
      std::vector<double> a;
      Relation rel;
      double b;
    };
    std::vector<Row> rows;
    rows.reserve(p.constraints().size());
    for (const auto& c : p.constraints()) {
      E2EFA_ASSERT_MSG(static_cast<int>(c.coeffs.size()) == n, "constraint arity mismatch");
      Row r{c.coeffs, c.rel, c.rhs};
      for (int i = 0; i < n; ++i) r.b -= c.coeffs[i] * lb[i];
      if (r.b < 0) {  // Normalize to nonnegative rhs.
        for (double& a : r.a) a = -a;
        r.b = -r.b;
        r.rel = r.rel == Relation::kLessEq    ? Relation::kGreaterEq
                : r.rel == Relation::kGreaterEq ? Relation::kLessEq
                                                : Relation::kEqual;
      }
      rows.push_back(std::move(r));
    }

    m_ = static_cast<int>(rows.size());
    n_struct_ = n;
    int n_slack = 0, n_art = 0;
    for (const auto& r : rows) {
      if (r.rel != Relation::kEqual) ++n_slack;
      if (r.rel != Relation::kLessEq) ++n_art;
    }
    n_slack_ = n_slack;
    n_art_ = n_art;
    cols_ = n_struct_ + n_slack_ + n_art_ + 1;  // + rhs
    t_.assign(static_cast<std::size_t>(m_ + 1), std::vector<double>(static_cast<std::size_t>(cols_), 0.0));
    basis_.assign(static_cast<std::size_t>(m_), -1);

    int slack_at = n_struct_;
    int art_at = n_struct_ + n_slack_;
    for (int i = 0; i < m_; ++i) {
      auto& row = t_[static_cast<std::size_t>(i)];
      for (int j = 0; j < n_struct_; ++j) row[static_cast<std::size_t>(j)] = rows[static_cast<std::size_t>(i)].a[static_cast<std::size_t>(j)];
      row[static_cast<std::size_t>(cols_ - 1)] = rows[static_cast<std::size_t>(i)].b;
      switch (rows[static_cast<std::size_t>(i)].rel) {
        case Relation::kLessEq:
          row[static_cast<std::size_t>(slack_at)] = 1.0;
          basis_[static_cast<std::size_t>(i)] = slack_at++;
          break;
        case Relation::kGreaterEq:
          row[static_cast<std::size_t>(slack_at)] = -1.0;
          ++slack_at;
          row[static_cast<std::size_t>(art_at)] = 1.0;
          basis_[static_cast<std::size_t>(i)] = art_at++;
          break;
        case Relation::kEqual:
          row[static_cast<std::size_t>(art_at)] = 1.0;
          basis_[static_cast<std::size_t>(i)] = art_at++;
          break;
      }
    }
  }

  /// Runs both phases. Returns the status; fills x/objective on optimal.
  LpStatus solve(const LpProblem& p, LpSolution& out) {
    // ---- Phase 1: minimize the sum of artificials. ----
    if (n_art_ > 0) {
      auto& obj = t_[static_cast<std::size_t>(m_)];
      std::fill(obj.begin(), obj.end(), 0.0);
      for (int j = art_begin(); j < art_end(); ++j) obj[static_cast<std::size_t>(j)] = 1.0;
      // Zero out reduced costs of the (artificial) basis.
      for (int i = 0; i < m_; ++i) {
        if (is_artificial(basis_[static_cast<std::size_t>(i)])) subtract_row(m_, i, 1.0);
      }
      const LpStatus s = pivot_loop(out);
      if (s != LpStatus::kOptimal) return s;  // iteration limit (phase 1 can't be unbounded)
      const double art_sum = -t_[static_cast<std::size_t>(m_)][static_cast<std::size_t>(cols_ - 1)];
      if (art_sum > opt_.epsilon) return LpStatus::kInfeasible;
      drive_out_artificials();
    }

    // ---- Phase 2: maximize the real objective. ----
    auto& obj = t_[static_cast<std::size_t>(m_)];
    std::fill(obj.begin(), obj.end(), 0.0);
    for (int j = 0; j < n_struct_; ++j) obj[static_cast<std::size_t>(j)] = -p.objective()[static_cast<std::size_t>(j)];
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b >= 0 && std::abs(obj[static_cast<std::size_t>(b)]) > 0.0) {
        subtract_row(m_, i, obj[static_cast<std::size_t>(b)]);
      }
    }
    const LpStatus s = pivot_loop(out);
    if (s != LpStatus::kOptimal) return s;

    out.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (b >= 0 && b < n_struct_)
        out.x[static_cast<std::size_t>(b)] = t_[static_cast<std::size_t>(i)][static_cast<std::size_t>(cols_ - 1)];
    }
    // Undo the lower-bound shift.
    for (int j = 0; j < n_struct_; ++j) out.x[static_cast<std::size_t>(j)] += p.lower_bounds()[static_cast<std::size_t>(j)];
    out.objective = t_[static_cast<std::size_t>(m_)][static_cast<std::size_t>(cols_ - 1)] + obj_shift_;
    return LpStatus::kOptimal;
  }

 private:
  int art_begin() const { return n_struct_ + n_slack_; }
  int art_end() const { return n_struct_ + n_slack_ + n_art_; }
  bool is_artificial(int col) const { return col >= art_begin() && col < art_end(); }

  /// row[target] -= factor * row[src]
  void subtract_row(int target, int src, double factor) {
    auto& tr = t_[static_cast<std::size_t>(target)];
    const auto& sr = t_[static_cast<std::size_t>(src)];
    for (int j = 0; j < cols_; ++j) tr[static_cast<std::size_t>(j)] -= factor * sr[static_cast<std::size_t>(j)];
  }

  void pivot(int row, int col) {
    auto& pr = t_[static_cast<std::size_t>(row)];
    const double pv = pr[static_cast<std::size_t>(col)];
    for (int j = 0; j < cols_; ++j) pr[static_cast<std::size_t>(j)] /= pv;
    for (int i = 0; i <= m_; ++i) {
      if (i == row) continue;
      const double f = t_[static_cast<std::size_t>(i)][static_cast<std::size_t>(col)];
      if (std::abs(f) > 0.0) subtract_row(i, row, f);
    }
    basis_[static_cast<std::size_t>(row)] = col;
  }

  /// In phase 2, artificial columns must not re-enter the basis.
  bool column_blocked(int col) const { return phase2_block_artificials_ && is_artificial(col); }

  LpStatus pivot_loop(LpSolution& out) {
    const auto& obj = t_[static_cast<std::size_t>(m_)];
    for (;;) {
      if (out.iterations >= opt_.max_iterations) return LpStatus::kIterationLimit;
      // Bland's rule: entering column = smallest index with negative cost.
      int enter = -1;
      for (int j = 0; j < cols_ - 1; ++j) {
        if (column_blocked(j)) continue;
        if (obj[static_cast<std::size_t>(j)] < -opt_.epsilon) {
          enter = j;
          break;
        }
      }
      if (enter == -1) return LpStatus::kOptimal;

      // Ratio test; ties broken by smallest basis index (Bland).
      int leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int i = 0; i < m_; ++i) {
        const double a = t_[static_cast<std::size_t>(i)][static_cast<std::size_t>(enter)];
        if (a > opt_.epsilon) {
          const double ratio = t_[static_cast<std::size_t>(i)][static_cast<std::size_t>(cols_ - 1)] / a;
          if (ratio < best_ratio - opt_.epsilon ||
              (ratio < best_ratio + opt_.epsilon &&
               (leave == -1 || basis_[static_cast<std::size_t>(i)] < basis_[static_cast<std::size_t>(leave)]))) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == -1) return LpStatus::kUnbounded;
      pivot(leave, enter);
      ++out.iterations;
    }
  }

  /// After phase 1, swap any artificial still in the basis for a structural
  /// or slack column; rows where no such column exists are redundant (all
  /// zero) and are left with the artificial basic at value zero, but the
  /// artificial columns are blocked from re-entering in phase 2.
  void drive_out_artificials() {
    for (int i = 0; i < m_; ++i) {
      if (!is_artificial(basis_[static_cast<std::size_t>(i)])) continue;
      int col = -1;
      for (int j = 0; j < art_begin(); ++j) {
        if (std::abs(t_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) > opt_.epsilon) {
          col = j;
          break;
        }
      }
      if (col >= 0) pivot(i, col);
    }
    phase2_block_artificials_ = true;
  }

  SimplexOptions opt_;
  int m_ = 0;         ///< Constraint rows.
  int n_struct_ = 0;  ///< Structural (user) variables.
  int n_slack_ = 0;
  int n_art_ = 0;
  int cols_ = 0;  ///< Total columns incl. rhs.
  double obj_shift_ = 0.0;
  std::vector<std::vector<double>> t_;  ///< m_+1 rows (last = objective).
  std::vector<int> basis_;
  bool phase2_block_artificials_ = false;
};

}  // namespace

LpSolution solve_lp_v1(const LpProblem& problem, const SimplexOptions& options) {
  LpSolution out;
  Tableau tab(problem, options);
  out.status = tab.solve(problem, out);
  return out;
}

}  // namespace e2efa::oracle
