// Shared LP construction + balanced (lexicographic max-min) refinement.
//
// The paper's allocation LPs routinely have many optima (e.g. Fig. 6:
// (1/3,1/3,2/3,1/8,3/4) and (1/3,1/8,7/8,1/8,3/4) both maximize total
// effective throughput). The paper always reports the *balanced* optimum, so
// after maximizing the total we refine lexicographically: repeatedly
// maximize the minimum weighted share among still-free variables, fixing the
// variables that cannot rise further. This reproduces every worked example
// in the paper and gives deterministic output.
//
// All passes run on one BoundedSimplex, each warm-started from the basis of
// the one before; DESIGN.md "Phase-1 engine" walks through them.
#pragma once

#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace e2efa {

/// A phase-1 allocation LP in normalized form:
///   maximize Σ x_i  s.t.  row_k · x <= 1 (clique capacity, B == 1),
///                          lb_i <= x_i <= min(1, ub_i) (basic shares; full
///                          channel; rate caps).
struct ShareLp {
  /// Capacity rows: coefficient vector per deduplicated maximal clique.
  /// Coefficients are non-negative (subflow counts).
  std::vector<std::vector<double>> capacity_rows;
  /// Per-variable lower bound (basic shares). Same length as weights.
  std::vector<double> lower_bounds;
  /// Per-variable weight (for max-min normalization x_i / w_i).
  std::vector<double> weights;
  /// Per-variable rate cap (the paper's footnote-3 demand ρ_i, >= the
  /// lower bound), or empty for greedy sources.
  std::vector<double> upper_bounds;
  /// False skips the total pass: the result is then the plain weighted
  /// max-min point instead of the balanced total-maximizing one.
  bool maximize_total = true;
};

struct ShareLpResult {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> shares;   ///< Valid when status == kOptimal.
  double total = 0.0;           ///< Σ shares.
  /// Multiplicative scale applied to the lower bounds to restore
  /// feasibility (1.0 normally; < 1.0 when the basic shares alone exceed
  /// some clique's capacity and were proportionally relaxed).
  double min_relaxation = 1.0;
  /// LP solves spent: the total pass, one per max-min level, and one per
  /// dual-degenerate probe.
  int lp_solves = 0;
};

/// Maximizes total share (unless `maximize_total` is false), then applies
/// the balanced refinement. If the lower bounds are by themselves
/// infeasible, they are scaled down by the largest factor that fits,
/// min(1, 1/max_k row_k·lb, 1/max_i lb_i), and the factor is reported in
/// `min_relaxation`.
ShareLpResult solve_share_lp(const ShareLp& lp);

}  // namespace e2efa
