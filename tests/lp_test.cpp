#include <gtest/gtest.h>

#include <limits>

#include "alloc/allocation.hpp"
#include "contention/cliques.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "net/scenarios.hpp"
#include "util/assert.hpp"

namespace e2efa {
namespace {

constexpr double kTol = 1e-7;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Checks that `s` certifies itself optimal for `p` through its duals:
/// primal and dual feasibility, d_j = c_j - Σ_k y_k a_kj, complementary
/// slackness and a zero duality gap (c·x = Σ_k y_k b_k + Σ_j d_j lb_j).
void expect_certified(const LpProblem& p, const LpSolution& s) {
  constexpr double kEps = 1e-9;
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  const int n = p.num_vars();
  const auto& rows = p.constraints();
  ASSERT_EQ(s.duals.size(), rows.size());
  ASSERT_EQ(s.reduced_costs.size(), static_cast<std::size_t>(n));
  double dual_objective = 0.0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    double activity = 0.0;
    for (int j = 0; j < n; ++j) activity += rows[k].coeffs[static_cast<std::size_t>(j)] * s.x[static_cast<std::size_t>(j)];
    const double y = s.duals[k];
    if (rows[k].rel != Relation::kGreaterEq) {
      EXPECT_LE(activity, rows[k].rhs + kEps) << "row " << k;
    }
    if (rows[k].rel != Relation::kLessEq) {
      EXPECT_GE(activity, rows[k].rhs - kEps) << "row " << k;
    }
    if (rows[k].rel == Relation::kLessEq) {
      EXPECT_GE(y, -kEps) << "row " << k;
    }
    if (rows[k].rel == Relation::kGreaterEq) {
      EXPECT_LE(y, kEps) << "row " << k;
    }
    EXPECT_NEAR(y * (activity - rows[k].rhs), 0.0, kEps) << "row " << k;
    dual_objective += y * rows[k].rhs;
  }
  for (int j = 0; j < n; ++j) {
    double d = p.objective()[static_cast<std::size_t>(j)];
    for (std::size_t k = 0; k < rows.size(); ++k) d -= s.duals[k] * rows[k].coeffs[static_cast<std::size_t>(j)];
    const double dj = s.reduced_costs[static_cast<std::size_t>(j)];
    const double lb = p.lower_bounds()[static_cast<std::size_t>(j)];
    EXPECT_NEAR(dj, d, kEps) << "var " << j;
    EXPECT_LE(dj, kEps) << "var " << j;
    EXPECT_GE(s.x[static_cast<std::size_t>(j)], lb - kEps) << "var " << j;
    EXPECT_NEAR(dj * (s.x[static_cast<std::size_t>(j)] - lb), 0.0, kEps) << "var " << j;
    dual_objective += dj * lb;
  }
  EXPECT_NEAR(s.objective, dual_objective, kEps);
}

TEST(Simplex, SimpleTwoVar) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12? No:
  // vertices: (4,0)->12, (3,1)->11, (0,2)->4. Optimum (4,0) = 12.
  LpProblem p(2);
  p.set_objective({3, 2});
  p.add_constraint({1, 1}, Relation::kLessEq, 4);
  p.add_constraint({1, 3}, Relation::kLessEq, 6);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, kTol);
  EXPECT_NEAR(s.x[0], 4.0, kTol);
  EXPECT_NEAR(s.x[1], 0.0, kTol);
}

TEST(Simplex, InteriorOptimumVertex) {
  // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> (4/3, 4/3), obj 8/3.
  LpProblem p(2);
  p.set_objective({1, 1});
  p.add_constraint({2, 1}, Relation::kLessEq, 4);
  p.add_constraint({1, 2}, Relation::kLessEq, 4);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0 / 3.0, kTol);
  EXPECT_NEAR(s.x[0], 4.0 / 3.0, kTol);
  EXPECT_NEAR(s.x[1], 4.0 / 3.0, kTol);
}

TEST(Simplex, GreaterEqualConstraints) {
  // max -x s.t. x >= 3  -> x = 3.
  LpProblem p(1);
  p.set_objective({-1});
  p.add_constraint({1}, Relation::kGreaterEq, 3);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, kTol);
  EXPECT_NEAR(s.objective, -3.0, kTol);
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y s.t. x + y == 5, x <= 3 -> x=0? max: y=5, x=0 -> 10.
  LpProblem p(2);
  p.set_objective({1, 2});
  p.add_constraint({1, 1}, Relation::kEqual, 5);
  p.add_constraint({1, 0}, Relation::kLessEq, 3);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, kTol);
  EXPECT_NEAR(s.x[1], 5.0, kTol);
}

TEST(Simplex, Infeasible) {
  LpProblem p(1);
  p.set_objective({1});
  p.add_constraint({1}, Relation::kLessEq, 1);
  p.add_constraint({1}, Relation::kGreaterEq, 2);
  EXPECT_EQ(solve_lp(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, InfeasibleEquality) {
  LpProblem p(2);
  p.add_constraint({1, 1}, Relation::kEqual, 2);
  p.add_constraint({1, 1}, Relation::kEqual, 3);
  EXPECT_EQ(solve_lp(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, Unbounded) {
  LpProblem p(1);
  p.set_objective({1});
  p.add_constraint({-1}, Relation::kLessEq, 1);  // -x <= 1, x unbounded above
  EXPECT_EQ(solve_lp(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, LowerBoundsShift) {
  // max -x - y s.t. x + y >= 4, x >= 1.5, y >= 1 -> touches x+y = 4.
  LpProblem p(2);
  p.set_objective({-1, -1});
  p.set_lower_bound(0, 1.5);
  p.set_lower_bound(1, 1.0);
  p.add_constraint({1, 1}, Relation::kGreaterEq, 4);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0] + s.x[1], 4.0, kTol);
  EXPECT_GE(s.x[0], 1.5 - kTol);
  EXPECT_GE(s.x[1], 1.0 - kTol);
}

TEST(Simplex, LowerBoundsMakeInfeasible) {
  LpProblem p(2);
  p.set_lower_bound(0, 2.0);
  p.set_lower_bound(1, 2.0);
  p.add_constraint({1, 1}, Relation::kLessEq, 3.0);
  EXPECT_EQ(solve_lp(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, NegativeRhsNormalization) {
  // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
  LpProblem p(1);
  p.set_objective({1});
  p.add_constraint({-1}, Relation::kLessEq, -2);
  p.add_constraint({1}, Relation::kLessEq, 5);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, kTol);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate cycling candidate (Beale); Bland's rule must finish.
  LpProblem p(4);
  p.set_objective({0.75, -150, 0.02, -6});
  p.add_constraint({0.25, -60, -0.04, 9}, Relation::kLessEq, 0);
  p.add_constraint({0.5, -90, -0.02, 3}, Relation::kLessEq, 0);
  p.add_constraint({0, 0, 1, 0}, Relation::kLessEq, 1);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.05, 1e-6);
}

TEST(Simplex, PaperFig1Lp) {
  // maximize r1 + r2 s.t. 2r1 <= 1, r1 + 2r2 <= 1, r1 >= 1/4, r2 >= 1/4
  // -> (1/2, 1/4), objective 3/4 (Sec. III-B worked example).
  LpProblem p(2);
  p.set_objective({1, 1});
  p.set_lower_bound(0, 0.25);
  p.set_lower_bound(1, 0.25);
  p.add_constraint({2, 0}, Relation::kLessEq, 1);
  p.add_constraint({1, 2}, Relation::kLessEq, 1);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 0.5, kTol);
  EXPECT_NEAR(s.x[1], 0.25, kTol);
  EXPECT_NEAR(s.objective, 0.75, kTol);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicate equality rows leave a redundant artificial; solver must cope.
  LpProblem p(2);
  p.set_objective({1, 0});
  p.add_constraint({1, 1}, Relation::kEqual, 2);
  p.add_constraint({1, 1}, Relation::kEqual, 2);
  p.add_constraint({1, 0}, Relation::kLessEq, 1.5);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.5, kTol);
  EXPECT_NEAR(s.x[1], 0.5, kTol);
}

TEST(Simplex, IterationLimitReported) {
  LpProblem p(2);
  p.set_objective({1, 1});
  p.add_constraint({1, 1}, Relation::kLessEq, 1);
  SimplexOptions opt;
  opt.max_iterations = 0;
  EXPECT_EQ(solve_lp(p, opt).status, LpStatus::kIterationLimit);
}

TEST(Simplex, ObjectiveWithLowerBoundShiftAccounted) {
  // max 2x s.t. x <= 5, x >= 3 -> obj 10 (not 4): shift must be undone.
  LpProblem p(1);
  p.set_objective({2});
  p.set_lower_bound(0, 3);
  p.add_constraint({1}, Relation::kLessEq, 5);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, kTol);
  EXPECT_NEAR(s.x[0], 5.0, kTol);
}

TEST(SimplexDuals, Fig1PassOneIsCertified) {
  // Sec. III-B: maximize r1 + r2 s.t. 2r1 <= 1, r1 + 2r2 <= 1, r >= 1/4.
  LpProblem p(2);
  p.set_objective({1, 1});
  p.set_lower_bound(0, 0.25);
  p.set_lower_bound(1, 0.25);
  p.add_constraint({2, 0}, Relation::kLessEq, 1);
  p.add_constraint({1, 2}, Relation::kLessEq, 1);
  const auto s = solve_lp(p);
  expect_certified(p, s);
  EXPECT_NEAR(s.objective, 0.75, 1e-12);
}

TEST(SimplexDuals, Fig6PassOneIsCertified) {
  // The centralized Fig. 6 LP: clique rows of scenario 2, basic-share floors.
  const Scenario sc = scenario2();
  const FlowSet flows(sc.topo, sc.flow_specs);
  const ContentionGraph g(sc.topo, flows);
  const auto basic = basic_shares(g);
  LpProblem p(flows.flow_count());
  for (FlowId f = 0; f < flows.flow_count(); ++f) {
    p.set_objective(f, 1.0);
    p.set_lower_bound(f, basic[static_cast<std::size_t>(f)]);
  }
  for (const auto& row : clique_constraint_rows(g))
    p.add_constraint({row.begin(), row.end()}, Relation::kLessEq, 1.0);
  const auto s = solve_lp(p);
  expect_certified(p, s);
  // Σ of (B/3, B/3, 2B/3, B/8, 3B/4); the balanced refinement picks that
  // point among the optima.
  EXPECT_NEAR(s.objective, 1.0 / 3 + 1.0 / 3 + 2.0 / 3 + 1.0 / 8 + 3.0 / 4, 1e-12);
}

TEST(SimplexDuals, MixedRowsAreCertified) {
  // >=, == and <= rows with shifted lower bounds exercise every dual sign.
  LpProblem p(3);
  p.set_objective({-1, 2, 1});
  p.set_lower_bound(0, 0.5);
  p.add_constraint({1, 1, 0}, Relation::kGreaterEq, 2);
  p.add_constraint({0, 1, 1}, Relation::kEqual, 3);
  p.add_constraint({1, 2, 1}, Relation::kLessEq, 6);
  expect_certified(p, solve_lp(p));
}

TEST(BoundedSimplex, WarmStartsMatchColdSolves) {
  // Re-optimizing after objective and bound changes lands where a fresh
  // solve of the changed problem does.
  const std::vector<std::vector<double>> rows = {{1, 1, 1}, {2, 1, 0}, {0, 1, 3}};
  auto fresh = [&](const std::vector<double>& c, double x1_lo, double x1_hi) {
    BoundedSimplex s(rows, 3);
    for (int k = 0; k < 3; ++k) s.set_row_bounds(k, -kInf, 2.0);
    s.set_col_bounds(1, x1_lo, x1_hi);
    s.set_objective(c);
    EXPECT_EQ(s.solve(), LpStatus::kOptimal);
    return s.objective();
  };
  BoundedSimplex warm(rows, 3);
  for (int k = 0; k < 3; ++k) warm.set_row_bounds(k, -kInf, 2.0);
  warm.set_objective({1, 1, 1});
  ASSERT_EQ(warm.solve(), LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective(), fresh({1, 1, 1}, 0.0, kInf), 1e-12);
  warm.set_objective({3, -1, 1});
  ASSERT_EQ(warm.solve(), LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective(), fresh({3, -1, 1}, 0.0, kInf), 1e-12);
  warm.set_col_bounds(1, 0.5, 0.75);  // moves the basis off feasibility
  ASSERT_EQ(warm.solve(), LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective(), fresh({3, -1, 1}, 0.5, 0.75), 1e-12);
  EXPECT_GE(warm.value(1), 0.5 - 1e-12);
  EXPECT_LE(warm.value(1), 0.75 + 1e-12);
}

TEST(BoundedSimplex, UpperBoundsReplaceRows) {
  // max x + y with x, y in [0, 1] and x + y <= 1.5: no row for the caps.
  BoundedSimplex s({{1, 1}}, 2);
  s.set_row_bounds(0, -kInf, 1.5);
  s.set_col_bounds(0, 0.0, 1.0);
  s.set_col_bounds(1, 0.0, 1.0);
  s.set_objective({2, 1});
  ASSERT_EQ(s.solve(), LpStatus::kOptimal);
  EXPECT_NEAR(s.value(0), 1.0, 1e-12);
  EXPECT_NEAR(s.value(1), 0.5, 1e-12);
  EXPECT_NEAR(s.row_dual(0), 1.0, 1e-12);
  EXPECT_NEAR(s.reduced_cost(0), 1.0, 1e-12);  // at its upper bound
}

TEST(BoundedSimplex, RestrictToOptimalFaceKeepsOnlyOptima) {
  // max x + y s.t. x + y <= 1: the face is the whole segment, so a second
  // objective may still move along it, but never off it.
  BoundedSimplex s({{1, 1}}, 2);
  s.set_row_bounds(0, -kInf, 1.0);
  s.set_objective({1, 1});
  ASSERT_EQ(s.solve(), LpStatus::kOptimal);
  s.restrict_to_optimal_face();
  s.set_objective({-1, 0});
  ASSERT_EQ(s.solve(), LpStatus::kOptimal);
  EXPECT_NEAR(s.value(0), 0.0, 1e-12);
  EXPECT_NEAR(s.value(1), 1.0, 1e-12);
  s.set_objective({0, -1});
  ASSERT_EQ(s.solve(), LpStatus::kOptimal);
  EXPECT_NEAR(s.value(0) + s.value(1), 1.0, 1e-12);
  EXPECT_NEAR(s.value(1), 0.0, 1e-12);
}

TEST(LpProblem, ValidatesInput) {
  EXPECT_THROW(LpProblem(0), ContractViolation);
  LpProblem p(2);
  EXPECT_THROW(p.set_objective(2, 1.0), ContractViolation);
  EXPECT_THROW(p.add_constraint({1.0}, Relation::kLessEq, 0), ContractViolation);
  EXPECT_THROW(p.set_lower_bound(-1, 0.0), ContractViolation);
}

TEST(LpProblem, AddWeightedLe) {
  LpProblem p(3);
  p.add_weighted_le({{0, 2.0}, {2, 1.0}, {0, 1.0}}, 5.0, "row");
  ASSERT_EQ(p.constraints().size(), 1u);
  EXPECT_EQ(p.constraints()[0].coeffs, (std::vector<double>{3, 0, 1}));
  EXPECT_EQ(p.constraints()[0].name, "row");
}

TEST(Simplex, LargerRandomishProblemSolves) {
  // 10 variables, chain-style overlapping rows (allocation-LP shaped).
  const int n = 10;
  LpProblem p(n);
  for (int i = 0; i < n; ++i) {
    p.set_objective(i, 1.0);
    p.set_lower_bound(i, 0.02);
  }
  for (int i = 0; i + 2 < n; ++i) {
    std::vector<double> row(n, 0.0);
    row[i] = row[i + 1] = row[i + 2] = 1.0;
    p.add_constraint(std::move(row), Relation::kLessEq, 1.0);
  }
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  // Feasibility of the returned point.
  for (int i = 0; i + 2 < n; ++i)
    EXPECT_LE(s.x[i] + s.x[i + 1] + s.x[i + 2], 1.0 + kTol);
  for (int i = 0; i < n; ++i) EXPECT_GE(s.x[i], 0.02 - kTol);
  // Optimal total for triple-window rows is ceil(n/3) windows -> 4·1? The
  // exact optimum: place mass on vars 0,3,6,9 -> 4 minus epsilon for mins.
  EXPECT_NEAR(s.objective, 4.0 - 0.0, 0.2);
}

}  // namespace
}  // namespace e2efa
