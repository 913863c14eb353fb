// Pre-engine balanced refinement and the dense tableau it ran on, kept as a
// test oracle (see refine_v1.cpp and simplex_v1.cpp).
#pragma once

#include "alloc/refine.hpp"

namespace e2efa::oracle {

/// The old dense two-phase tableau: same contract as e2efa::solve_lp, but
/// fills neither duals nor reduced costs.
LpSolution solve_lp_v1(const LpProblem& problem, const SimplexOptions& options = {});

/// Same contract as e2efa::solve_share_lp; `lp_solves` is not filled.
ShareLpResult solve_share_lp(const ShareLp& lp);

}  // namespace e2efa::oracle
