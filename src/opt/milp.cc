#include "opt/milp.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <tuple>

#include "sim/logging.hh"

namespace aqua::opt {

/** A relaxed value within this of an integer counts as integral. */
constexpr double integerTolerance = 1e-6;
/** Prune children whose bound is within this of the incumbent. */
constexpr double objectiveGap = 1e-9;

MilpSolver::MilpSolver(LinearProgram lp, std::vector<int> integers,
                       MilpOptions options)
    : base(std::move(lp)), integerVars(std::move(integers)),
      opt(options)
{
}

void
MilpSolver::setIncumbentBound(double objective)
{
    // Nudge the bound up a hair so an equal-quality integer solution
    // is still discovered (we want the solution, not just its value).
    incumbentObjective = objective + 1e-7;
    haveSeedBound = true;
}

MilpResult
MilpSolver::solve()
{
    MilpResult result;
    std::vector<double> incumbent;
    double incObj = incumbentObjective;
    bool haveIncumbent = false;

    // Best-bound search: nodes ordered by their parent's LP bound.
    auto cmp = [](const Node &a, const Node &b) {
        return a.bound > b.bound;
    };
    std::priority_queue<Node, std::vector<Node>, decltype(cmp)> open(
        cmp);
    open.push(Node{});

    bool hitLimit = false;
    auto deadline = std::chrono::steady_clock::now();
    if (opt.maxSeconds > 0.0) {
        deadline += std::chrono::microseconds(
            static_cast<std::int64_t>(opt.maxSeconds * 1e6));
    }
    while (!open.empty()) {
        if (result.nodesExplored >= opt.maxNodes) {
            hitLimit = true;
            break;
        }
        if (opt.maxSeconds > 0.0 &&
            std::chrono::steady_clock::now() >= deadline) {
            hitLimit = true;
            break;
        }
        Node node = open.top();
        open.pop();
        if (node.bound >= incObj - objectiveGap)
            continue; // pruned by a newer incumbent / seed bound
        ++result.nodesExplored;

        // Apply this node's branch bounds on a copy of the base LP.
        LinearProgram lp = base;
        bool consistent = true;
        for (const auto &[var, lo, hi] : node.bounds) {
            double newLo = std::max(lo, lp.lowerBound(var));
            double newHi = std::min(hi, lp.upperBound(var));
            if (newLo > newHi) {
                consistent = false;
                break;
            }
            lp.setBounds(var, newLo, newHi);
        }
        if (!consistent)
            continue;

        LpResult relaxed = solveLp(lp);
        result.lpIterations += relaxed.iterations;
        if (relaxed.status == LpStatus::Infeasible)
            continue;
        if (relaxed.status == LpStatus::Unbounded) {
            // Integer restrictions cannot save an unbounded
            // relaxation in our (bounded-variable) encodings.
            aqua::sim::panic("MilpSolver: unbounded relaxation");
        }
        if (relaxed.status == LpStatus::IterLimit) {
            hitLimit = true;
            continue;
        }
        if (relaxed.objective >= incObj - objectiveGap)
            continue;

        // Find the most fractional integer variable.
        int branchVar = -1;
        double worstFrac = integerTolerance;
        for (int var : integerVars) {
            double v = relaxed.x[var];
            double frac = std::abs(v - std::round(v));
            if (frac > worstFrac) {
                worstFrac = frac;
                branchVar = var;
            }
        }
        if (branchVar < 0) {
            // Integral: new incumbent.
            if (!haveIncumbent || relaxed.objective < incObj) {
                incObj = relaxed.objective;
                incumbent = relaxed.x;
                haveIncumbent = true;
            }
            continue;
        }

        double v = relaxed.x[branchVar];
        Node down = node;
        down.bound = relaxed.objective;
        down.bounds.emplace_back(branchVar, -0.0, std::floor(v));
        // Preserve the variable's own lower bound via the max() above;
        // use a very low explicit lo so only the hi tightens.
        std::get<1>(down.bounds.back()) = base.lowerBound(branchVar);
        open.push(down);

        Node up = node;
        up.bound = relaxed.objective;
        up.bounds.emplace_back(branchVar, std::ceil(v),
                               base.upperBound(branchVar));
        open.push(up);
    }

    result.limitHit = hitLimit;
    if (haveIncumbent) {
        result.status = hitLimit ? MilpStatus::Feasible
                                 : MilpStatus::Optimal;
        result.objective = incObj;
        result.x = std::move(incumbent);
    } else if (hitLimit || haveSeedBound) {
        // With a seed bound and no incumbent of our own, the seed
        // solution is (within tolerance) optimal but lives with the
        // caller; report Unknown so the caller keeps its own.
        result.status = MilpStatus::Unknown;
    } else {
        result.status = MilpStatus::Infeasible;
    }
    return result;
}

} // namespace aqua::opt
