#include "opt/milp.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>

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

    // Every branch's bound change; a node's bounds are the base LP's
    // with its chain of changes applied root first.
    std::vector<BoundChange> changes;
    std::vector<int> chain;
    const int n = base.numVars();
    std::vector<double> baseLower(n), baseUpper(n);
    for (int j = 0; j < n; ++j) {
        baseLower[j] = base.lowerBound(j);
        baseUpper[j] = base.upperBound(j);
    }
    std::vector<double> lower, upper;
    DualSimplex warm(base);

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

        // Apply this node's branch bounds.
        chain.clear();
        for (int c = node.change; c >= 0; c = changes[c].parent)
            chain.push_back(c);
        lower = baseLower;
        upper = baseUpper;
        bool consistent = true;
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            const BoundChange &bc = changes[*it];
            lower[bc.var] = std::max(bc.lo, lower[bc.var]);
            upper[bc.var] = std::min(bc.hi, upper[bc.var]);
            if (lower[bc.var] > upper[bc.var]) {
                consistent = false;
                break;
            }
        }
        if (!consistent)
            continue;

        auto basis = std::make_shared<Basis>();
        LpResult relaxed;
        if (node.start) {
            *basis = *node.start;
            relaxed = warm.solve(lower, upper, *basis);
            result.lpIterations += relaxed.iterations;
        }
        if (!node.start || relaxed.status == LpStatus::IterLimit) {
            ++result.coldSolves;
            LinearProgram lp = base;
            for (int j = 0; j < n; ++j)
                lp.setBounds(j, lower[j], upper[j]);
            relaxed = solveLp(lp, *basis);
            result.lpIterations += relaxed.iterations;
        }
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

        // Children keep the variable's own bound on the side they do
        // not tighten; the max()/min() above keep the branch's.
        std::shared_ptr<const Basis> start;
        if (!basis->empty())
            start = std::move(basis);
        double v = relaxed.x[branchVar];
        changes.push_back(BoundChange{branchVar,
                                      base.lowerBound(branchVar),
                                      std::floor(v), node.change});
        open.push(Node{relaxed.objective,
                       static_cast<int>(changes.size()) - 1, start});
        changes.push_back(BoundChange{branchVar, std::ceil(v),
                                      base.upperBound(branchVar),
                                      node.change});
        open.push(Node{relaxed.objective,
                       static_cast<int>(changes.size()) - 1,
                       std::move(start)});
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
