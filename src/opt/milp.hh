/**
 * @file
 * Mixed-integer linear programming via LP-based branch and bound —
 * the solver behind AQUA-PLACER (the paper used Gurobi, §4).
 *
 * Best-bound search on the simplex relaxation, branching on the most
 * fractional integer variable. Node and time limits make it usable
 * inside the Fig. 14 convergence-time benchmark.
 */

#ifndef AQUA_OPT_MILP_HH
#define AQUA_OPT_MILP_HH

#include <cstdint>
#include <vector>

#include "opt/lp.hh"

namespace aqua::opt {

/** MILP solve outcome. */
enum class MilpStatus
{
    /** Proven optimal integer solution. */
    Optimal,
    /** A feasible incumbent exists but limits cut the proof short. */
    Feasible,
    Infeasible,
    /** Limits hit with no incumbent found. */
    Unknown,
};

/** MILP solution and search statistics. */
struct MilpResult
{
    MilpStatus status = MilpStatus::Unknown;
    double objective = 0.0;
    std::vector<double> x;
    std::uint64_t nodesExplored = 0;
    std::uint64_t lpIterations = 0;
    /** Whether node/iteration limits cut the search short. */
    bool limitHit = false;

    bool hasSolution() const
    {
        return status == MilpStatus::Optimal ||
               status == MilpStatus::Feasible;
    }
};

/** Solver tunables. */
struct MilpOptions
{
    std::uint64_t maxNodes = 200000;
    /** Wall-clock budget in seconds; 0 = unlimited. */
    double maxSeconds = 0.0;
};

/**
 * Branch-and-bound MILP solver.
 */
class MilpSolver
{
  public:
    /**
     * @param lp The problem (minimization).
     * @param integers Indices of variables that must be integral.
     */
    MilpSolver(LinearProgram lp, std::vector<int> integers,
               MilpOptions options = {});

    /**
     * Seed the search with a known feasible objective (e.g. from a
     * greedy heuristic) so pruning bites immediately.
     */
    void setIncumbentBound(double objective);

    /** Run the search. */
    MilpResult solve();

  private:
    struct Node
    {
        /** (var, lo, hi) bound overrides along this branch. */
        std::vector<std::tuple<int, double, double>> bounds;
        double bound = -inf;
    };

    LinearProgram base;
    std::vector<int> integerVars;
    MilpOptions opt;
    double incumbentObjective = inf;
    bool haveSeedBound = false;
};

} // namespace aqua::opt

#endif // AQUA_OPT_MILP_HH
