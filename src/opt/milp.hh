/**
 * @file
 * Mixed-integer linear programming via LP-based branch and bound —
 * the solver behind AQUA-PLACER (the paper used Gurobi, §4).
 *
 * Best-bound search on the simplex relaxation, branching on the most
 * fractional integer variable. The root relaxation is a cold
 * solveLp(); every other node re-solves from its parent's optimal
 * basis with the bounded dual simplex (opt::DualSimplex), since a
 * branch only tightens one bound. The search stops at a node budget
 * (MilpOptions::maxNodes) or a wall-clock budget
 * (MilpOptions::maxSeconds) and reports what it has.
 */

#ifndef AQUA_OPT_MILP_HH
#define AQUA_OPT_MILP_HH

#include <cstdint>
#include <memory>
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
    /**
     * Simplex pivots over all node LPs: the root's primal pivots,
     * then the dual pivots of each warm re-solve (loading a parent's
     * basis is not counted) and the primal pivots of any node that
     * fell back to a cold solve.
     */
    std::uint64_t lpIterations = 0;
    /**
     * Node LPs solved cold: the root, plus any node whose parent
     * basis could not be loaded or whose warm re-solve ran out of
     * pivots.
     */
    std::uint64_t coldSolves = 0;
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
    /** One branch's bound override, linked to its parent's. */
    struct BoundChange
    {
        int var;
        double lo;
        double hi;
        /** The parent node's change, or -1 for a child of the root. */
        int parent;
    };

    struct Node
    {
        double bound = -inf;
        /** Index of this node's BoundChange; -1 at the root. */
        int change = -1;
        /** The parent's optimal basis, shared by both children. */
        std::shared_ptr<const Basis> start;
    };

    LinearProgram base;
    std::vector<int> integerVars;
    MilpOptions opt;
    double incumbentObjective = inf;
    bool haveSeedBound = false;
};

} // namespace aqua::opt

#endif // AQUA_OPT_MILP_HH
