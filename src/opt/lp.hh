/**
 * @file
 * Dense linear-programming solver (two-phase primal simplex).
 *
 * The substrate beneath AQUA-PLACER: the paper encodes Algorithm 1 in
 * Gurobi; we solve the same MILP with our own simplex + branch and
 * bound (opt/milp.hh). Problems are small (placement LPs have a few
 * hundred variables), so a dense tableau with Bland's anti-cycling
 * rule is simple, exact enough, and fast.
 */

#ifndef AQUA_OPT_LP_HH
#define AQUA_OPT_LP_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace aqua::opt {

/** Positive infinity for bounds. */
constexpr double inf = std::numeric_limits<double>::infinity();

/** Constraint relation. */
enum class Relation { LessEq, Equal, GreaterEq };

/**
 * A linear program in minimization form:
 *   minimize c^T x  subject to  rows,  lower <= x <= upper.
 *
 * Lower bounds must be finite (they are shifted out before solving);
 * upper bounds may be +inf.
 */
class LinearProgram
{
  public:
    /** One constraint row: sparse coefficients, relation, rhs. */
    struct Row
    {
        std::vector<std::pair<int, double>> coeffs;
        Relation rel = Relation::LessEq;
        double rhs = 0.0;
    };

    /**
     * Add a variable.
     *
     * @param lo Finite lower bound.
     * @param hi Upper bound (may be opt::inf).
     * @param cost Objective coefficient.
     * @return Variable index.
     */
    int addVar(double lo = 0.0, double hi = inf, double cost = 0.0);

    /** Add a constraint. */
    void addRow(std::vector<std::pair<int, double>> coeffs,
                Relation rel, double rhs);

    /** Overwrite a variable's objective coefficient. */
    void setCost(int var, double cost);

    /** Tighten a variable's bounds (used by branch and bound). */
    void setBounds(int var, double lo, double hi);

    int numVars() const { return static_cast<int>(lower.size()); }
    int numRows() const { return static_cast<int>(rows.size()); }

    const std::vector<Row> &constraints() const { return rows; }
    double lowerBound(int var) const { return lower.at(var); }
    double upperBound(int var) const { return upper.at(var); }
    double cost(int var) const { return costs.at(var); }

  private:
    std::vector<Row> rows;
    std::vector<double> lower;
    std::vector<double> upper;
    std::vector<double> costs;
};

/** LP solve outcome. */
enum class LpStatus { Optimal, Infeasible, Unbounded, IterLimit };

/** LP solution. */
struct LpResult
{
    LpStatus status = LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> x;
    std::uint64_t iterations = 0;

    bool optimal() const { return status == LpStatus::Optimal; }
};

/** Solve with two-phase primal simplex. */
LpResult solveLp(const LinearProgram &lp);

} // namespace aqua::opt

#endif // AQUA_OPT_LP_HH
