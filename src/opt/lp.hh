/**
 * @file
 * Dense linear-programming solvers: a two-phase primal simplex for
 * cold solves and a bounded-variable dual simplex for warm re-solves.
 *
 * The substrate beneath AQUA-PLACER: the paper encodes Algorithm 1 in
 * Gurobi; we solve the same MILP with our own simplex + branch and
 * bound (opt/milp.hh). Problems are small (placement LPs have a few
 * hundred variables), so dense tableaus are simple, exact enough, and
 * fast. solveLp() starts from nothing, with Bland's anti-cycling rule
 * and every finite upper bound as an extra row. DualSimplex re-solves
 * an LP whose bounds were tightened, starting from an optimal basis
 * of the looser LP, and keeps upper bounds as bounds.
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

/**
 * A simplex basis of the bounded form of a LinearProgram. Its columns
 * are the LP's variables followed by one logical per row, the row's
 * activity a_i.x: a LessEq row's logical lies in (-inf, rhs], a
 * GreaterEq row's in [rhs, inf) and an Equal row's is fixed at rhs.
 * A nonbasic column sits at its lower bound unless flagged at upper.
 */
struct Basis
{
    /** The basic column of each row. */
    std::vector<int> basic;
    /** Per column: a nonbasic column sits at its upper bound. */
    std::vector<bool> atUpper;

    /** No basis is known (every LP has a column). */
    bool empty() const { return atUpper.empty(); }
    void clear()
    {
        basic.clear();
        atUpper.clear();
    }
};

/** Solve with two-phase primal simplex. */
LpResult solveLp(const LinearProgram &lp);

/**
 * solveLp() that also returns the optimal basis in bounded form, the
 * start of DualSimplex re-solves. The result is the same as
 * solveLp(lp)'s. @p basis comes back empty if the LP is not optimal
 * or the final basis has no bounded-form twin (a degenerate row kept
 * both its surplus and its artificial basic).
 */
LpResult solveLp(const LinearProgram &lp, Basis &basis);

/**
 * Bounded-variable dual simplex on a dense tableau. It re-solves one
 * LP's rows and costs under tightened variable bounds, starting from
 * a basis that is dual feasible for them, as an optimal basis of the
 * same LP under looser bounds is: tightening a bound never changes a
 * reduced cost, so a few dual pivots restore primal feasibility.
 */
class DualSimplex
{
  public:
    explicit DualSimplex(const LinearProgram &lp);

    /**
     * Re-solve with structural bounds @p lower and @p upper from
     * @p basis, which becomes the optimal basis on LpStatus::Optimal.
     * The LP cannot come back Unbounded: a dual feasible basis bounds
     * it. IterLimit means the start was unusable (wrong size,
     * singular, a nonbasic column at an infinite bound, or not dual
     * feasible) or the pivot budget ran out; solve the LP with
     * solveLp() instead.
     */
    LpResult solve(const std::vector<double> &lower,
                   const std::vector<double> &upper, Basis &basis);

  private:
    bool factor(const Basis &basis);
    bool price();
    LpStatus iterate(std::uint64_t &iterations);
    void pivot(int row, int col);

    int n = 0;
    int m = 0;
    int cols = 0;
    /** [-A | I], row-major: the tableau of the all-logical basis. */
    std::vector<double> initial;
    std::vector<double> costs;
    /** Column bounds: the structurals' are set by each solve. */
    std::vector<double> lo;
    std::vector<double> hi;

    // Per-solve state, kept to reuse its storage.
    std::vector<double> tab;
    std::vector<double> reduced;
    /** Value of every column; basic values are kept current. */
    std::vector<double> value;
    std::vector<int> basicCol;
    /** Row of each basic column, -1 for a nonbasic one. */
    std::vector<int> rowOf;
    std::vector<bool> atUpper;
};

} // namespace aqua::opt

#endif // AQUA_OPT_LP_HH
