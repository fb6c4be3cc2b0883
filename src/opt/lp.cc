#include "opt/lp.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace aqua::opt {

using aqua::sim::panic;

int
LinearProgram::addVar(double lo, double hi, double cost)
{
    if (!std::isfinite(lo))
        panic("LinearProgram: lower bounds must be finite");
    if (hi < lo)
        panic("LinearProgram: upper bound below lower bound");
    lower.push_back(lo);
    upper.push_back(hi);
    costs.push_back(cost);
    return static_cast<int>(lower.size()) - 1;
}

void
LinearProgram::addRow(std::vector<std::pair<int, double>> coeffs,
                      Relation rel, double rhs)
{
    for (const auto &[var, coeff] : coeffs) {
        if (var < 0 || var >= numVars())
            panic("LinearProgram::addRow: bad variable index %d", var);
        (void)coeff;
    }
    rows.push_back(Row{std::move(coeffs), rel, rhs});
}

void
LinearProgram::setCost(int var, double cost)
{
    costs.at(var) = cost;
}

void
LinearProgram::setBounds(int var, double lo, double hi)
{
    if (!std::isfinite(lo) || hi < lo)
        panic("LinearProgram::setBounds: bad bounds");
    lower.at(var) = lo;
    upper.at(var) = hi;
}

namespace {

/** Pivot budget before giving up with LpStatus::IterLimit. */
constexpr std::uint64_t maxIterations = 200000;
/** Zero tolerance of costs, pivots and ratio-test ties. */
constexpr double eps = 1e-9;

/**
 * Dense two-phase simplex working on the standard-form expansion of
 * the LP: variables shifted to x' = x - lo >= 0, finite upper bounds
 * materialized as extra <= rows, slack/surplus columns for
 * inequalities and artificial columns for the phase-1 basis.
 */
class Simplex
{
  public:
    explicit Simplex(const LinearProgram &lp) : lp(lp) {}

    LpResult
    run()
    {
        build();
        LpResult result;
        // Phase 1: drive artificials to zero.
        if (numArtificial > 0) {
            setPhase1Costs();
            LpStatus s = iterate(result.iterations);
            if (s == LpStatus::IterLimit) {
                result.status = s;
                return result;
            }
            if (objectiveValue() > 1e-6) {
                result.status = LpStatus::Infeasible;
                return result;
            }
            pivotOutArtificials();
        }
        // Phase 2: the real objective.
        setPhase2Costs();
        LpStatus s = iterate(result.iterations);
        result.status = s;
        if (s != LpStatus::Optimal)
            return result;
        extract(result);
        return result;
    }

  private:
    void
    build()
    {
        n = lp.numVars();
        // Count columns: structural + slack/surplus per inequality +
        // one slack per finite-ub row + artificials for >=/= rows.
        std::vector<LinearProgram::Row> allRows = lp.constraints();
        for (int j = 0; j < n; ++j) {
            double ub = lp.upperBound(j) - lp.lowerBound(j);
            if (std::isfinite(ub)) {
                LinearProgram::Row row;
                row.coeffs = {{j, 1.0}};
                row.rel = Relation::LessEq;
                // rhs is already expressed in shifted (x - lo)
                // coordinates; the pass below must not shift again.
                row.rhs = ub;
                allRows.push_back(std::move(row));
            }
        }

        m = static_cast<int>(allRows.size());
        // First pass: shift lower bounds into rhs; normalize rhs >= 0.
        std::vector<double> rhs(m);
        std::vector<Relation> rel(m);
        std::vector<std::vector<double>> dense(
            m, std::vector<double>(n, 0.0));
        for (int i = 0; i < m; ++i) {
            const LinearProgram::Row &row = allRows[i];
            double b = row.rhs;
            bool isUbRow =
                i >= static_cast<int>(lp.constraints().size());
            for (const auto &[var, coeff] : row.coeffs) {
                dense[i][var] += coeff;
                if (!isUbRow)
                    b -= coeff * lp.lowerBound(var);
            }
            rel[i] = row.rel;
            rhs[i] = b;
            if (rhs[i] < 0) {
                for (int j = 0; j < n; ++j)
                    dense[i][j] = -dense[i][j];
                rhs[i] = -rhs[i];
                if (rel[i] == Relation::LessEq)
                    rel[i] = Relation::GreaterEq;
                else if (rel[i] == Relation::GreaterEq)
                    rel[i] = Relation::LessEq;
            }
        }

        // Second pass: count extra columns.
        int slackCount = 0;
        numArtificial = 0;
        for (int i = 0; i < m; ++i) {
            if (rel[i] != Relation::Equal)
                ++slackCount;
            if (rel[i] != Relation::LessEq)
                ++numArtificial;
        }
        cols = n + slackCount + numArtificial;

        tab.assign(m, std::vector<double>(cols + 1, 0.0));
        basis.assign(m, -1);
        artificialStart = n + slackCount;

        int slack = n;
        int art = artificialStart;
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j)
                tab[i][j] = dense[i][j];
            tab[i][cols] = rhs[i];
            switch (rel[i]) {
              case Relation::LessEq:
                tab[i][slack] = 1.0;
                basis[i] = slack;
                ++slack;
                break;
              case Relation::GreaterEq:
                tab[i][slack] = -1.0;
                ++slack;
                tab[i][art] = 1.0;
                basis[i] = art;
                ++art;
                break;
              case Relation::Equal:
                tab[i][art] = 1.0;
                basis[i] = art;
                ++art;
                break;
            }
        }
        costRow.assign(cols + 1, 0.0);
    }

    void
    setPhase1Costs()
    {
        std::fill(costRow.begin(), costRow.end(), 0.0);
        for (int j = artificialStart; j < cols; ++j)
            costRow[j] = 1.0;
        priceOutBasis();
        phase1 = true;
    }

    void
    setPhase2Costs()
    {
        std::fill(costRow.begin(), costRow.end(), 0.0);
        for (int j = 0; j < n; ++j)
            costRow[j] = lp.cost(j);
        // Artificials must never re-enter: give them a blocked flag.
        priceOutBasis();
        phase1 = false;
    }

    /** Make the reduced costs of basic columns zero. */
    void
    priceOutBasis()
    {
        for (int i = 0; i < m; ++i) {
            double c = costRow[basis[i]];
            if (std::abs(c) < eps)
                continue;
            for (int j = 0; j <= cols; ++j)
                costRow[j] -= c * tab[i][j];
        }
    }

    double
    objectiveValue() const
    {
        // costRow[cols] accumulates -(objective) during pivoting.
        return -costRow[cols];
    }

    /** One simplex phase; Bland's rule for anti-cycling. */
    LpStatus
    iterate(std::uint64_t &iterations)
    {
        for (;;) {
            if (iterations >= maxIterations)
                return LpStatus::IterLimit;
            // Entering column: smallest index with negative reduced
            // cost (Bland). Phase 2 never re-admits artificials.
            int enter = -1;
            int limit = phase1 ? cols : artificialStart;
            for (int j = 0; j < limit; ++j) {
                if (costRow[j] < -eps) {
                    enter = j;
                    break;
                }
            }
            if (enter < 0)
                return LpStatus::Optimal;

            // Leaving row: min ratio, ties by smallest basis index.
            int leave = -1;
            double bestRatio = 0.0;
            for (int i = 0; i < m; ++i) {
                if (tab[i][enter] <= eps)
                    continue;
                double ratio = tab[i][cols] / tab[i][enter];
                if (leave < 0 || ratio < bestRatio - eps ||
                    (ratio < bestRatio + eps &&
                     basis[i] < basis[leave])) {
                    leave = i;
                    bestRatio = ratio;
                }
            }
            if (leave < 0)
                return LpStatus::Unbounded;

            pivot(leave, enter);
            ++iterations;
        }
    }

    void
    pivot(int row, int col)
    {
        double p = tab[row][col];
        for (int j = 0; j <= cols; ++j)
            tab[row][j] /= p;
        for (int i = 0; i < m; ++i) {
            if (i == row)
                continue;
            double f = tab[i][col];
            if (std::abs(f) < eps)
                continue;
            for (int j = 0; j <= cols; ++j)
                tab[i][j] -= f * tab[row][j];
        }
        double f = costRow[col];
        if (std::abs(f) > 0.0) {
            for (int j = 0; j <= cols; ++j)
                costRow[j] -= f * tab[row][j];
        }
        basis[row] = col;
    }

    /** After phase 1, remove artificials still (degenerately) basic. */
    void
    pivotOutArtificials()
    {
        for (int i = 0; i < m; ++i) {
            if (basis[i] < artificialStart)
                continue;
            // Find any non-artificial column to pivot in.
            int col = -1;
            for (int j = 0; j < artificialStart; ++j) {
                if (std::abs(tab[i][j]) > 1e-7) {
                    col = j;
                    break;
                }
            }
            if (col >= 0)
                pivot(i, col);
            // Otherwise the row is redundant (all-zero); harmless.
        }
    }

    void
    extract(LpResult &result) const
    {
        result.x.assign(n, 0.0);
        for (int i = 0; i < m; ++i) {
            if (basis[i] < n)
                result.x[basis[i]] = tab[i][cols];
        }
        double obj = 0.0;
        for (int j = 0; j < n; ++j) {
            result.x[j] += lp.lowerBound(j);
            obj += lp.cost(j) * result.x[j];
        }
        result.objective = obj;
    }

    const LinearProgram &lp;
    int n = 0;
    int m = 0;
    int cols = 0;
    int artificialStart = 0;
    int numArtificial = 0;
    bool phase1 = false;
    std::vector<std::vector<double>> tab;
    std::vector<double> costRow;
    std::vector<int> basis;
};

} // anonymous namespace

LpResult
solveLp(const LinearProgram &lp)
{
    Simplex solver(lp);
    return solver.run();
}

} // namespace aqua::opt
