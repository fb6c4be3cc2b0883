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

    /**
     * The final basis in bounded form. A structural whose upper-bound
     * row has a nonbasic slack sits at its upper bound; a row is
     * tight, its logical nonbasic, unless its slack or artificial
     * is basic. Each upper-bound row holds one basic column more
     * than the bounded form has, so the counts must come out even.
     */
    void
    exportBasis(Basis &out) const
    {
        const int rows = lp.numRows();
        std::vector<char> isBasic(cols, 0);
        for (int col : basis)
            isBasic[col] = 1;
        out.basic.clear();
        out.atUpper.assign(n + rows, false);
        for (int j = 0; j < n; ++j) {
            if (!isBasic[j])
                continue;
            int ub = ubRowOf[j];
            if (ub >= 0 && !isBasic[slackOf[ub]])
                out.atUpper[j] = true;
            else
                out.basic.push_back(j);
        }
        for (int i = 0; i < rows; ++i) {
            if ((slackOf[i] >= 0 && isBasic[slackOf[i]]) ||
                (artOf[i] >= 0 && isBasic[artOf[i]]))
                out.basic.push_back(n + i);
            else
                out.atUpper[n + i] =
                    lp.constraints()[i].rel == Relation::LessEq;
        }
        if (static_cast<int>(out.basic.size()) != rows)
            out.clear();
    }

  private:
    void
    build()
    {
        n = lp.numVars();
        // Count columns: structural + slack/surplus per inequality +
        // one slack per finite-ub row + artificials for >=/= rows.
        std::vector<LinearProgram::Row> allRows = lp.constraints();
        ubRowOf.assign(n, -1);
        for (int j = 0; j < n; ++j) {
            double ub = lp.upperBound(j) - lp.lowerBound(j);
            if (std::isfinite(ub)) {
                ubRowOf[j] = static_cast<int>(allRows.size());
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
        slackOf.assign(m, -1);
        artOf.assign(m, -1);
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j)
                tab[i][j] = dense[i][j];
            tab[i][cols] = rhs[i];
            switch (rel[i]) {
              case Relation::LessEq:
                tab[i][slack] = 1.0;
                basis[i] = slack;
                slackOf[i] = slack;
                ++slack;
                break;
              case Relation::GreaterEq:
                tab[i][slack] = -1.0;
                slackOf[i] = slack;
                ++slack;
                tab[i][art] = 1.0;
                basis[i] = art;
                artOf[i] = art;
                ++art;
                break;
              case Relation::Equal:
                tab[i][art] = 1.0;
                basis[i] = art;
                artOf[i] = art;
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
    /** Per row: its slack and artificial column, or -1. */
    std::vector<int> slackOf;
    std::vector<int> artOf;
    /** Per structural: the row holding its upper bound, or -1. */
    std::vector<int> ubRowOf;
};

} // anonymous namespace

// The simplex loops are the placer's inner loop, and their speed
// depends on where they fall against fetch and cache-line boundaries:
// on a 4-vCPU Xeon host the perfbench placement workload's run time
// moved by up to 30% when unrelated code earlier in the link grew or
// shrank. gnu::hot groups the solver in .text.hot, but the linker
// still places every .text.unlikely (cold) fragment before it, so the
// function also starts on a 64-byte boundary and this file is built
// with -falign-loops=64 (src/opt/CMakeLists.txt): its loops then fall
// at the same place in a cache line whatever code precedes them.
[[gnu::hot, gnu::aligned(64)]] LpResult
solveLp(const LinearProgram &lp)
{
    Simplex solver(lp);
    return solver.run();
}

LpResult
solveLp(const LinearProgram &lp, Basis &basis)
{
    Simplex solver(lp);
    LpResult result = solver.run();
    basis.clear();
    if (result.optimal())
        solver.exportBasis(basis);
    return result;
}

namespace {

/** Primal feasibility tolerance of the dual simplex. */
constexpr double primalTol = 1e-9;
/** Dual feasibility tolerance; also the Harris ratio-test slack. */
constexpr double dualTol = 1e-9;
/** Smallest tableau entry the dual simplex pivots on. */
constexpr double pivotTol = 1e-9;

} // anonymous namespace

DualSimplex::DualSimplex(const LinearProgram &lp)
    : n(lp.numVars()), m(lp.numRows()), cols(n + m)
{
    initial.assign(static_cast<std::size_t>(m) * cols, 0.0);
    costs.assign(cols, 0.0);
    for (int j = 0; j < n; ++j)
        costs[j] = lp.cost(j);
    // Structural bounds come with each solve; logical bounds are the
    // rows' and stay.
    lo.assign(cols, -inf);
    hi.assign(cols, inf);
    for (int i = 0; i < m; ++i) {
        const LinearProgram::Row &row = lp.constraints()[i];
        double *t = &initial[static_cast<std::size_t>(i) * cols];
        for (const auto &[var, coeff] : row.coeffs)
            t[var] -= coeff;
        t[n + i] = 1.0;
        if (row.rel != Relation::GreaterEq)
            hi[n + i] = row.rhs;
        if (row.rel != Relation::LessEq)
            lo[n + i] = row.rhs;
    }
}

LpResult
DualSimplex::solve(const std::vector<double> &lower,
                   const std::vector<double> &upper, Basis &basis)
{
    LpResult result;
    std::copy(lower.begin(), lower.end(), lo.begin());
    std::copy(upper.begin(), upper.end(), hi.begin());
    if (!factor(basis) || !price()) {
        result.status = LpStatus::IterLimit;
        return result;
    }
    result.status = iterate(result.iterations);
    if (result.status != LpStatus::Optimal)
        return result;
    result.x.assign(value.begin(), value.begin() + n);
    for (int j = 0; j < n; ++j)
        result.objective += costs[j] * result.x[j];
    basis.basic = basicCol;
    basis.atUpper = atUpper;
    for (int col : basicCol)
        basis.atUpper[col] = false;
    return result;
}

/**
 * Load the tableau of @p basis: start from the all-logical basis and
 * pivot each basic structural into the row of a logical that leaves,
 * the row with the largest entry in its column (partial pivoting).
 */
[[gnu::hot, gnu::aligned(64)]] bool
DualSimplex::factor(const Basis &basis)
{
    if (static_cast<int>(basis.basic.size()) != m ||
        static_cast<int>(basis.atUpper.size()) != cols)
        return false;
    tab = initial;
    basicCol.resize(m);
    rowOf.assign(cols, -1);
    for (int i = 0; i < m; ++i) {
        basicCol[i] = n + i;
        rowOf[n + i] = i;
    }
    atUpper = basis.atUpper;
    std::vector<char> wanted(cols, 0);
    for (int col : basis.basic) {
        if (col < 0 || col >= cols || wanted[col])
            return false;
        wanted[col] = 1;
    }
    for (int col : basis.basic) {
        if (col >= n)
            continue;
        int row = -1;
        double best = pivotTol;
        for (int i = 0; i < m; ++i) {
            double a = std::abs(tab[static_cast<std::size_t>(i) * cols +
                                    col]);
            if (a > best && !wanted[basicCol[i]]) {
                best = a;
                row = i;
            }
        }
        if (row < 0)
            return false; // singular
        pivot(row, col);
    }
    return true;
}

/**
 * Set nonbasic columns at their bounds and solve for the basic values
 * and the reduced costs. Fails if a nonbasic column sits at an
 * infinite bound or its reduced cost has the wrong sign (the start
 * is not dual feasible).
 */
[[gnu::hot, gnu::aligned(64)]] bool
DualSimplex::price()
{
    value.assign(cols, 0.0);
    for (int j = 0; j < cols; ++j) {
        if (rowOf[j] >= 0)
            continue;
        if (lo[j] == hi[j])
            atUpper[j] = false;
        double v = atUpper[j] ? hi[j] : lo[j];
        if (!std::isfinite(v))
            return false;
        value[j] = v;
    }
    reduced = costs;
    for (int i = 0; i < m; ++i) {
        const double *t = &tab[static_cast<std::size_t>(i) * cols];
        double cb = costs[basicCol[i]];
        if (cb != 0.0) {
            for (int j = 0; j < cols; ++j)
                reduced[j] -= cb * t[j];
        }
    }
    for (int j = 0; j < cols; ++j) {
        if (rowOf[j] >= 0)
            reduced[j] = 0.0;
        else if (lo[j] != hi[j] &&
                 (atUpper[j] ? reduced[j] > dualTol
                             : reduced[j] < -dualTol))
            return false;
    }
    for (int i = 0; i < m; ++i) {
        const double *t = &tab[static_cast<std::size_t>(i) * cols];
        double sum = 0.0;
        for (int j = 0; j < cols; ++j) {
            if (rowOf[j] < 0)
                sum += t[j] * value[j];
        }
        value[basicCol[i]] = -sum;
    }
    return true;
}

/**
 * Dual simplex iterations: the most violated basic column leaves at
 * the bound it violates; the entering column comes from a Harris
 * two-pass ratio test that keeps every reduced cost within dualTol
 * of its sign and prefers the largest pivot among near ties.
 */
[[gnu::hot, gnu::aligned(64)]] LpStatus
DualSimplex::iterate(std::uint64_t &iterations)
{
    // A warm start needs a few pivots; a run this long is cycling,
    // and the caller re-solves cold.
    const std::uint64_t budget =
        1000 + 50 * static_cast<std::uint64_t>(cols);
    for (;;) {
        int row = -1;
        bool below = false;
        double worst = primalTol;
        for (int i = 0; i < m; ++i) {
            int c = basicCol[i];
            double v = value[c];
            if (lo[c] - v > worst) {
                worst = lo[c] - v;
                row = i;
                below = true;
            } else if (v - hi[c] > worst) {
                worst = v - hi[c];
                row = i;
                below = false;
            }
        }
        if (row < 0)
            return LpStatus::Optimal;
        if (iterations >= budget)
            return LpStatus::IterLimit;

        // x_B[row] moves by -alpha_j per unit step of nonbasic j. A
        // column below its lower bound must rise, so it takes a
        // column that may increase (at lower) with alpha < 0 or one
        // that may decrease (at upper) with alpha > 0; above its
        // upper bound, the signs swap.
        const double *t = &tab[static_cast<std::size_t>(row) * cols];
        double maxStep = inf;
        for (int j = 0; j < cols; ++j) {
            if (rowOf[j] >= 0 || lo[j] == hi[j])
                continue;
            double alpha = below == atUpper[j] ? t[j] : -t[j];
            if (alpha <= pivotTol)
                continue;
            double d = atUpper[j] ? -reduced[j] : reduced[j];
            maxStep = std::min(maxStep,
                               (std::max(d, 0.0) + dualTol) / alpha);
        }
        if (maxStep == inf)
            return LpStatus::Infeasible;
        int enter = -1;
        double bestAlpha = 0.0;
        for (int j = 0; j < cols; ++j) {
            if (rowOf[j] >= 0 || lo[j] == hi[j])
                continue;
            double alpha = below == atUpper[j] ? t[j] : -t[j];
            if (alpha <= pivotTol)
                continue;
            double d = atUpper[j] ? -reduced[j] : reduced[j];
            if (std::max(d, 0.0) / alpha <= maxStep &&
                alpha > bestAlpha) {
                bestAlpha = alpha;
                enter = j;
            }
        }
        if (enter < 0)
            return LpStatus::IterLimit; // NaN in the tableau

        int leave = basicCol[row];
        double target = below ? lo[leave] : hi[leave];
        double step = (value[leave] - target) / t[enter];
        for (int i = 0; i < m; ++i) {
            double a = tab[static_cast<std::size_t>(i) * cols + enter];
            if (a != 0.0)
                value[basicCol[i]] -= a * step;
        }
        value[enter] += step;
        value[leave] = target;
        atUpper[leave] = !below;
        pivot(row, enter);
        double d = reduced[enter];
        if (d != 0.0) {
            for (int j = 0; j < cols; ++j)
                reduced[j] -= d * t[j];
        }
        reduced[enter] = 0.0;
        ++iterations;
    }
}

[[gnu::hot, gnu::aligned(64)]] void
DualSimplex::pivot(int row, int col)
{
    double *r = &tab[static_cast<std::size_t>(row) * cols];
    double p = r[col];
    for (int j = 0; j < cols; ++j)
        r[j] /= p;
    for (int i = 0; i < m; ++i) {
        if (i == row)
            continue;
        double *t = &tab[static_cast<std::size_t>(i) * cols];
        double f = t[col];
        if (f == 0.0)
            continue;
        for (int j = 0; j < cols; ++j)
            t[j] -= f * r[j];
    }
    rowOf[basicCol[row]] = -1;
    basicCol[row] = col;
    rowOf[col] = row;
}

} // namespace aqua::opt
