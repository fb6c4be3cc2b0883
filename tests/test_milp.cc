/**
 * @file
 * Tests for the branch-and-bound MILP solver and the warm-started
 * dual simplex its nodes re-solve with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "opt/milp.hh"
#include "sim/random.hh"

using namespace aqua::opt;
using aqua::sim::Random;

TEST(Milp, KnapsackOptimal)
{
    // max 10a + 13b + 7c, weights 3a + 4b + 2c <= 6, binary.
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -10.0);
    int b = lp.addVar(0.0, 1.0, -13.0);
    int c = lp.addVar(0.0, 1.0, -7.0);
    lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Relation::LessEq, 6.0);
    MilpSolver solver(lp, {a, b, c});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, -20.0, 1e-6); // b + c
    EXPECT_NEAR(r.x[a], 0.0, 1e-6);
    EXPECT_NEAR(r.x[b], 1.0, 1e-6);
    EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(Milp, IntegralityGapVsLpRelaxation)
{
    // LP relaxation picks fractional b; the MILP must not.
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -5.0);
    int b = lp.addVar(0.0, 1.0, -8.0);
    lp.addRow({{a, 2.0}, {b, 3.0}}, Relation::LessEq, 4.0);
    LpResult relaxed = solveLp(lp);
    ASSERT_TRUE(relaxed.optimal());
    // Some variable is fractional in the relaxation (b = 1, a = 0.5).
    double fracA = std::abs(relaxed.x[a] - std::round(relaxed.x[a]));
    double fracB = std::abs(relaxed.x[b] - std::round(relaxed.x[b]));
    EXPECT_GT(fracA + fracB, 1e-3);
    MilpSolver solver(lp, {a, b});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, -8.0, 1e-6); // b alone
}

TEST(Milp, GeneralIntegerVariables)
{
    // min x + y s.t. 2x + y >= 7, integers => (0..3 combos) obj 4.
    LinearProgram lp;
    int x = lp.addVar(0.0, 10.0, 1.0);
    int y = lp.addVar(0.0, 10.0, 1.0);
    lp.addRow({{x, 2.0}, {y, 1.0}}, Relation::GreaterEq, 7.0);
    MilpSolver solver(lp, {x, y});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 4.0, 1e-6); // e.g. x=3, y=1 or x=4... 4
}

TEST(Milp, AssignmentProblem)
{
    // 3x3 assignment with cost matrix; optimal is the diagonal-ish
    // permutation with cost 1 + 2 + 1 = 4? Matrix:
    //   [1 5 9]
    //   [6 2 8]
    //   [7 4 1]  => pick (0,0), (1,1), (2,2) = 4.
    const double cost[3][3] = {{1, 5, 9}, {6, 2, 8}, {7, 4, 1}};
    LinearProgram lp;
    int x[3][3];
    std::vector<int> ints;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            x[i][j] = lp.addVar(0.0, 1.0, cost[i][j]);
            ints.push_back(x[i][j]);
        }
    for (int i = 0; i < 3; ++i) {
        lp.addRow({{x[i][0], 1.0}, {x[i][1], 1.0}, {x[i][2], 1.0}},
                  Relation::Equal, 1.0);
        lp.addRow({{x[0][i], 1.0}, {x[1][i], 1.0}, {x[2][i], 1.0}},
                  Relation::Equal, 1.0);
    }
    MilpSolver solver(lp, ints);
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(Milp, InfeasibleInstance)
{
    LinearProgram lp;
    int x = lp.addVar(0.0, 1.0, 1.0);
    lp.addRow({{x, 1.0}}, Relation::GreaterEq, 2.0);
    MilpSolver solver(lp, {x});
    EXPECT_EQ(solver.solve().status, MilpStatus::Infeasible);
}

TEST(Milp, FractionalOnlyBetweenIntegerPoints)
{
    // x in [0, 1], need x >= 0.3 and x <= 0.7: LP feasible, integer
    // infeasible.
    LinearProgram lp;
    int x = lp.addVar(0.0, 1.0, 1.0);
    lp.addRow({{x, 1.0}}, Relation::GreaterEq, 0.3);
    lp.addRow({{x, 1.0}}, Relation::LessEq, 0.7);
    MilpSolver solver(lp, {x});
    EXPECT_EQ(solver.solve().status, MilpStatus::Infeasible);
}

TEST(Milp, SeedBoundPrunesButKeepsOptimum)
{
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -10.0);
    int b = lp.addVar(0.0, 1.0, -13.0);
    int c = lp.addVar(0.0, 1.0, -7.0);
    lp.addRow({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Relation::LessEq, 6.0);
    MilpSolver solver(lp, {a, b, c});
    solver.setIncumbentBound(-20.0); // exactly the optimum
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, -20.0, 1e-6);
}

TEST(Milp, NodeLimitYieldsFeasibleOrUnknown)
{
    LinearProgram lp;
    std::vector<int> ints;
    // A 12-var knapsack; node limit 1 explores only the root.
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < 12; ++i) {
        int v = lp.addVar(0.0, 1.0, -(1.0 + i % 5));
        ints.push_back(v);
        row.emplace_back(v, 1.0 + (i * 7) % 3);
    }
    lp.addRow(row, Relation::LessEq, 9.0);
    MilpOptions opt;
    opt.maxNodes = 1;
    MilpSolver solver(lp, ints, opt);
    MilpResult r = solver.solve();
    EXPECT_TRUE(r.limitHit);
    EXPECT_TRUE(r.status == MilpStatus::Feasible ||
                r.status == MilpStatus::Unknown);
}

TEST(Milp, ContinuousVariablesStayContinuous)
{
    // Only x is integer; y may be fractional.
    LinearProgram lp;
    int x = lp.addVar(0.0, 10.0, -1.0);
    int y = lp.addVar(0.0, 10.0, -1.0);
    lp.addRow({{x, 1.0}, {y, 2.0}}, Relation::LessEq, 8.5);
    MilpSolver solver(lp, {x});
    MilpResult r = solver.solve();
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    double frac = std::abs(r.x[x] - std::round(r.x[x]));
    EXPECT_LT(frac, 1e-6);
    // Optimal: x = 8 (integer), y = 0.25 => obj -8.25.
    EXPECT_NEAR(r.objective, -8.25, 1e-6);
}

TEST(Milp, CountsNodesAndIterations)
{
    LinearProgram lp;
    int a = lp.addVar(0.0, 1.0, -3.0);
    int b = lp.addVar(0.0, 1.0, -2.0);
    lp.addRow({{a, 1.0}, {b, 1.0}}, Relation::LessEq, 1.2);
    MilpSolver solver(lp, {a, b});
    MilpResult r = solver.solve();
    EXPECT_GE(r.nodesExplored, 1u);
    EXPECT_GE(r.lpIterations, 1u);
}

namespace {

/**
 * A random LP built around an integer point inside its box, so the
 * root is feasible: <=, = and >= rows with small integer coefficients,
 * nonzero lower bounds, some infinite upper bounds, and negative costs
 * only on bounded variables (the LP stays bounded).
 */
LinearProgram
randomLp(Random &rng, int n, int m, int maxRange)
{
    LinearProgram lp;
    std::vector<double> point(n);
    for (int j = 0; j < n; ++j) {
        double lo = double(rng.uniformInt(-3, 3));
        bool bounded = rng.uniformInt(0, 3) != 0;
        double hi = bounded ? lo + double(rng.uniformInt(0, maxRange))
                            : inf;
        double cost = double(rng.uniformInt(bounded ? -5 : 1, 5));
        lp.addVar(lo, hi, cost);
        point[j] = lo + double(rng.uniformInt(
                            0, bounded ? std::int64_t(hi - lo) : 4));
    }
    for (int i = 0; i < m; ++i) {
        std::vector<std::pair<int, double>> coeffs;
        double at = 0.0;
        for (int j = 0; j < n; ++j) {
            if (rng.uniformInt(0, 2) == 0)
                continue;
            double a = double(rng.uniformInt(-3, 3));
            if (a == 0.0)
                continue;
            coeffs.emplace_back(j, a);
            at += a * point[j];
        }
        switch (rng.uniformInt(0, 2)) {
          case 0:
            lp.addRow(std::move(coeffs), Relation::LessEq,
                      at + double(rng.uniformInt(0, 3)));
            break;
          case 1:
            lp.addRow(std::move(coeffs), Relation::Equal, at);
            break;
          default:
            lp.addRow(std::move(coeffs), Relation::GreaterEq,
                      at - double(rng.uniformInt(0, 3)));
            break;
        }
    }
    return lp;
}

/** @p lp with its variable bounds replaced. */
LinearProgram
withBounds(LinearProgram lp, const std::vector<double> &lower,
           const std::vector<double> &upper)
{
    for (int j = 0; j < lp.numVars(); ++j)
        lp.setBounds(j, lower[j], upper[j]);
    return lp;
}

/** Largest bound or row violation of @p x. */
double
violation(const LinearProgram &lp, const std::vector<double> &lower,
          const std::vector<double> &upper, const std::vector<double> &x)
{
    double worst = 0.0;
    for (int j = 0; j < lp.numVars(); ++j) {
        worst = std::max(worst, lower[j] - x[j]);
        worst = std::max(worst, x[j] - upper[j]);
    }
    for (const LinearProgram::Row &row : lp.constraints()) {
        double at = 0.0;
        for (const auto &[var, coeff] : row.coeffs)
            at += coeff * x[var];
        if (row.rel != Relation::GreaterEq)
            worst = std::max(worst, at - row.rhs);
        if (row.rel != Relation::LessEq)
            worst = std::max(worst, row.rhs - at);
    }
    return worst;
}

} // anonymous namespace

TEST(DualSimplex, WarmResolveMatchesColdSolve)
{
    // Each LP goes through a chain of bound tightenings, every step
    // re-solved warm from the previous optimal basis and cold from
    // scratch. An infeasible step is undone, as a B&B sibling would
    // start again from the parent's basis.
    Random rng(19);
    int steps = 0, infeasible = 0, pivots = 0;
    for (int trial = 0; trial < 300; ++trial) {
        int n = int(rng.uniformInt(1, 10));
        int m = int(rng.uniformInt(0, 8));
        LinearProgram lp = randomLp(rng, n, m, 6);
        Basis basis;
        LpResult root = solveLp(lp, basis);
        ASSERT_TRUE(root.optimal()) << "trial " << trial;
        ASSERT_FALSE(basis.empty()) << "trial " << trial;
        std::vector<double> lower(n), upper(n);
        for (int j = 0; j < n; ++j) {
            lower[j] = lp.lowerBound(j);
            upper[j] = lp.upperBound(j);
        }
        std::vector<double> x = root.x;
        DualSimplex warm(lp);
        for (int step = 0; step < 8; ++step) {
            // Tighten one bound past the current optimum (or, now and
            // then, at a random value, which may fix or cut the box).
            int j = int(rng.uniformInt(0, n - 1));
            std::vector<double> lo = lower, hi = upper;
            double v = rng.uniformInt(0, 3) == 0
                           ? lower[j] + rng.uniform(0.0, 6.0)
                           : x[j];
            if (rng.uniformInt(0, 1) == 0)
                hi[j] = std::max(lo[j], std::min(hi[j], std::floor(v)));
            else
                lo[j] = std::min(hi[j], std::max(lo[j], std::ceil(v + 0.5)));

            Basis child = basis;
            LpResult w = warm.solve(lo, hi, child);
            LpResult c = solveLp(withBounds(lp, lo, hi));
            ++steps;
            pivots += int(w.iterations);
            ASSERT_EQ(w.status, c.status)
                << "trial " << trial << " step " << step;
            if (!w.optimal()) {
                ++infeasible;
                continue;
            }
            EXPECT_NEAR(w.objective, c.objective,
                        1e-9 * std::max(1.0, std::abs(c.objective)))
                << "trial " << trial << " step " << step;
            EXPECT_LE(violation(lp, lo, hi, w.x), 1e-7)
                << "trial " << trial << " step " << step;
            lower = lo;
            upper = hi;
            basis = child;
            x = w.x;
        }
    }
    // The chains must reach infeasible children and take pivots.
    EXPECT_GT(infeasible, steps / 20);
    EXPECT_GT(pivots, steps / 10);
}

TEST(DualSimplex, RejectsUnusableStart)
{
    // x + y >= 2 with y unbounded above. A start with y nonbasic at
    // an infinite upper bound cannot be priced, one of the wrong size
    // cannot be loaded, and one with x at its upper bound is not dual
    // feasible (raising x's bound costs more); each asks for a cold
    // solve.
    LinearProgram lp;
    int x = lp.addVar(0.0, 4.0, 1.0);
    int y = lp.addVar(0.0, inf, 1.0);
    lp.addRow({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 2.0);
    DualSimplex warm(lp);
    std::vector<double> lower{0.0, 0.0}, upper{4.0, inf};

    Basis atInfinity{{2}, {false, true, false}};
    EXPECT_EQ(warm.solve(lower, upper, atInfinity).status,
              LpStatus::IterLimit);
    Basis wrongSize{{0, 1}, {false, false, false}};
    EXPECT_EQ(warm.solve(lower, upper, wrongSize).status,
              LpStatus::IterLimit);
    Basis costly{{2}, {true, false, false}};
    EXPECT_EQ(warm.solve(lower, upper, costly).status,
              LpStatus::IterLimit);

    Basis slack{{2}, {false, false, false}};
    LpResult r = warm.solve(lower, upper, slack);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, 2.0, 1e-12);
    EXPECT_NEAR(r.x[x] + r.x[y], 2.0, 1e-12);
}

TEST(Milp, MatchesEnumerationOnTinyIntegerPrograms)
{
    // Up to six integer variables in boxes of at most four values:
    // enumeration finds the true optimum, which B&B must prove.
    Random rng(7);
    int branched = 0, infeasible = 0;
    for (int trial = 0; trial < 400; ++trial) {
        int n = int(rng.uniformInt(1, 6));
        int m = int(rng.uniformInt(1, 4));
        LinearProgram lp = randomLp(rng, n, m, 3);
        // Enumeration needs a finite box.
        for (int j = 0; j < n; ++j) {
            double lo = lp.lowerBound(j);
            lp.setBounds(j, lo, std::min(lp.upperBound(j), lo + 3.0));
        }
        // Shift the rows off the integer lattice now and then, so the
        // relaxation has fractional vertices and B&B must branch.
        LinearProgram shifted;
        for (int j = 0; j < n; ++j)
            shifted.addVar(lp.lowerBound(j), lp.upperBound(j), lp.cost(j));
        for (const LinearProgram::Row &row : lp.constraints()) {
            double rhs = row.rhs;
            if (row.rel != Relation::Equal && rng.uniformInt(0, 1) == 0)
                rhs += row.rel == Relation::LessEq ? 0.5 : -0.5;
            shifted.addRow(row.coeffs, row.rel, rhs);
        }

        double best = inf;
        std::vector<double> x(n);
        std::vector<int> digit(n, 0);
        for (;;) {
            for (int j = 0; j < n; ++j)
                x[j] = shifted.lowerBound(j) + digit[j];
            std::vector<double> lo(n), hi(n);
            for (int j = 0; j < n; ++j) {
                lo[j] = shifted.lowerBound(j);
                hi[j] = shifted.upperBound(j);
            }
            if (violation(shifted, lo, hi, x) <= 1e-9) {
                double obj = 0.0;
                for (int j = 0; j < n; ++j)
                    obj += shifted.cost(j) * x[j];
                best = std::min(best, obj);
            }
            int j = 0;
            while (j < n && x[j] + 1.0 > shifted.upperBound(j) + 1e-9)
                digit[j++] = 0;
            if (j == n)
                break;
            ++digit[j];
        }

        std::vector<int> ints(n);
        for (int j = 0; j < n; ++j)
            ints[j] = j;
        MilpSolver solver(shifted, ints);
        MilpResult r = solver.solve();
        if (best == inf) {
            EXPECT_EQ(r.status, MilpStatus::Infeasible)
                << "trial " << trial;
            ++infeasible;
            continue;
        }
        ASSERT_EQ(r.status, MilpStatus::Optimal) << "trial " << trial;
        EXPECT_NEAR(r.objective, best, 1e-9 * std::max(1.0, std::abs(best)))
            << "trial " << trial;
        // Only the root is solved cold.
        EXPECT_EQ(r.coldSolves, 1u) << "trial " << trial;
        branched += r.nodesExplored > 1;
    }
    EXPECT_GT(branched, 40);
    EXPECT_GT(infeasible, 0);
}
