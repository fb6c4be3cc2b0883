/**
 * @file
 * Figure 14 + §A.1: AQUA-PLACER convergence time.
 *
 * Clusters of 8-GPU servers from 16 to 128 GPUs, filled either with
 * a mixed-modality split (1/3 image, 1/3 audio, 1/3 LLM consumers)
 * or a 50/50 LLM-producer/consumer split. The paper's Gurobi run
 * converges in < 1 s for the 50/50 split and up to ~45 s for the
 * mixed input, because more distinct producer types expand the
 * matching search space. Our branch-and-bound shows the same
 * ordering.
 */

#include <algorithm>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "placer/placer.hh"

using namespace aqua;

int
main()
{
    bench::banner("Figure 14", "AQUA-PLACER convergence time vs "
                               "cluster size (8-GPU servers)");

    stats::Table table({"gpus", "split", "solve_s", "nodes", "nodes_per_s",
                        "optimal", "objective_gb", "greedy_gb"});
    for (std::size_t gpus : {16, 32, 64, 128}) {
        for (const char *split : {"llm-heavy", "balanced"}) {
            placer::PlacementInput input =
                exp::makeClusterInput(gpus / 8, 8, split);
            opt::MilpOptions milpOpt;
            milpOpt.maxNodes = 20000;
            milpOpt.maxSeconds = 4.0;
            placer::AquaPlacer placer(milpOpt);
            placer::Placement greedy = placer::greedyPlace(input);
            placer::Placement result = placer.place(input);
            table.newRow()
                .cell(std::uint64_t(gpus))
                .cell(split)
                .cell(result.solveSeconds, 3)
                .cell(result.nodesExplored)
                .cell(double(result.nodesExplored) /
                          std::max(result.solveSeconds, 1e-9), 0)
                .cell(result.optimal ? "yes" : "limit")
                .cell(result.objective / 1e9, 1)
                .cell(greedy.objective / 1e9, 1);
        }
    }
    bench::show(table);
    std::printf("paper: < 1 s for the 50/50 LLM split; up to ~45 s "
                "for the mixed-modality input (more producer types "
                "=> more matchings to test).\n");
    return 0;
}
