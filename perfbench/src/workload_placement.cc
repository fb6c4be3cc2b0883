/**
 * @file
 * placement: AQUA-PLACER on the §6.1 8x2 balanced and llm-heavy
 * clusters, then a seeded churn sequence of model arrivals,
 * departures and GPU failures through IncrementalPlacer on a 64-GPU
 * cluster. Nothing is simulated; the LP/MILP does the work.
 *
 * Every solve is bounded by branch-and-bound node counts only (the
 * wall-clock budget is set effectively unlimited), so placements and
 * node counts do not depend on the host.
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiments.hh"
#include "placer/incremental.hh"
#include "placer/placer.hh"
#include "report.hh"
#include "sim/random.hh"
#include "workload.hh"

namespace perfbench {

using namespace aqua;

namespace {

/** B&B node budgets of the 8x2 solves and the churn fallback solves. */
constexpr std::uint64_t kPlaceNodes = 200;
constexpr std::uint64_t kRepairSolveNodes = 50;
/** Churn cluster: 8 servers x 8 GPUs holding 4 models each at start. */
constexpr std::size_t kChurnServers = 8;
constexpr std::size_t kChurnGpus = 8;
constexpr std::size_t kChurnModelsPerServer = 4;
constexpr std::size_t kChurnOps = 24;

/** Effectively unlimited wall clock: only node counts cut searches. */
constexpr double kNoWallClock = 1e9;

/** Uniform index in [0, n). */
std::size_t
pick(sim::Random &rng, std::size_t n)
{
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
}

struct ChurnOp
{
    enum class Kind { Arrival, Departure, GpuFailure } kind;
    /** Arriving model, departing model index, or failing server. */
    placer::ModelToPlace model;
    std::size_t index = 0;
};

/**
 * Check a placement against its instance: every model on a server,
 * no server over @p capacity(s), and pairs that join a consumer and a
 * producer on the same server, each at most once.
 */
template <typename Capacity>
std::string
checkPlacement(const std::vector<placer::ModelToPlace> &models,
               const std::vector<int> &server,
               const std::vector<placer::Pairing> &pairs,
               std::size_t numServers, const std::vector<bool> *live,
               Capacity capacity)
{
    if (server.size() != models.size())
        return "assignment size mismatch";
    std::vector<std::size_t> load(numServers, 0);
    for (std::size_t m = 0; m < models.size(); ++m) {
        bool isLive = !live || (*live)[m];
        if (!isLive)
            continue;
        if (server[m] < 0 || std::size_t(server[m]) >= numServers)
            return "model " + std::to_string(m) + " unplaced";
        ++load[server[m]];
    }
    for (std::size_t s = 0; s < numServers; ++s)
        if (load[s] > capacity(s))
            return "server " + std::to_string(s) + " over capacity";
    std::vector<bool> usedC(models.size(), false), usedP(models.size(),
                                                         false);
    for (const placer::Pairing &p : pairs) {
        auto c = std::size_t(p.consumerModel);
        auto pr = std::size_t(p.producerModel);
        if (p.consumerModel < 0 || p.producerModel < 0 ||
            c >= models.size() || pr >= models.size() ||
            !models[c].isConsumer() || !models[pr].isProducer() ||
            server[c] != p.server || server[pr] != p.server ||
            usedC[c] || usedP[pr])
            return "invalid pairing";
        usedC[c] = usedP[pr] = true;
    }
    return "";
}

class Placement : public Instance
{
  public:
    Placement(std::uint64_t seed, Spans *spans) : spans(spans)
    {
        inputs.push_back(exp::makeClusterInput(8, 2, "balanced", seed));
        inputs.push_back(exp::makeClusterInput(8, 2, "llm-heavy", seed));

        placer::PlacementInput churnBase = exp::makeClusterInput(
            kChurnServers, kChurnModelsPerServer, "balanced", seed);
        churnBase.gpusPerServer = kChurnGpus;
        // Arrivals draw from the same mix as the initial models.
        placer::PlacementInput pool = exp::makeClusterInput(
            kChurnServers, kChurnGpus, "balanced", seed + 1);
        makeChurn(churnBase, pool.models, seed);

        placer::RepairConfig rc;
        rc.solveMaxNodes = kRepairSolveNodes;
        Scope s(spans, "placer.initial");
        churn = std::make_unique<placer::IncrementalPlacer>(
            std::move(churnBase), rc);
    }

    void
    run() override
    {
        opt::MilpOptions milp;
        milp.maxNodes = kPlaceNodes;
        milp.maxSeconds = kNoWallClock;
        placer::AquaPlacer solver(milp);
        for (const placer::PlacementInput &in : inputs) {
            Scope s(spans, "placer.place");
            placements.push_back(solver.place(in));
        }
        for (const ChurnOp &op : ops) {
            Scope s(spans, "placer.repair");
            switch (op.kind) {
              case ChurnOp::Kind::Arrival:
                outcomes.push_back(churn->onArrival(op.model));
                break;
              case ChurnOp::Kind::Departure:
                outcomes.push_back(churn->onDeparture(op.index));
                break;
              case ChurnOp::Kind::GpuFailure:
                outcomes.push_back(
                    churn->onGpuFailure(static_cast<int>(op.index)));
                break;
            }
        }
    }

    Outputs
    outputs() override
    {
        Outputs out;
        Digest d;
        auto &k = out.counters;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const placer::PlacementInput &in = inputs[i];
            const placer::Placement &p = placements[i];
            ++out.attempted;
            std::string why =
                p.valid() ? checkPlacement(in.models, p.server, p.pairs,
                                           in.numServers, nullptr,
                                           [&](std::size_t) {
                                               return in.gpusPerServer;
                                           })
                          : "no placement";
            double expect =
                p.valid() ? placer::evaluateObjective(in, p.server) : 0.0;
            if (why.empty() &&
                std::fabs(expect - p.objective) >
                    1e-9 * std::max(1.0, std::fabs(expect)))
                why = "objective does not match the assignment";
            if (!why.empty()) {
                ++out.failed;
                ++out.broken;
                out.errors.push_back("placement " + std::to_string(i) +
                                     ": " + why);
            }
            out.objectiveSum += p.objective;
            ++out.objectives;
            for (const auto &m : in.models)
                out.consumers += m.isConsumer();
            out.paired += p.pairs.size();
            k["placer.solves"] += 1;
            k["placer.nodes"] += double(p.nodesExplored);
            k["placer.proved_optimal"] += p.optimal;
            for (int s : p.server)
                d.mix(std::uint64_t(s));
            d.mixDouble(p.objective);
            d.mix(p.nodesExplored);
            d.mix(p.optimal);
        }

        std::uint64_t local = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            ++out.attempted;
            const placer::RepairOutcome &o = outcomes[i];
            if (o.kind == placer::RepairOutcome::Kind::Infeasible) {
                ++out.failed;
                ++out.broken;
                out.errors.push_back("unexpected infeasible churn op " +
                                     std::to_string(i));
            }
            local += o.kind == placer::RepairOutcome::Kind::Repair;
            d.mix(static_cast<std::uint64_t>(o.kind));
            d.mixDouble(o.objective);
            d.mix(static_cast<std::uint64_t>(o.server));
        }
        std::vector<bool> live(churn->models().size());
        for (std::size_t m = 0; m < live.size(); ++m)
            live[m] = churn->live(m);
        std::string why = checkPlacement(
            churn->models(), churn->assignment(), churn->pairs(),
            kChurnServers, &live,
            [&](std::size_t s) { return churn->capacity(int(s)); });
        if (!why.empty())
            out.errors.push_back("churn placement: " + why);
        for (int s : churn->assignment())
            d.mix(std::uint64_t(s));
        d.mixDouble(churn->objective());

        k["placer.churn_ops"] = double(outcomes.size());
        k["placer.local_repairs"] = double(local);
        k["placer.repairs"] = double(churn->repairs());
        // The constructor's solve is not a fallback.
        k["placer.full_fallbacks"] = double(churn->fullSolves() - 1);
        out.digest = d.value();
        return out;
    }

  private:
    /**
     * Draw a steady-state churn sequence: arrivals and departures
     * alternate and every eighth operation is a GPU failure, so the
     * live model count (and with it the size of every fallback MILP)
     * stays level; the seed picks which model arrives or departs and
     * which server loses a GPU. Every step is feasible by
     * construction: arrivals only with a free slot, GPU failures only
     * on a server that still has a GPU and while two slots are free
     * cluster-wide (the displaced model always finds a home).
     */
    void
    makeChurn(const placer::PlacementInput &base,
              const std::vector<placer::ModelToPlace> &pool,
              std::uint64_t seed)
    {
        sim::Random rng(seed ^ 0xc4u);
        std::vector<std::size_t> live;
        for (std::size_t m = 0; m < base.models.size(); ++m)
            live.push_back(m);
        std::size_t next = base.models.size();
        std::vector<std::size_t> cap(base.numServers, base.gpusPerServer);
        std::size_t capTotal = base.numServers * base.gpusPerServer;
        for (std::size_t i = 0; i < kChurnOps; ++i) {
            ChurnOp op;
            std::size_t s = pick(rng, base.numServers);
            if (i % 8 == 7 && cap[s] > 0 && live.size() + 2 <= capTotal) {
                op.kind = ChurnOp::Kind::GpuFailure;
                op.index = s;
                --cap[s];
                --capTotal;
            } else if (i % 2 == 0 && live.size() < capTotal) {
                op.kind = ChurnOp::Kind::Arrival;
                op.model = pool[pick(rng, pool.size())];
                live.push_back(next++);
            } else {
                op.kind = ChurnOp::Kind::Departure;
                std::size_t victim = pick(rng, live.size());
                op.index = live[victim];
                live.erase(live.begin() + std::ptrdiff_t(victim));
            }
            ops.push_back(op);
        }
    }

    Spans *spans;
    std::vector<placer::PlacementInput> inputs;
    std::vector<ChurnOp> ops;
    std::unique_ptr<placer::IncrementalPlacer> churn;
    std::vector<placer::Placement> placements;
    std::vector<placer::RepairOutcome> outcomes;
};

} // anonymous namespace

WorkloadDef
placementWorkload()
{
    return {"placement", 6, [](std::uint64_t seed, Spans *spans) {
                return std::make_unique<Placement>(seed, spans);
            }};
}

} // namespace perfbench
