/// \file
/// \brief Primitive loops: the public calls of the matching
///        `bench_micro_components` cases, timed with `steady_clock` so the
///        benchmark needs no google-benchmark.
#include "measure.hpp"

#include "axi/flit.hpp"
#include "mon/quantile.hpp"
#include "noc/credit.hpp"
#include "scenario/topology.hpp"
#include "sim/link.hpp"
#include "traffic/dma.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

namespace perfbench {

namespace {

using namespace realm;
using Clock = std::chrono::steady_clock;

constexpr unsigned kReps = 5;

/// Keeps a value alive for the optimizer without a library dependency.
template <class T> void keep(const T& v) { asm volatile("" : : "g"(&v) : "memory"); }

/// Times `body(iters)` `kReps` times and prints the ns per iteration of
/// each repetition; `run.py` takes the median.
void emit(std::ostream& os, const char* name, std::uint64_t iters,
          const std::function<void(std::uint64_t)>& body) {
    os << "{\"kind\":\"primitive\",\"name\":\"" << name << "\",\"iters\":" << iters
       << ",\"ns\":[";
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const auto t0 = Clock::now();
        body(iters);
        const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", ns / static_cast<double>(iters));
        os << (rep > 0 ? "," : "") << buf;
    }
    os << "]}\n";
    os.flush();
}

/// `BM_LinkTransfer`: one push, one pop and one cycle on a registered link.
void link_op(std::uint64_t iters) {
    sim::SimContext ctx;
    sim::Link<axi::RFlit> link{ctx, 2, "l"};
    const axi::RFlit flit;
    for (std::uint64_t i = 0; i < iters; ++i) {
        if (link.can_push()) { link.push(flit); }
        if (link.can_pop()) { keep(link.pop()); }
        ctx.step();
    }
}

/// `BM_CreditedLinkCycle`, with the sender's end-to-end `CreditPool` taken
/// per worm and returned when the worm drains.
void credit_link(std::uint64_t iters) {
    sim::SimContext ctx;
    const noc::NocFlowConfig fc;
    noc::NocLink link{ctx, "credited", fc};
    noc::CreditPool pool{fc.e2e_credits};
    pool.configure_return(ctx, 0, false);
    noc::NocPacket worm;
    worm.flits = static_cast<std::uint8_t>(fc.flits_per_packet);
    worm.flit = axi::RFlit{};
    for (std::uint64_t i = 0; i < iters; ++i) {
        if (pool.can_take(worm.flits) && link.can_push(worm)) {
            pool.take(worm.flits);
            link.push(worm);
        }
        if (link.can_pop()) {
            const noc::NocPacket out = link.pop();
            pool.return_credits(out.flits);
        }
        ctx.step();
    }
}

/// `BM_QuantileSketch`: one record into the monitors' HDR sketch.
void sketch_add(std::uint64_t iters) {
    mon::QuantileSketch sketch;
    std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t i = 0; i < iters; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        sketch.record((lcg >> 33) % 100'000);
    }
    keep(sketch.quantile(0.99));
}

/// `BM_ShardBarrier` at link latency 1: one `run(1)` epoch (tick, barrier,
/// edge flush) of a contended 16x16 mesh on four shards and four workers.
struct EpochFixture {
    sim::SimContext ctx;
    std::unique_ptr<scenario::TopologyHandle> topo;
    std::vector<std::unique_ptr<traffic::DmaEngine>> dmas;

    EpochFixture() {
        ctx.set_shards(4);
        ctx.set_shard_workers(4);
        scenario::ScenarioConfig cfg;
        cfg.topology.kind = scenario::TopologyKind::kMesh;
        cfg.topology.mesh.rows = 16;
        cfg.topology.mesh.cols = 16;
        cfg.topology.mesh.nodes = scenario::make_mesh_roles(16, 16, 8, 2);
        topo = scenario::make_topology(ctx, cfg);
        ctx.set_lookahead(topo->lookahead());
        traffic::DmaConfig dcfg;
        dcfg.burst_beats = 64;
        for (std::size_t i = 0; i < topo->num_interference_ports(); ++i) {
            const sim::ShardScope scope{ctx, topo->interference_shard(i)};
            dmas.push_back(std::make_unique<traffic::DmaEngine>(
                ctx, "dma" + std::to_string(i), topo->interference_port(i), dcfg));
            dmas.back()->push_job(
                traffic::DmaJob{0x800 * i, 0x10'0000 + 0x800 * i, 0x4000, true});
        }
    }
};

} // namespace

void emit_primitives(std::ostream& os) {
    emit(os, "sim.link_op_ns", 2'000'000, link_op);
    emit(os, "noc.credit_link_ns", 1'000'000, credit_link);
    emit(os, "mon.sketch_add_ns", 4'000'000, sketch_add);
    EpochFixture fixture;
    fixture.ctx.run(1000); // reach the contended steady state before timing
    emit(os, "sim.epoch_ns", 4'000, [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) { fixture.ctx.run(1); }
    });
}

} // namespace perfbench
