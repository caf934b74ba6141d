/// Integration tests for the composed REALM unit sitting between a manager
/// and a memory subordinate.
#include "axi/builder.hpp"
#include "axi/checker.hpp"
#include "mem/axi_mem_slave.hpp"
#include "realm/realm_unit.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

namespace realm::rt {
namespace {

using test::collect_b;
using test::collect_read_burst;
using test::push_write_burst;
using test::step_until;

/// Manager -> [REALM] -> checker -> memory. The checker downstream of the
/// unit both validates protocol legality of the unit's output and exposes
/// how many child bursts actually reached the memory side.
class RealmFixture : public ::testing::Test {
protected:
    explicit RealmFixture(RealmUnitConfig cfg = {}) {
        slave = std::make_unique<mem::AxiMemSlave>(
            ctx, "mem", mem_ch, std::make_unique<mem::SramBackend>(1, 1),
            mem::AxiMemSlaveConfig{16, 16, 0});
        checker = std::make_unique<axi::AxiChecker>(ctx, "chk", down, mem_ch, true);
        unit = std::make_unique<RealmUnit>(ctx, "realm", up, down, cfg);
    }

    sim::SimContext ctx;
    axi::AxiChannel up{ctx, "up"};
    axi::AxiChannel down{ctx, "down", 2, /*resp_passthrough=*/true};
    axi::AxiChannel mem_ch{ctx, "mem"};
    std::unique_ptr<mem::AxiMemSlave> slave;
    std::unique_ptr<axi::AxiChecker> checker;
    std::unique_ptr<RealmUnit> unit;
};

RegionConfig region(axi::Addr start, axi::Addr end, std::uint64_t budget,
                    sim::Cycle period) {
    RegionConfig r;
    r.start = start;
    r.end = end;
    r.budget_bytes = budget;
    r.period_cycles = period;
    return r;
}

TEST_F(RealmFixture, ReadPassesThroughUnregulated) {
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(1, 0x100, 4, 3));
    const axi::RFlit last = collect_read_burst(ctx, up, 4);
    EXPECT_EQ(last.id, 1U);
    EXPECT_EQ(checker->completed_reads(), 1U);
    EXPECT_EQ(unit->reads_accepted(), 1U);
}

TEST_F(RealmFixture, WriteRoundTripWithData) {
    push_write_burst(ctx, up, 2, 0x200, 4, 8, 0x30);
    const axi::BFlit b = collect_b(ctx, up);
    EXPECT_EQ(b.id, 2U);
    EXPECT_EQ(b.resp, axi::Resp::kOkay);
    // Data must have reached the memory (pattern fill + beat + lane).
    EXPECT_EQ(static_cast<mem::SramBackend&>(slave->backend()).store().read_u8(0x200), 0x30);
}

class RealmFrag4 : public RealmFixture {
protected:
    RealmFrag4()
        : RealmFixture([] {
              RealmUnitConfig c;
              c.fragment_beats = 4;
              c.write_buffer_depth = 16;
              return c;
          }()) {}
};

TEST_F(RealmFrag4, ReadFragmentsDownstreamSingleUpstreamCompletion) {
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(1, 0x0, 16, 3));
    const axi::RFlit last = collect_read_burst(ctx, up, 16);
    EXPECT_TRUE(last.last);
    EXPECT_EQ(checker->completed_reads(), 4U) << "16 beats at granularity 4 = 4 children";
    EXPECT_EQ(unit->splitter().fragments_created(), 4U);
}

TEST_F(RealmFrag4, WriteFragmentsAndCoalescesResponse) {
    push_write_burst(ctx, up, 1, 0x0, 16, 8, 0x40);
    const axi::BFlit b = collect_b(ctx, up);
    EXPECT_EQ(b.resp, axi::Resp::kOkay);
    EXPECT_EQ(checker->completed_writes(), 4U) << "4 child writes downstream";
    // All 16 beats must have landed contiguously.
    auto& store = static_cast<mem::SramBackend&>(slave->backend()).store();
    EXPECT_EQ(store.read_u8(0x0), 0x40);
    EXPECT_EQ(store.read_u8(15 * 8), 0x40 + 15);
}

TEST_F(RealmFixture, ExactlyOneCycleRequestOverhead) {
    // Reference: identical topology without the REALM unit.
    sim::SimContext ref_ctx;
    axi::AxiChannel ref_down{ref_ctx, "down"};
    axi::AxiChannel ref_mem{ref_ctx, "mem"};
    mem::AxiMemSlave ref_slave{ref_ctx, "mem", ref_mem,
                               std::make_unique<mem::SramBackend>(1, 1),
                               mem::AxiMemSlaveConfig{16, 16, 0}};
    axi::AxiChecker ref_checker{ref_ctx, "chk", ref_down, ref_mem, true};

    const auto measure = [](sim::SimContext& c, axi::AxiChannel& port) {
        axi::ManagerView mgr{port};
        const sim::Cycle t0 = c.now();
        mgr.send_ar(axi::make_ar(1, 0x0, 1, 3));
        while (!mgr.has_r()) { c.step(); }
        (void)mgr.recv_r();
        return c.now() - t0;
    };

    const sim::Cycle with_realm = measure(ctx, up);
    const sim::Cycle without = measure(ref_ctx, ref_down);
    EXPECT_EQ(with_realm, without + 1)
        << "the REALM unit must add exactly one cycle (paper Section III)";
}

TEST_F(RealmFixture, BudgetDepletionIsolatesUntilPeriod) {
    unit->set_region(0, region(0x0, 0x100000, /*budget=*/64, /*period=*/200));
    axi::ManagerView mgr{up};
    // First read (64 B) consumes the whole budget.
    mgr.send_ar(axi::make_ar(1, 0x0, 8, 3));
    (void)collect_read_burst(ctx, up, 8);
    EXPECT_EQ(unit->state(), RealmState::kIsolatedBudget);

    // Second read must be stalled until the period replenishes.
    const sim::Cycle t0 = ctx.now();
    mgr.send_ar(axi::make_ar(1, 0x80, 1, 3));
    (void)collect_read_burst(ctx, up, 1);
    EXPECT_GT(ctx.now() - t0, 100U) << "read must wait for budget replenishment";
    EXPECT_GT(unit->isolation_stalls(), 0U);
    EXPECT_GT(unit->isolation_cycles(), 0U);
}

TEST_F(RealmFixture, ThroughputLimitedToBudgetPerPeriod) {
    // Budget 64 B per 100-cycle period => max 0.64 B/cycle long-run.
    unit->set_region(0, region(0x0, 0x100000, 64, 100));
    axi::ManagerView mgr{up};
    std::uint64_t bytes_done = 0;
    const sim::Cycle horizon = 2000;
    while (ctx.now() < horizon) {
        if (mgr.can_send_ar()) { mgr.send_ar(axi::make_ar(1, bytes_done % 0x1000, 1, 3)); }
        if (mgr.has_r()) {
            (void)mgr.recv_r();
            bytes_done += 8;
        }
        ctx.step();
    }
    const double bw = static_cast<double>(bytes_done) / static_cast<double>(horizon);
    EXPECT_LE(bw, 0.70) << "regulated bandwidth must respect budget/period";
    EXPECT_GE(bw, 0.40) << "regulation must not starve the manager either";
}

TEST_F(RealmFixture, UserIsolationDrainsOutstandingFirst) {
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(1, 0x0, 32, 3)); // long burst in flight
    ctx.run(6);
    unit->set_user_isolation(true);
    EXPECT_EQ(unit->state(), RealmState::kDraining);
    (void)collect_read_burst(ctx, up, 32); // outstanding completes
    ctx.run(2);
    EXPECT_EQ(unit->state(), RealmState::kIsolatedUser);
    EXPECT_TRUE(unit->fully_isolated());

    // New transaction is blocked while isolated.
    mgr.send_ar(axi::make_ar(1, 0x40, 1, 3));
    ctx.run(50);
    EXPECT_FALSE(mgr.has_r());
    unit->set_user_isolation(false);
    (void)collect_read_burst(ctx, up, 1);
}

TEST_F(RealmFixture, WriteBufferHoldsAwWhileManagerStalls) {
    // The manager issues AW but delays the data: downstream must see no AW,
    // so the interconnect's W channel is never reserved (DoS prevention).
    axi::ManagerView mgr{up};
    mgr.send_aw(axi::make_aw(1, 0x0, 4, 3));
    ctx.run(30);
    EXPECT_EQ(mem_ch.aw.total_pushed(), 0U)
        << "AW must be withheld until the data is buffered";
    // Data arrives; the write then completes normally.
    for (int i = 0; i < 4; ++i) {
        step_until(ctx, [&] { return mgr.can_send_w(); });
        axi::WFlit w;
        w.last = i == 3;
        mgr.send_w(w);
    }
    (void)collect_b(ctx, up);
    EXPECT_EQ(checker->completed_writes(), 1U);
}

TEST_F(RealmFixture, IntrusiveReconfigDrainsThenApplies) {
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(1, 0x0, 32, 3));
    ctx.run(4);
    EXPECT_FALSE(unit->set_fragmentation(2)) << "busy: must defer";
    EXPECT_EQ(unit->state(), RealmState::kDraining);
    (void)collect_read_burst(ctx, up, 32);
    ctx.run(3); // drain + apply
    EXPECT_EQ(unit->fragmentation(), 2U);
    EXPECT_EQ(unit->state(), RealmState::kReady);
    // And the new granularity takes effect.
    mgr.send_ar(axi::make_ar(1, 0x0, 8, 3));
    (void)collect_read_burst(ctx, up, 8);
    EXPECT_EQ(unit->splitter().fragments_created(), 4U);
}

TEST_F(RealmFixture, BypassModeForwardsUnmodified) {
    ASSERT_TRUE(unit->set_enabled(false));
    EXPECT_EQ(unit->state(), RealmState::kBypass);
    axi::ManagerView mgr{up};
    // A WRAP burst (never fragmentable) round-trips untouched.
    axi::ArFlit ar = axi::make_ar(1, 0x100, 4, 3);
    ar.burst = axi::Burst::kWrap;
    mgr.send_ar(ar);
    (void)collect_read_burst(ctx, up, 4);
    EXPECT_EQ(unit->reads_accepted(), 0U) << "bypass does not account traffic";
}

TEST_F(RealmFixture, MrLatencyStatisticsPopulated) {
    unit->set_region(0, region(0x0, 0x100000, 0, 0)); // monitor-only region
    axi::ManagerView mgr{up};
    mgr.send_ar(axi::make_ar(1, 0x0, 4, 3));
    (void)collect_read_burst(ctx, up, 4);
    push_write_burst(ctx, up, 1, 0x40, 2, 8);
    (void)collect_b(ctx, up);
    const RegionState& r0 = unit->mr().region(0);
    EXPECT_EQ(r0.read_latency.count(), 1U);
    EXPECT_EQ(r0.write_latency.count(), 1U);
    EXPECT_GT(r0.read_latency.mean(), 3.0);
    EXPECT_EQ(r0.bytes_total, 4 * 8U + 2 * 8U);
}

TEST_F(RealmFixture, ThrottleLimitsOutstanding) {
    RealmUnitConfig cfg;
    cfg.throttle_enabled = true;
    sim::SimContext c2;
    axi::AxiChannel up2{c2, "up"};
    axi::AxiChannel down2{c2, "down", 2, true};
    axi::AxiChannel mem2{c2, "mem"};
    mem::AxiMemSlave slave2{c2, "mem", mem2, std::make_unique<mem::SramBackend>(30, 30),
                            mem::AxiMemSlaveConfig{16, 16, 0}};
    axi::AxiChecker chk2{c2, "chk", down2, mem2, true};
    RealmUnit unit2{c2, "realm", up2, down2, cfg};
    unit2.set_region(0, region(0x0, 0x100000, 1000, 10000));

    axi::ManagerView mgr{up2};
    // Burn most of the budget, then observe the outstanding cap shrink.
    std::uint64_t sent = 0;
    for (int i = 0; i < 2000 && sent < 900; ++i) {
        if (mgr.can_send_ar()) {
            mgr.send_ar(axi::make_ar(1, sent, 1, 3));
            sent += 8;
        }
        if (mgr.has_r()) { (void)mgr.recv_r(); }
        c2.step();
    }
    EXPECT_LT(unit2.mr().allowed_outstanding(8), 3U);
    EXPECT_GT(unit2.throttle_stalls(), 0U);
}

} // namespace
} // namespace realm::rt
