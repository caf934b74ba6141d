/// Randomized model check of the ring-buffer `sim::Link` and
/// `sim::StampedQueue` against straightforward deque reference models with
/// per-entry cycle stamps. `Link` dropped the stamps (a recent-count pair)
/// and `StampedQueue` stages into its own ring to flatten the hot path;
/// these sweeps pin the observable behaviour to the naive semantics across
/// capacities, timing disciplines, lanes, staging and drain hooks.
#include "sim/context.hpp"
#include "sim/link.hpp"
#include "sim/stamped_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <tuple>
#include <vector>

namespace realm::sim {
namespace {

// --- Link vs a stamped-deque reference ---------------------------------------

/// The pre-flattening semantics, verbatim: a deque of (value, push cycle)
/// pairs where a registered entry is poppable strictly after its push cycle.
struct RefLink {
    struct Entry {
        int value;
        Cycle pushed_at;
    };
    std::deque<Entry> q;
    std::size_t capacity;
    bool registered;

    [[nodiscard]] bool can_push() const { return q.size() < capacity; }
    void push(int v, Cycle now) { q.push_back({v, now}); }
    [[nodiscard]] bool can_pop(Cycle now) const {
        return !q.empty() && (!registered || q.front().pushed_at < now);
    }
    int pop() {
        const int v = q.front().value;
        q.pop_front();
        return v;
    }
    void clear() { q.clear(); }
};

/// Hook log: every fired drain hook records the link's state *at firing
/// time*, proving the hook runs after the entry has left the buffer.
struct HookLog {
    const Link<int>* link = nullptr;
    std::uint32_t expected_arg = 0;
    std::vector<std::pair<std::uint64_t, std::size_t>> fired; // (popped, occ)

    static void on_pop(void* user, std::uint32_t arg) {
        auto* self = static_cast<HookLog*>(user);
        EXPECT_EQ(arg, self->expected_arg);
        self->fired.emplace_back(self->link->total_popped(),
                                 self->link->occupancy());
    }
};

class LinkModelSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, unsigned>> {};

TEST_P(LinkModelSweep, AgreesWithTheStampedDequeModel) {
    const auto [capacity, registered, seed] = GetParam();
    SimContext ctx;
    Link<int> link{ctx, static_cast<std::size_t>(capacity), "dut",
                   registered ? Link<int>::Timing::kRegistered
                              : Link<int>::Timing::kPassthrough};
    RefLink ref{{}, static_cast<std::size_t>(capacity), registered};
    HookLog log;
    log.link = &link;
    log.expected_arg = 7;
    link.set_on_pop(PopHook{&HookLog::on_pop, &log, 7});

    std::mt19937 rng{seed};
    std::uniform_int_distribution<int> action{0, 99};
    int next_value = 0;
    std::uint64_t pops = 0;

    for (int step = 0; step < 2000; ++step) {
        const Cycle now = ctx.now();
        ASSERT_EQ(link.can_push(), ref.can_push()) << "step " << step;
        ASSERT_EQ(link.can_pop(), ref.can_pop(now)) << "step " << step;
        ASSERT_EQ(link.occupancy(), ref.q.size()) << "step " << step;
        if (link.can_pop()) {
            ASSERT_EQ(link.front(), ref.q.front().value) << "step " << step;
        }

        const int a = action(rng);
        if (a < 45) { // push (producers hold flits under backpressure)
            if (link.can_push()) {
                link.push(next_value);
                ref.push(next_value, now);
                ++next_value;
            }
        } else if (a < 85) { // pop
            if (link.can_pop()) {
                const int got = link.pop();
                ASSERT_EQ(got, ref.pop()) << "step " << step;
                ++pops;
                // Hook fired exactly once, after the entry left the ring.
                ASSERT_EQ(log.fired.size(), pops);
                EXPECT_EQ(log.fired.back().first, pops);
                EXPECT_EQ(log.fired.back().second, link.occupancy());
            }
        } else if (a < 97) { // advance the clock
            ctx.step();
        } else { // reset both FIFOs; clear() bypasses the drain hook
            link.clear();
            ref.clear();
            ASSERT_EQ(log.fired.size(), pops);
        }
    }
    EXPECT_EQ(link.total_popped(), pops);
    EXPECT_EQ(link.total_pushed(), static_cast<std::uint64_t>(next_value));
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesTimingsSeeds, LinkModelSweep,
    ::testing::Combine(::testing::Values(1, 2, 5), // inline ring + heap ring
                       ::testing::Bool(),          // registered / passthrough
                       ::testing::Values(0xC0FFEEU, 1U, 20260807U)));

// --- StampedQueue vs a stamped-deque reference --------------------------------

/// Per lane: a deque of committed (value, visible cycle) pairs and a deque
/// of staged ones that a commit appends in staging order.
struct RefStampedQueue {
    struct Entry {
        int value;
        Cycle visible_at;
    };
    std::vector<std::deque<Entry>> committed;
    std::vector<std::deque<Entry>> staged;

    explicit RefStampedQueue(std::size_t lanes) : committed(lanes), staged(lanes) {}

    [[nodiscard]] bool can_pop(std::size_t lane, Cycle now) const {
        return !committed[lane].empty() && committed[lane].front().visible_at <= now;
    }
    Cycle commit() {
        Cycle first = kNoCycle;
        for (std::size_t l = 0; l < staged.size(); ++l) {
            for (const Entry& e : staged[l]) {
                first = std::min(first, e.visible_at);
                committed[l].push_back(e);
            }
            staged[l].clear();
        }
        return first;
    }
};

/// Consumer that records nothing but its wake cycle.
class Sleeper : public Component {
public:
    explicit Sleeper(SimContext& ctx) : Component{ctx, "sleeper"} {}
    void tick() override { idle_forever(); }
};

class StampedQueueModelSweep
    : public ::testing::TestWithParam<std::tuple<bool, unsigned>> {};

TEST_P(StampedQueueModelSweep, AgreesWithTheStampedDequeModel) {
    const auto [staged_use, seed] = GetParam();
    constexpr std::size_t kCap = 5;
    constexpr std::size_t kLanes = 2;
    SimContext ctx;
    Sleeper consumer{ctx};
    StampedQueue<int> dut{kCap, kLanes};
    dut.set_consumer(&consumer);
    RefStampedQueue ref{kLanes};

    std::mt19937 rng{seed};
    std::uniform_int_distribution<int> action{0, 99};
    std::uniform_int_distribution<int> delay{0, 5};
    std::uniform_int_distribution<std::size_t> pick_lane{0, kLanes - 1};
    int next_value = 0;

    for (int step = 0; step < 3000; ++step) {
        const Cycle now = ctx.now();
        for (std::size_t l = 0; l < kLanes; ++l) {
            ASSERT_EQ(dut.can_pop(now, l), ref.can_pop(l, now)) << "step " << step;
            ASSERT_EQ(dut.size(l), ref.committed[l].size()) << "step " << step;
            ASSERT_EQ(dut.staged(l), ref.staged[l].size()) << "step " << step;
            if (!ref.committed[l].empty()) {
                ASSERT_EQ(dut.front(l), ref.committed[l].front().value) << "step " << step;
            }
        }
        ASSERT_EQ(dut.empty(), ref.committed[0].empty() && ref.committed[1].empty());

        const std::size_t lane = pick_lane(rng);
        const int a = action(rng);
        if (a < 40) { // enqueue with a visible delay; completion is in-order
            if (ref.committed[lane].size() + ref.staged[lane].size() < kCap) {
                const Cycle visible = now + static_cast<Cycle>(delay(rng));
                if (staged_use) {
                    const bool first = ref.staged[0].empty() && ref.staged[1].empty();
                    ASSERT_EQ(dut.stage(next_value, visible, lane), first) << "step " << step;
                } else {
                    dut.push(next_value, visible, lane);
                    EXPECT_LE(consumer.wake_cycle(), visible) << "push wakes the consumer";
                }
                auto& ref_lane = (staged_use ? ref.staged : ref.committed)[lane];
                ref_lane.push_back({next_value, visible});
                ++next_value;
            }
        } else if (a < 75) { // pop when the head is visible
            if (dut.can_pop(now, lane)) {
                ASSERT_EQ(dut.pop(lane), ref.committed[lane].front().value) << "step " << step;
                ref.committed[lane].pop_front();
            }
        } else if (a < 85) { // the edge flush; a second one must be a no-op
            const Cycle first = ref.commit();
            ASSERT_EQ(dut.commit(), first) << "step " << step;
            EXPECT_LE(consumer.wake_cycle(), first) << "commit wakes the consumer";
            ASSERT_EQ(dut.commit(), kNoCycle) << "step " << step;
        } else {
            ctx.step();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DirectAndStagedSeeds, StampedQueueModelSweep,
                         ::testing::Combine(::testing::Bool(), // staged / direct
                                            ::testing::Values(0xC0FFEEU, 1U, 20260807U)));

// --- Head-of-line blocking (the one place the models could diverge) ----------

TEST(StampedQueueModel, YoungerVisibleEntriesWaitBehindAnUnreadyHead) {
    SimContext ctx;
    StampedQueue<int> q{4};
    q.push(1, 5);           // head becomes visible late
    q.push(2, ctx.now());   // already visible, but behind the head
    EXPECT_FALSE(q.can_pop(ctx.now()));
    while (ctx.now() < 5) { ctx.step(); }
    ASSERT_TRUE(q.can_pop(ctx.now()));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
}

// --- One-shot waits ----------------------------------------------------------

TEST(StampedQueueModel, WaitReturnsTheHeadAndWakesOnce) {
    SimContext ctx;
    Sleeper taker{ctx};
    ctx.step(); // the sleeper declares itself idle forever
    ASSERT_EQ(taker.wake_cycle(), kNoCycle);
    StampedQueue<int> q{4};
    EXPECT_EQ(q.wait(taker), kNoCycle) << "nothing committed";
    ASSERT_TRUE(q.stage(7, 9));
    EXPECT_EQ(taker.wake_cycle(), kNoCycle) << "a staged entry wakes nobody";
    EXPECT_EQ(q.commit(), 9U);
    EXPECT_EQ(taker.wake_cycle(), 9U) << "the commit wakes the waiter at the stamp";
    EXPECT_EQ(q.wait(taker), 9U) << "wait reports the committed head";
    ctx.run(10); // the taker ticks at cycle 9 and sleeps again
    ASSERT_EQ(taker.wake_cycle(), kNoCycle);
    ASSERT_TRUE(q.stage(8, ctx.now() + 2));
    q.commit();
    EXPECT_EQ(taker.wake_cycle(), ctx.now() + 2);
    ctx.run(3);
    ASSERT_EQ(taker.wake_cycle(), kNoCycle);
    ASSERT_TRUE(q.stage(9, ctx.now() + 2));
    q.commit();
    EXPECT_EQ(taker.wake_cycle(), kNoCycle) << "a wait wakes once";
}

} // namespace
} // namespace realm::sim
