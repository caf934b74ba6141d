/// \file
/// \brief Credit-based flow control for the NoC transport layer: wormhole
///        flit links with per-VC credits, and end-to-end credit pools
///        between injecting and ejecting network interfaces.
///
/// The credited transport *enforces* every buffer bound (the legacy
/// provisioned transport and its assumed 1024-flit staging are gone — the
/// credited numbers are the tracked baseline):
///
///  - **Wormhole worms.** A data-carrying packet (W / R beat) serializes
///    into `flits_per_packet` flits (header + payload sized from the AXI
///    beat width); address/response packets (AW / AR / B) are single-flit
///    headers. A link transmits one flit per cycle, so a worm occupies its
///    link for `flits` cycles — the head-of-line blocking the AXI-REALM RTL
///    work measures on real interconnects, now visible in the DoS matrix.
///  - **Per-VC link credits.** Each link buffers at most `vc_depth` flits
///    per virtual channel at the receiver; `NocLink` asserts the bound on
///    every push. The request and response networks are disjoint physical
///    links; a link carries one VC by default, two under the O1TURN
///    routing policy (one per route class — see noc/routing.hpp).
///  - **End-to-end credits.** An injecting NI may only send a request worm
///    toward subordinate node D while it holds `flits` credits from D's
///    pool; credits return when the target NI's staging drains into the
///    egress mux. Ejection therefore *never* backpressures the network
///    (asserted). Responses use a separate pool per (manager, subordinate)
///    pair, so the request/response split keeps its deadlock-freedom
///    argument. With `credit_return_delay > 0` a returning credit rides
///    the response network for that many cycles instead of materializing
///    at the drain point instantaneously — the pool tracks the pending
///    returns, and conservation (held + in flight == capacity) stays
///    asserted on every transition.
///
/// Sharded execution (see `sim::EdgeFlushable`): links and pools that cross
/// shard boundaries run in *edge-registered* mode — producer-side writes
/// are staged thread-privately during the tick phase and committed at the
/// cycle-edge barrier. Because the registered contract already makes every
/// push visible only at N+1 (and mesh credit returns ride the response
/// network for >= 1 cycle), the commit point is unobservable: results are
/// bit-identical for every shard count, including the single-thread run.
#pragma once

#include "axi/channel.hpp"
#include "noc/packet.hpp"

#include "sim/check.hpp"
#include "sim/context.hpp"
#include "sim/link.hpp"
#include "sim/stamped_queue.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace realm::noc {

/// Flow-control knobs shared by every NoC fabric (ring and mesh).
struct NocFlowConfig {
    /// Flits per data-carrying packet (W / R beat): header + payload flits,
    /// i.e. the AXI beat width over the link phit width. AW / AR / B
    /// packets are single-flit headers.
    std::uint32_t flits_per_packet = 4;
    /// Receiver buffer depth of one link VC, in flits. Must hold at least
    /// one whole worm (`vc_depth >= flits_per_packet`).
    std::uint32_t vc_depth = 8;
    /// End-to-end credit pool per (source node, target NI) pair, in flits.
    /// Bounds the per-source staging occupancy at a subordinate NI (request
    /// pool) and the in-flight responses toward a manager NI (response
    /// pool). Must exceed one worm plus its header
    /// (`e2e_credits >= flits_per_packet + 1`) so an AW parked in staging
    /// can never starve its own data beats.
    std::uint32_t e2e_credits = 32;
    /// Cycles a returning end-to-end credit spends riding the response
    /// network before the injector may reuse it (0 = instantaneous release
    /// at the drain point, the historical behaviour; the mesh forces >= 1
    /// so credit returns are cycle-edge events the sharded kernel can
    /// commit at the barrier). Sharpens the round-trip-limited throughput
    /// numbers without touching any buffer bound: a pending return still
    /// counts as in flight.
    std::uint32_t credit_return_delay = 0;
    /// Uniform pipeline depth of every link, in cycles: a flit pushed at
    /// cycle N becomes poppable at N + link_latency. 1 is the historical
    /// registered contract (push at N, visible at N+1). Values > 1 model
    /// channel registering (AXI-REALM-style pipelined interconnects) and
    /// are the conservative lookahead of the sharded kernel: with every
    /// cross-shard channel carrying >= L cycles of modeled latency, shards
    /// may run L cycles between barriers (the mesh forces
    /// `credit_return_delay >= link_latency` so credit returns carry the
    /// same lookahead).
    std::uint32_t link_latency = 1;

    /// Flit count of a request/response packet under this config.
    [[nodiscard]] std::uint32_t packet_flits(bool data_carrying) const noexcept {
        return data_carrying ? flits_per_packet : 1;
    }

    void validate() const;
};

/// One end-to-end credit pool: a counted reservation of `capacity` flits of
/// buffer space at a receiving NI. `in_flight + available == capacity` is
/// asserted on every transition, so a leak or double-release trips
/// immediately instead of showing up as a hung sweep hours later.
///
/// How drained flits come back is the pool's return policy, fixed once by
/// `configure_return` (the fabric's `CreditBook` does it for every pool):
/// immediately, or after `delay` cycles riding the response network. A
/// delayed return waits in a `sim::StampedQueue` stamped with its ready
/// cycle until `settle(now)` matures it. In an edge-registered pool
/// (sharded mesh) the returning shard stages the return into that queue,
/// and the kernel commits it at the cycle edge via `flush_edge`. The
/// taker's `settle`/`take` run on the consuming shard and never touch
/// staged state, so the tick phase is race-free.
class CreditPool : public sim::EdgeFlushable {
public:
    /// Conservation bounds the pending queue: every pending return holds
    /// >= 1 flit and pending + staged <= in flight <= capacity, so
    /// `capacity` entries always suffice and the queue never allocates after
    /// construction.
    explicit CreditPool(std::uint32_t capacity = 0)
        : capacity_{capacity}, available_{capacity}, pending_{capacity} {}

    [[nodiscard]] bool can_take(std::uint32_t flits) const noexcept {
        return available_ >= flits;
    }
    void take(std::uint32_t flits) {
        REALM_EXPECTS(can_take(flits), "credit take without available credits");
        available_ -= flits;
    }
    /// Immediate release: the flits are reusable now.
    void release(std::uint32_t flits) {
        check_returnable(flits);
        available_ += flits;
        pending_.notify();
    }
    /// Matures every pending return whose ready cycle has arrived. Delays
    /// are uniform per pool and returns queue in release order, so ready
    /// cycles are monotone and the head is always the earliest.
    void settle(sim::Cycle now) {
        while (pending_.can_pop(now)) {
            const std::uint32_t flits = pending_.pop();
            available_ += flits;
            pending_total_ -= flits;
        }
    }

    /// \name Return policy (the drain hook of the staging links)
    ///@{
    /// Fixes how returned flits come back to this pool: immediately
    /// (`delay == 0`), or after `delay` cycles on the response network —
    /// staged for the cycle-edge commit when `edge_registered` (mesh
    /// fabrics, whose returning and taking NIs may tick on different
    /// shards; requires `delay >= 1`). `ctx` must outlive the pool.
    void configure_return(const sim::SimContext& ctx, std::uint32_t delay,
                          bool edge_registered) {
        REALM_EXPECTS(!edge_registered || delay >= 1,
                      "edge-registered credit returns need a delay >= 1");
        return_ctx_ = &ctx;
        return_delay_ = delay;
        return_edge_ = edge_registered;
    }
    /// Returns `flits` credits under the configured policy.
    void return_credits(std::uint32_t flits) {
        REALM_EXPECTS(return_ctx_ != nullptr,
                      "credit return without a configured policy");
        if (return_delay_ == 0) {
            release(flits);
            return;
        }
        const sim::Cycle ready_at = return_ctx_->now() + return_delay_;
        if (return_edge_) {
            staged_total_ += flits;
            if (pending_.stage(flits, ready_at)) { return_ctx_->note_edge_dirty(*this); }
            return;
        }
        check_returnable(flits);
        pending_.push(flits, ready_at);
        pending_total_ += flits;
    }
    /// `sim::PopHook`-shaped trampoline: `user` is the pool, `arg` the flit
    /// count of the drained packet.
    static void return_hook(void* pool, std::uint32_t flits) {
        static_cast<CreditPool*>(pool)->return_credits(flits);
    }
    /// Commits staged returns (kernel barrier; single-threaded — which is
    /// what makes waking a taker on another shard safe here).
    void flush_edge(sim::Cycle /*now*/) override {
        check_returnable(staged_total_);
        pending_total_ += staged_total_;
        staged_total_ = 0;
        pending_.commit();
    }
    ///@}

    /// \name Credit wait (activity-aware kernel)
    ///@{
    /// Registers `taker` — the NI component whose head worm found too few
    /// credits here — to be woken once by the next return, and returns the
    /// ready cycle of the earliest committed pending return (`kNoCycle`
    /// when none is pending): no `settle` before it can raise `available()`.
    /// A return committed later wakes the taker at its ready cycle (an
    /// immediate one at once), after which the taker re-registers if it is
    /// still short. One NI takes from any pool, so a single slot suffices.
    [[nodiscard]] sim::Cycle wait_for_credits(sim::Component& taker) noexcept {
        return pending_.wait(taker);
    }
    ///@}

    [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::uint32_t available() const noexcept { return available_; }
    /// Credits not reusable by the injector: taken by in-network/staged
    /// worms *plus* pending returns still riding the response network.
    [[nodiscard]] std::uint32_t in_flight() const noexcept {
        return capacity_ - available_;
    }
    /// The pending-return share of `in_flight()`.
    [[nodiscard]] std::uint32_t pending_returns() const noexcept {
        return pending_total_;
    }

    /// Conservation invariant: credits in flight + credits held equal the
    /// configured pool, and pending returns never exceed what is in flight.
    /// Structurally true of the counters; asserting it (rather than
    /// sampling) documents and pins the contract.
    void check_conserved() const {
        REALM_ENSURES(available_ <= capacity_, "credit pool over-released");
        REALM_ENSURES(in_flight() + available_ == capacity_,
                      "credit conservation violated");
        REALM_ENSURES(pending_total_ <= in_flight(),
                      "pending credit returns exceed in-flight credits");
    }

private:
    /// A return may only hand back credits held by worms: in flight minus
    /// what is already on its way back.
    void check_returnable(std::uint32_t flits) const {
        REALM_ENSURES(flits <= in_flight() - pending_total_,
                      "credit release exceeds in-flight credits");
    }

    std::uint32_t capacity_ = 0;
    std::uint32_t available_ = 0;
    std::uint32_t pending_total_ = 0;
    /// Flits staged since the last edge (returning shard only).
    std::uint32_t staged_total_ = 0;
    /// Pending returns, stamped with their ready cycle. Its consumer is the
    /// taker asleep on this pool (see `wait_for_credits`), registered by the
    /// taker's tick and woken by returns, which never run concurrently:
    /// edge-registered pools commit at the barrier, and the others belong
    /// to unsharded fabrics.
    sim::StampedQueue<std::uint32_t> pending_;
    /// Return policy (see `configure_return`); unset until configured.
    const sim::SimContext* return_ctx_ = nullptr;
    std::uint32_t return_delay_ = 0;
    bool return_edge_ = false;
};

/// Every end-to-end pool of one fabric: request pools indexed by
/// (target subordinate node, source manager node) and response pools by
/// (target manager node, source subordinate node). Kept separate so the
/// request/response protocol split stays deadlock-free under credit
/// exhaustion.
///
/// The book fixes the fabric's credit-return policy: every pool it
/// materializes returns credits after `fc.credit_return_delay` cycles,
/// staged for the cycle edge when `edge_registered` (see
/// `CreditPool::configure_return`).
///
/// Pools materialize lazily: a 32x32 mesh would otherwise eagerly build
/// 2 x 1024^2 pools, of which the role map ever touches a few thousand
/// (managers x memories). `unordered_map` is node-based, so references
/// handed to the staging links' drain hooks stay valid forever.
///
/// Sharded fabrics must `freeze()` the book after materializing every pool
/// their tick phase can touch (the mesh constructor touches req pools via
/// `wire_credit_returns` and rsp pools explicitly): `pool()` inserts into a
/// map shared by all shards, so lazy materialization from concurrent ticks
/// would be a data race. After `freeze()`, looking up a pool that was never
/// materialized asserts instead of inserting.
class CreditBook {
public:
    CreditBook(const sim::SimContext& ctx, NodeId num_nodes, const NocFlowConfig& fc,
               bool edge_registered)
        : ctx_{&ctx}, n_{num_nodes}, credits_{fc.e2e_credits},
          return_delay_{fc.credit_return_delay}, edge_{edge_registered} {}

    [[nodiscard]] CreditPool& req(NodeId dest, NodeId src) const {
        return pool(req_, dest, src);
    }
    [[nodiscard]] CreditPool& rsp(NodeId dest, NodeId src) const {
        return pool(rsp_, dest, src);
    }

    [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }

    /// Forbids materializing further pools: every later `req`/`rsp` call
    /// must hit an existing pool (asserted). Called once the single-threaded
    /// construction phase has touched every pool the fabric can reach, so
    /// the parallel tick phase never mutates the shared maps.
    void freeze() noexcept { frozen_ = true; }
    [[nodiscard]] bool frozen() const noexcept { return frozen_; }
    /// Number of materialized pools (tests assert a frozen book stops
    /// growing — the map must never mutate during the parallel tick phase).
    [[nodiscard]] std::size_t materialized() const noexcept {
        return req_.size() + rsp_.size();
    }

    /// Asserts conservation on every (materialized) pool.
    void check_conserved() const {
        for (const auto& [key, p] : req_) { p.check_conserved(); }
        for (const auto& [key, p] : rsp_) { p.check_conserved(); }
    }

private:
    using PoolMap = std::unordered_map<std::uint32_t, CreditPool>;

    [[nodiscard]] CreditPool& pool(PoolMap& m, NodeId dest, NodeId src) const {
        REALM_EXPECTS(dest < n_ && src < n_, "credit pool index out of range");
        const std::uint32_t key =
            (static_cast<std::uint32_t>(dest) << 16) | src;
        if (frozen_) {
            const auto it = m.find(key);
            REALM_EXPECTS(it != m.end(),
                          "credit pool lookup after freeze for a pool never "
                          "materialized during construction");
            return it->second;
        }
        const auto [it, inserted] = m.try_emplace(key, credits_);
        if (inserted) { it->second.configure_return(*ctx_, return_delay_, edge_); }
        return it->second;
    }

    const sim::SimContext* ctx_;
    NodeId n_;
    std::uint32_t credits_;
    std::uint32_t return_delay_;
    bool edge_;
    bool frozen_ = false;
    /// Mutable: materializing an untouched pool is unobservable (it is
    /// born full), so const callers may trigger it.
    mutable PoolMap req_;
    mutable PoolMap rsp_;
};

/// One NoC link: a physical wormhole channel carrying `num_vcs` virtual
/// channels. The channel transmits one flit per cycle (a worm of `n` flits
/// occupies it for `n` cycles — wormhole serialization; the header still
/// forwards with the usual one-cycle hop latency) and each VC buffers at
/// most `vc_depth` flits at the receiver, asserted on every push. A packet
/// rides the VC named by its route class (`NocPacket::vc`); VCs hold
/// private buffers, so a blocked worm in one class never holds buffer
/// space another class waits on — the O1TURN deadlock-freedom requirement
/// (see noc/routing.hpp).
///
/// Storage: the VCs are the lanes of one `sim::StampedQueue` — `vc_depth`
/// slots per VC in one block allocated at construction, every packet
/// stamped with the cycle it becomes poppable (push cycle + link_latency).
/// The whole in-flight state of a router port is one cache-friendly block;
/// the link itself keeps only the serialization window and the per-VC flit
/// counts.
///
/// Modes:
///  - **Immediate** (default; ring fabric, standalone links): `push`
///    commits into the queue at once. Capacity checks see pops the moment
///    they happen — including same-cycle pops by consumers that ticked
///    earlier, which is why immediate links must never cross shards.
///  - **Edge-registered** (`edge_registered = true`; every mesh link):
///    `push` stages into the queue, the kernel commits at the cycle-edge
///    barrier (`flush_edge`), and the producer's capacity view is a flit
///    snapshot refreshed at the same barrier plus its own staged flits.
///    The stamp is taken at staging, so visibility (at N + link_latency)
///    is exactly the pipelined registered contract however late the
///    barrier commits; what changes is that a pop at cycle N frees
///    sender-visible space at the next barrier instead of same-cycle —
///    deterministic and order-independent, hence safe under any shard
///    layout (the flit exchange of the sharded kernel), at the cost of a
///    barrier period of capacity-return latency.
class NocLink : public sim::EdgeFlushable {
public:
    NocLink(const sim::SimContext& ctx, std::string name, const NocFlowConfig& fc,
            std::uint8_t num_vcs = 1, bool edge_registered = false)
        : ctx_{&ctx}, fc_{fc}, name_{std::move(name)}, edge_{edge_registered},
          lanes_{fc.vc_depth, num_vcs}, vc_(num_vcs) {}

    /// True when a packet of `flits` (>= 1) flits may start transmission on
    /// VC `vc` this cycle: the physical channel is not serializing an
    /// earlier worm and that VC holds enough free flit slots at the
    /// receiver (in edge mode, as of the last cycle edge). Every packet
    /// holds at least one flit, so the flit bound also bounds the packets.
    [[nodiscard]] bool can_push(std::uint32_t flits, std::uint8_t vc = 0) const {
        return ctx_->now() >= busy_until_ && buffered_flits(vc) + flits <= fc_.vc_depth;
    }
    [[nodiscard]] bool can_push(const NocPacket& pkt) const {
        return can_push(pkt.flits, pkt.vc);
    }

    void push(NocPacket pkt);

    [[nodiscard]] bool can_pop(std::uint8_t vc = 0) const {
        return lanes_.can_pop(ctx_->now(), vc);
    }
    [[nodiscard]] const NocPacket& front(std::uint8_t vc = 0) const {
        REALM_EXPECTS(can_pop(vc), "front of empty NoC link " + name_);
        return lanes_.front(vc);
    }
    NocPacket pop(std::uint8_t vc = 0);

    /// Consumer view: no committed packets on any VC (staged pushes are
    /// covered by the flush-time wake, so a consumer may sleep on this).
    [[nodiscard]] bool empty() const noexcept { return lanes_.empty(); }
    void set_wake_on_push(sim::Component* c) noexcept { lanes_.set_consumer(c); }

    /// Commits staged pushes (waking the consumer at the earliest cycle one
    /// becomes poppable) and refreshes the producer's capacity snapshot
    /// (kernel barrier; single-threaded).
    void flush_edge(sim::Cycle now) override;

    /// \name Introspection (routing adaptivity, tests, benches)
    ///@{
    [[nodiscard]] std::uint8_t num_vcs() const noexcept {
        return static_cast<std::uint8_t>(vc_.size());
    }
    /// Producer-side occupancy: committed + own staged flits in edge mode
    /// (deterministic under any shard layout — never reads state another
    /// shard is mutating), live occupancy otherwise. The west-first
    /// adaptivity tie-break reads this.
    [[nodiscard]] std::uint32_t buffered_flits(std::uint8_t vc = 0) const {
        const VcState& s = vc_.at(vc);
        return edge_ ? s.snap_flits + s.staged_flits : s.flits;
    }
    [[nodiscard]] std::uint32_t peak_buffered_flits(std::uint8_t vc = 0) const {
        return vc_.at(vc).peak;
    }
    [[nodiscard]] const NocFlowConfig& flow() const noexcept { return fc_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    ///@}

    /// Asserts the per-VC occupancy bound (tests call this every cycle;
    /// pushes already enforce it inline).
    void check_bounded() const {
        for (const VcState& s : vc_) {
            REALM_ENSURES(s.flits + s.staged_flits <= fc_.vc_depth,
                          name_ + ": VC buffer exceeds its configured depth");
        }
    }

private:
    /// Per-VC flit counts. `flits` is live (consumer + flush); `snap_flits`
    /// is the producer's edge snapshot; `staged_flits` counts the
    /// producer's uncommitted pushes.
    struct VcState {
        std::uint32_t flits = 0;
        std::uint32_t peak = 0;
        std::uint32_t snap_flits = 0;
        std::uint32_t staged_flits = 0;
    };

    /// Adds committed flits to a VC, asserting its depth.
    void add_flits(VcState& s, std::uint32_t flits);

    const sim::SimContext* ctx_;
    NocFlowConfig fc_;
    std::string name_;
    bool edge_;
    /// Edge mode: pops since the last flush. Consumer-owned during the tick
    /// phase (cleared at the barrier); the producer must never read it.
    bool pop_dirty_ = false;
    sim::Cycle busy_until_ = 0;
    sim::StampedQueue<NocPacket> lanes_; ///< one lane per VC
    std::vector<VcState> vc_;
};

/// \name Staging helpers shared by the ring and mesh assemblies
///@{
/// Entries per staging lane: the end-to-end pool bounds staging at
/// `e2e_credits` single-flit entries per lane.
[[nodiscard]] std::size_t staging_depth(const NocFlowConfig& fc);

/// Wires the end-to-end credit returns of one per-source staging channel:
/// the pool's flits come back, under the pool's return policy, as the
/// egress mux drains the lanes.
void wire_credit_returns(axi::AxiChannel& egress, CreditPool& pool,
                         const NocFlowConfig& fc);

/// Flits currently staged in one per-source egress channel's request lanes,
/// weighted by worm length (a staged W beat holds its whole worm's buffer
/// space). Used by the fabric invariant checkers.
[[nodiscard]] std::uint32_t staged_request_flits(const axi::AxiChannel& egress,
                                                 const NocFlowConfig& fc);

/// Asserts one (target NI, source) staging against its end-to-end pool:
/// staged flits (lane occupancy plus the NI's reorder stash, see `NocNi`)
/// within the configured pool, and never more than the credits actually in
/// flight (a credit is either staged at the NI, stashed for reordering, or
/// still in the network). Shared by the ring and mesh
/// `check_flow_invariants`.
void check_staging_invariants(const axi::AxiChannel& egress, const CreditPool& pool,
                              const NocFlowConfig& fc,
                              std::uint32_t stashed_flits = 0);
///@}

} // namespace realm::noc
