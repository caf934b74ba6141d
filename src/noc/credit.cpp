#include "noc/credit.hpp"

#include <algorithm>
#include <utility>

namespace realm::noc {

void NocFlowConfig::validate() const {
    REALM_EXPECTS(flits_per_packet >= 1, "flits_per_packet must be >= 1");
    // NocPacket::flits is 8-bit; a longer worm would silently truncate at
    // packetization and leak credits at ejection.
    REALM_EXPECTS(flits_per_packet <= 255, "flits_per_packet must fit 8 bits");
    REALM_EXPECTS(vc_depth >= flits_per_packet,
                  "vc_depth must hold at least one whole worm");
    REALM_EXPECTS(e2e_credits >= flits_per_packet + 1,
                  "e2e_credits must exceed one worm plus its header");
    REALM_EXPECTS(link_latency >= 1, "link_latency must be >= 1");
}

void NocLink::add_flits(VcState& s, std::uint32_t flits) {
    s.flits += flits;
    REALM_ENSURES(s.flits <= fc_.vc_depth,
                  name_ + ": VC buffer exceeds its configured depth");
    s.peak = std::max(s.peak, s.flits);
}

void NocLink::push(NocPacket pkt) {
    REALM_EXPECTS(pkt.vc < vc_.size(), "push into unknown VC of " + name_);
    REALM_EXPECTS(pkt.flits >= 1 && can_push(pkt.flits, pkt.vc),
                  "push into busy/full NoC link " + name_);
    // The worm's tail leaves the sender `flits` cycles after the header;
    // the physical channel is busy until then (shared across VCs).
    const sim::Cycle now = ctx_->now();
    busy_until_ = now + pkt.flits;
    const sim::Cycle visible = now + fc_.link_latency;
    VcState& s = vc_[pkt.vc];
    const std::uint8_t vc = pkt.vc;
    if (!edge_) {
        add_flits(s, pkt.flits);
        lanes_.push(std::move(pkt), visible, vc); // wakes the consumer
        return;
    }
    // Edge mode: stage producer-side, stamped now, so visibility stays
    // exactly N + link_latency however late the barrier commits it. The
    // registration guard reads producer-owned state only — a cross-shard
    // consumer's pop may register the link a second time from its own
    // shard, which is harmless because flush_edge is idempotent.
    s.staged_flits += pkt.flits;
    if (lanes_.stage(std::move(pkt), visible, vc)) { ctx_->note_edge_dirty(*this); }
    // Keep the fast-forward hint honest without touching the (possibly
    // cross-shard) consumer: the component wake fires at the flush.
    ctx_->note_wake(visible);
}

NocPacket NocLink::pop(std::uint8_t vc) {
    REALM_EXPECTS(can_pop(vc), "pop from empty NoC link " + name_);
    NocPacket pkt = lanes_.pop(vc);
    VcState& s = vc_[vc];
    REALM_ENSURES(s.flits >= pkt.flits, "NoC link flit underflow");
    s.flits -= pkt.flits;
    if (edge_ && !pop_dirty_) {
        // The producer's capacity snapshot must learn about this pop at the
        // next edge even if nothing gets pushed meanwhile. Guard on
        // consumer-owned state only (`pop_dirty_` is set here and cleared at
        // the barrier) — never read the staging state the producer's push
        // may be writing on another shard. If the producer registered too,
        // the duplicate flush is a no-op (flush_edge is idempotent).
        pop_dirty_ = true;
        ctx_->note_edge_dirty(*this);
    }
    return pkt;
}

// Idempotent within one edge (the link may be registered by both its
// producer and its consumer shard): the second call commits nothing and
// re-takes an unchanged snapshot. The queue wakes the consumer at the
// earliest stamp it commits, never before: with lookahead batching the
// barrier runs every `link_latency` cycles, so an entry staged mid-batch
// matures strictly after this flush.
void NocLink::flush_edge(sim::Cycle /*now*/) {
    lanes_.commit();
    for (VcState& s : vc_) {
        add_flits(s, s.staged_flits);
        s.staged_flits = 0;
        s.snap_flits = s.flits;
    }
    pop_dirty_ = false;
}

std::size_t staging_depth(const NocFlowConfig& fc) { return fc.e2e_credits; }

void wire_credit_returns(axi::AxiChannel& egress, CreditPool& pool,
                         const NocFlowConfig& fc) {
    const std::uint32_t data_flits = fc.packet_flits(/*data_carrying=*/true);
    // The policy lives in the pool; the links carry only {trampoline, pool,
    // flit count} — no allocation, no type erasure (see sim::PopHook).
    egress.aw.set_on_pop({&CreditPool::return_hook, &pool, 1});
    egress.ar.set_on_pop({&CreditPool::return_hook, &pool, 1});
    egress.w.set_on_pop({&CreditPool::return_hook, &pool, data_flits});
}

std::uint32_t staged_request_flits(const axi::AxiChannel& egress,
                                   const NocFlowConfig& fc) {
    const std::uint32_t data_flits = fc.packet_flits(/*data_carrying=*/true);
    return static_cast<std::uint32_t>(egress.aw.occupancy()) +
           static_cast<std::uint32_t>(egress.ar.occupancy()) +
           static_cast<std::uint32_t>(egress.w.occupancy()) * data_flits;
}

void check_staging_invariants(const axi::AxiChannel& egress, const CreditPool& pool,
                              const NocFlowConfig& fc,
                              std::uint32_t stashed_flits) {
    const std::uint32_t staged = staged_request_flits(egress, fc) + stashed_flits;
    REALM_ENSURES(staged <= fc.e2e_credits,
                  "NI staging exceeds its end-to-end credit pool");
    REALM_ENSURES(staged <= pool.in_flight(),
                  "staged flits without matching in-flight credits");
}

} // namespace realm::noc
