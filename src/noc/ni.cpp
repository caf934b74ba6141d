#include "noc/ni.hpp"

#include "sim/check.hpp"

namespace realm::noc {

void NocNi::reset() {
    w_dest_.clear();
    w_beats_left_.clear();
    w_in_flight_.clear();
    r_in_flight_.clear();
    rsp_rr_ = 0;
    credit_blocked_ = nullptr;
    std::fill(req_seq_.begin(), req_seq_.end(), 0);
    std::fill(rsp_seq_.begin(), rsp_seq_.end(), 0);
    for (Reorder* ro : {&req_reorder_, &rsp_reorder_}) {
        std::fill(ro->expected.begin(), ro->expected.end(), 0);
        ro->stash.clear();
    }
    arena_.clear(); // every stash index was just dropped
    rsp_stash_srcs_.clear();
}

void NocNi::update_rsp_stash_index(NodeId src) {
    const bool nonempty = rsp_reorder_.has_stashed(src);
    const auto it =
        std::lower_bound(rsp_stash_srcs_.begin(), rsp_stash_srcs_.end(), src);
    const bool present = it != rsp_stash_srcs_.end() && *it == src;
    if (nonempty && !present) {
        rsp_stash_srcs_.insert(it, src);
    } else if (!nonempty && present) {
        rsp_stash_srcs_.erase(it);
    }
}

void NocNi::deliver_request(const NocPacket& pkt, axi::AxiChannel& ch) {
    // The injector held credits for this flit, so the staging space exists
    // by construction; a full lane here is a credit leak.
    if (const auto* aw = std::get_if<axi::AwFlit>(&pkt.flit)) {
        REALM_ENSURES(ch.aw.can_push(),
                      owner_ + ": credited request ejection backpressured");
        ch.aw.push(*aw);
        return;
    }
    if (const auto* w = std::get_if<axi::WFlit>(&pkt.flit)) {
        REALM_ENSURES(ch.w.can_push(),
                      owner_ + ": credited request ejection backpressured");
        ch.w.push(*w);
        return;
    }
    const auto* ar = std::get_if<axi::ArFlit>(&pkt.flit);
    REALM_EXPECTS(ar != nullptr, owner_ + ": malformed request packet");
    REALM_ENSURES(ch.ar.can_push(),
                  owner_ + ": credited request ejection backpressured");
    ch.ar.push(*ar);
}

bool NocNi::try_eject_request(const NocPacket& pkt,
                              const std::vector<axi::AxiChannel*>& egress) {
    REALM_EXPECTS(pkt.src < egress.size() && egress[pkt.src] != nullptr,
                  owner_ + ": request ejected at a node without a subordinate");
    axi::AxiChannel& ch = *egress[pkt.src];
    std::uint16_t& expected = req_reorder_.expected[pkt.src];
    if (pkt.seq != expected) {
        // Early arrival on a faster path: hold it (its credits stay in
        // flight) until the injection-order predecessors catch up.
        const bool inserted = req_reorder_.stash_insert(arena_, pkt.src, pkt.seq, pkt);
        REALM_ENSURES(inserted, owner_ + ": duplicate request sequence number");
        return true;
    }
    deliver_request(pkt, ch);
    ++expected;
    // Close any gap the stash already covers, in injection order
    // (request delivery never backpressures, so this drains fully).
    drain_stash(arena_, req_reorder_, pkt.src, [&](const NocPacket& p) {
        deliver_request(p, ch);
        return true;
    });
    return true;
}

bool NocNi::deliver_response(const NocPacket& pkt, axi::AxiChannel& mgr) {
    if (const auto* b = std::get_if<axi::BFlit>(&pkt.flit)) {
        if (!mgr.b.can_push()) { return false; }
        if (InFlight* fl = find_in_flight_mut(w_in_flight_, b->id);
            fl != nullptr && fl->count > 0) {
            --fl->count;
        }
        mgr.b.push(*b);
    } else {
        const auto* r = std::get_if<axi::RFlit>(&pkt.flit);
        REALM_EXPECTS(r != nullptr, owner_ + ": malformed response packet");
        if (!mgr.r.can_push()) { return false; }
        if (r->last) {
            if (InFlight* fl = find_in_flight_mut(r_in_flight_, r->id);
                fl != nullptr && fl->count > 0) {
                --fl->count;
            }
        }
        mgr.r.push(*r);
    }
    // The response credits stay in flight until the delivery into the
    // manager channel actually happens (which may lag the arrival when the
    // packet sat in the reorder stash).
    book_->rsp(pkt.dest, pkt.src).return_credits(pkt.flits);
    return true;
}

void NocNi::drain_response_stash(axi::AxiChannel* local_mgr) {
    if (local_mgr == nullptr || rsp_stash_srcs_.empty()) { return; }
    // Iterate a snapshot (ascending source): draining rewrites the index.
    const std::vector<NodeId> srcs = rsp_stash_srcs_;
    for (const NodeId src : srcs) {
        drain_stash(arena_, rsp_reorder_, src, [&](const NocPacket& p) {
            return deliver_response(p, *local_mgr);
        });
        update_rsp_stash_index(src);
    }
}

bool NocNi::try_eject_response(const NocPacket& pkt, axi::AxiChannel* local_mgr) {
    REALM_EXPECTS(local_mgr != nullptr,
                  owner_ + ": response ejected at a node without a manager");
    std::uint16_t& expected = rsp_reorder_.expected[pkt.src];
    if (pkt.seq != expected) {
        const bool inserted = rsp_reorder_.stash_insert(arena_, pkt.src, pkt.seq, pkt);
        REALM_ENSURES(inserted, owner_ + ": duplicate response sequence number");
        update_rsp_stash_index(pkt.src);
        return true;
    }
    if (!deliver_response(pkt, *local_mgr)) { return false; }
    ++expected;
    drain_stash(arena_, rsp_reorder_, pkt.src, [&](const NocPacket& p) {
        return deliver_response(p, *local_mgr);
    });
    update_rsp_stash_index(pkt.src);
    return true;
}

} // namespace realm::noc
