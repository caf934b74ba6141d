#include "noc/ring.hpp"

#include "sim/check.hpp"

#include <algorithm>
#include <utility>

namespace realm::noc {

NocRing::NocRing(sim::SimContext& ctx, std::string name, NodeId num_nodes,
                 ic::AddrMap node_map, std::vector<NodeId> subordinate_nodes,
                 NocFlowConfig flow)
    : flow_{flow}, sub_index_(num_nodes, -1) {
    REALM_EXPECTS(num_nodes >= 2, "a ring needs at least two nodes");
    flow_.validate();
    for (const NodeId s : subordinate_nodes) {
        REALM_EXPECTS(s < num_nodes, "subordinate node out of range");
    }
    book_ = std::make_unique<CreditBook>(ctx, num_nodes, flow_, /*edge_registered=*/false);

    // Channels and links first (plain objects, no tick order concerns).
    for (NodeId i = 0; i < num_nodes; ++i) {
        mgr_ports_.push_back(std::make_unique<axi::AxiChannel>(
            ctx, name + ".mgr" + std::to_string(i)));
        req_links_.push_back(std::make_unique<NocLink>(
            ctx, name + ".req" + std::to_string(i), flow_));
        rsp_links_.push_back(std::make_unique<NocLink>(
            ctx, name + ".rsp" + std::to_string(i), flow_));
    }
    egress_.resize(num_nodes);
    for (const NodeId s : subordinate_nodes) {
        std::vector<axi::AxiChannel*> egress_raw;
        for (NodeId src = 0; src < num_nodes; ++src) {
            egress_[s].push_back(std::make_unique<axi::AxiChannel>(
                ctx, name + ".eg" + std::to_string(s) + "_" + std::to_string(src),
                staging_depth(flow_)));
            wire_credit_returns(*egress_[s].back(), book_->req(s, src), flow_);
            egress_raw.push_back(egress_[s].back().get());
        }
        sub_index_[s] = static_cast<int>(sub_ports_.size());
        sub_ports_.push_back(std::make_unique<axi::AxiChannel>(
            ctx, name + ".sub" + std::to_string(s)));
        muxes_.push_back(std::make_unique<ic::AxiMux>(ctx, name + ".mux" + std::to_string(s),
                                                      std::move(egress_raw),
                                                      *sub_ports_.back()));
    }

    // Nodes last; link i feeds node (i+1) and node i drives link i.
    for (NodeId i = 0; i < num_nodes; ++i) {
        std::vector<axi::AxiChannel*> egress_raw;
        for (const auto& ch : egress_[i]) { egress_raw.push_back(ch.get()); }
        const NodeId prev = static_cast<NodeId>((i + num_nodes - 1) % num_nodes);
        nodes_.push_back(std::make_unique<NocNode>(
            ctx, name + ".node" + std::to_string(i), i, num_nodes, node_map,
            mgr_ports_[i].get(), std::move(egress_raw), *req_links_[prev],
            *req_links_[i], *rsp_links_[prev], *rsp_links_[i], flow_, book_.get()));
    }
}

axi::AxiChannel& NocRing::subordinate_port(NodeId node) {
    REALM_EXPECTS(node < sub_index_.size() && sub_index_[node] >= 0,
                  "node hosts no subordinate");
    return *sub_ports_[static_cast<std::size_t>(sub_index_[node])];
}

std::uint64_t NocRing::total_forwarded() const noexcept {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) { total += n->forwarded(); }
    return total;
}

std::uint64_t NocRing::total_ring_stalls() const noexcept {
    std::uint64_t total = 0;
    for (const auto& n : nodes_) { total += n->ring_stall_cycles(); }
    return total;
}

std::uint64_t NocRing::total_mux_w_stalls() const noexcept {
    std::uint64_t total = 0;
    for (const auto& m : muxes_) { total += m->w_stall_cycles(); }
    return total;
}

void NocRing::check_flow_invariants() const {
    book_->check_conserved();
    for (const auto& link : req_links_) { link->check_bounded(); }
    for (const auto& link : rsp_links_) { link->check_bounded(); }
    for (std::size_t s = 0; s < egress_.size(); ++s) {
        for (std::size_t src = 0; src < egress_[s].size(); ++src) {
            // The ring is single-path, so the NI reorder stash is always
            // empty; pass it anyway to keep the invariant honest.
            check_staging_invariants(
                *egress_[s][src],
                book_->req(static_cast<NodeId>(s), static_cast<NodeId>(src)),
                flow_,
                nodes_[s]->ni().stashed_request_flits(
                    static_cast<NodeId>(src)));
        }
    }
}

} // namespace realm::noc
