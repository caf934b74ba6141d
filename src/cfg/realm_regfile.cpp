#include "cfg/realm_regfile.hpp"

#include "sim/check.hpp"

#include <utility>

namespace realm::cfg {

namespace {

std::uint32_t lo32(std::uint64_t v) noexcept { return static_cast<std::uint32_t>(v); }
std::uint32_t hi32(std::uint64_t v) noexcept { return static_cast<std::uint32_t>(v >> 32); }

void set_lo32(std::uint64_t& v, std::uint32_t half) noexcept {
    v = (v & 0xFFFF'FFFF'0000'0000ULL) | half;
}
void set_hi32(std::uint64_t& v, std::uint32_t half) noexcept {
    v = (v & 0x0000'0000'FFFF'FFFFULL) | (std::uint64_t{half} << 32);
}

std::uint32_t saturate32(std::uint64_t v) noexcept {
    return v > 0xFFFF'FFFFULL ? 0xFFFF'FFFFU : static_cast<std::uint32_t>(v);
}

} // namespace

RealmRegFile::RealmRegFile(std::vector<rt::RealmUnit*> units) : units_{std::move(units)} {
    REALM_EXPECTS(!units_.empty(), "register file needs at least one unit");
    shadows_.resize(units_.size());
    for (std::size_t u = 0; u < units_.size(); ++u) {
        REALM_EXPECTS(units_[u] != nullptr, "null REALM unit");
        shadows_[u].resize(units_[u]->config().num_regions);
    }
}

RegRsp RealmRegFile::reg_access(const RegReq& req) {
    if (req.addr % 4 != 0) { return RegRsp::err(); }
    if (req.addr == kNumUnitsOffset) {
        return req.write ? RegRsp::err() : RegRsp::ok(num_units());
    }
    if (req.addr == kNumRegionsOffset) {
        return req.write ? RegRsp::err()
                         : RegRsp::ok(units_.front()->config().num_regions);
    }
    if (req.addr < kUnitBase) { return RegRsp::err(); }
    const axi::Addr rel = req.addr - kUnitBase;
    const auto unit = static_cast<std::uint32_t>(rel / kUnitStride);
    if (unit >= units_.size()) { return RegRsp::err(); }
    const axi::Addr offset = rel % kUnitStride;
    if (offset < kRegionBase) { return unit_access(unit, offset, req); }
    const auto region = static_cast<std::uint32_t>((offset - kRegionBase) / kRegionStride);
    if (region >= shadows_[unit].size()) { return RegRsp::err(); }
    return region_access(unit, region, (offset - kRegionBase) % kRegionStride, req);
}

RegRsp RealmRegFile::unit_access(std::uint32_t unit, axi::Addr offset, const RegReq& req) {
    rt::RealmUnit& u = *units_[unit];
    switch (offset) {
    case kCtrl: {
        if (!req.write) {
            std::uint32_t v = 0;
            v |= u.enabled() ? kCtrlEnable : 0;
            v |= u.isolation().cause_active(rt::IsolationCause::kUser) ? kCtrlIsolate : 0;
            v |= u.mr().throttle_enabled() ? kCtrlThrottle : 0;
            return RegRsp::ok(v);
        }
        u.set_enabled((req.wdata & kCtrlEnable) != 0);
        u.set_user_isolation((req.wdata & kCtrlIsolate) != 0);
        u.set_throttle((req.wdata & kCtrlThrottle) != 0);
        return RegRsp::ok();
    }
    case kFragment: {
        if (!req.write) { return RegRsp::ok(u.fragmentation()); }
        if (req.wdata < 1 || req.wdata > axi::kMaxBurstBeats) { return RegRsp::err(); }
        u.set_fragmentation(req.wdata);
        return RegRsp::ok();
    }
    case kStatus: {
        if (req.write) { return RegRsp::err(); }
        std::uint32_t v = static_cast<std::uint32_t>(u.state()) & 0xF;
        v |= u.fully_isolated() ? (1U << 4) : 0;
        v |= (u.isolation().outstanding() & 0xFFU) << 8;
        return RegRsp::ok(v);
    }
    case kReadsAcc:
        return req.write ? RegRsp::err() : RegRsp::ok(saturate32(u.reads_accepted()));
    case kWritesAcc:
        return req.write ? RegRsp::err() : RegRsp::ok(saturate32(u.writes_accepted()));
    case kIsoCycles:
        return req.write ? RegRsp::err() : RegRsp::ok(saturate32(u.isolation_cycles()));
    default: return RegRsp::err();
    }
}

RegRsp RealmRegFile::region_access(std::uint32_t unit, std::uint32_t region, axi::Addr offset,
                                   const RegReq& req) {
    rt::RealmUnit& u = *units_[unit];
    RegionShadow& sh = shadows_[unit][region];
    const rt::RegionState& live = u.mr().region(region);

    const auto apply = [&] {
        rt::RegionConfig cfg;
        cfg.start = sh.start;
        cfg.end = sh.end;
        cfg.budget_bytes = sh.budget;
        cfg.period_cycles = sh.period;
        u.set_region(region, cfg);
        return RegRsp::ok();
    };

    if (req.write) {
        switch (offset) {
        case kStartLo: set_lo32(sh.start, req.wdata); return apply();
        case kStartHi: set_hi32(sh.start, req.wdata); return apply();
        case kEndLo: set_lo32(sh.end, req.wdata); return apply();
        case kEndHi: set_hi32(sh.end, req.wdata); return apply();
        case kBudgetLo: set_lo32(sh.budget, req.wdata); return apply();
        case kBudgetHi: set_hi32(sh.budget, req.wdata); return apply();
        case kPeriodLo: set_lo32(sh.period, req.wdata); return apply();
        case kPeriodHi: set_hi32(sh.period, req.wdata); return apply();
        default: return RegRsp::err(); // status registers are read-only
        }
    }
    switch (offset) {
    case kStartLo: return RegRsp::ok(lo32(live.config.start));
    case kStartHi: return RegRsp::ok(hi32(live.config.start));
    case kEndLo: return RegRsp::ok(lo32(live.config.end));
    case kEndHi: return RegRsp::ok(hi32(live.config.end));
    case kBudgetLo: return RegRsp::ok(lo32(live.config.budget_bytes));
    case kBudgetHi: return RegRsp::ok(hi32(live.config.budget_bytes));
    case kPeriodLo: return RegRsp::ok(lo32(live.config.period_cycles));
    case kPeriodHi: return RegRsp::ok(hi32(live.config.period_cycles));
    case kBytesPeriod: return RegRsp::ok(saturate32(live.bytes_this_period));
    case kTxnCount: return RegRsp::ok(saturate32(live.txns_total));
    case kRdLatAvg:
        return RegRsp::ok(static_cast<std::uint32_t>(live.read_latency.mean()));
    case kRdLatMax: return RegRsp::ok(saturate32(live.read_latency.max()));
    case kWrLatAvg:
        return RegRsp::ok(static_cast<std::uint32_t>(live.write_latency.mean()));
    case kWrLatMax: return RegRsp::ok(saturate32(live.write_latency.max()));
    case kCredit:
        return RegRsp::ok(live.credit <= 0 ? 0U
                                           : saturate32(static_cast<std::uint64_t>(live.credit)));
    default: return RegRsp::err();
    }
}

} // namespace realm::cfg
