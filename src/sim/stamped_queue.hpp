/// \file
/// \brief Fixed-capacity FIFO lanes whose entries carry the cycle they
///        become visible: the one staged channel under `noc::NocLink`'s
///        virtual channels and the credit pools' pending returns.
#pragma once

#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/types.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace realm::sim {

/// `lanes` FIFOs of `capacity` entries each, in one block allocated at
/// construction. Every entry carries its visible cycle; `can_pop(now)`
/// holds once the head's stamp is `<= now`. The head blocks younger
/// entries, so stamps need not be monotone.
///
/// A producer uses one of two modes per queue:
///  - `push` commits the entry at once (single-threaded fabrics);
///  - `stage` writes it past the committed region of its lane, and the
///    owner's `EdgeFlushable::flush_edge` makes it part of the FIFO with
///    `commit()` at the cycle-edge barrier.
///
/// Staging touches only producer-owned state (the lane's tail, its staged
/// count and slots the consumer cannot reach) and popping only
/// consumer-owned state (head and committed count), so a producer and a
/// consumer on different shards never race. A staging producer therefore
/// cannot see the consumer's pops; it must know there is room by other
/// means (`NocLink`: its edge snapshot; a credit pool: conservation).
/// `commit` asserts the bound.
///
/// Wake-ups: the consumer is woken at the visible cycle of every pushed
/// entry, and once per `commit` at the earliest visible cycle committed.
/// A consumer registered with `set_consumer` stays registered; one
/// registered with `wait` is woken once, then forgotten.
///
/// Storage wraps with a conditional, never `%`: the capacity is a runtime
/// value, and an integer division per access shows on contended meshes.
/// `T` must be default-constructible and movable.
template <typename T>
class StampedQueue {
public:
    explicit StampedQueue(std::size_t capacity, std::size_t lanes = 1)
        : cap_{static_cast<std::uint32_t>(capacity)}, lanes_(lanes),
          slots_{std::make_unique<Entry[]>(capacity * lanes)} {
        REALM_EXPECTS(lanes >= 1, "a stamped queue needs at least one lane");
    }

    /// \name Producer
    ///@{
    /// Commits `value` to `lane` at once, visible from `visible_at`.
    void push(T value, Cycle visible_at, std::size_t lane = 0) {
        Lane& l = lanes_.at(lane);
        REALM_EXPECTS(l.staged == 0 && l.count < cap_,
                      "push into a full or staging stamped queue");
        write(l, lane, std::move(value), visible_at);
        ++l.count;
        wake(visible_at);
    }
    /// Stages `value` on `lane` for the next `commit`. Returns true for the
    /// first entry staged since the last commit: the owner registers for
    /// the edge flush then.
    [[nodiscard]] bool stage(T value, Cycle visible_at, std::size_t lane = 0) {
        Lane& l = lanes_.at(lane);
        REALM_EXPECTS(l.staged < cap_, "stage into a full stamped queue");
        write(l, lane, std::move(value), visible_at);
        ++l.staged;
        return staged_++ == 0;
    }
    /// Appends every staged entry to its lane and wakes the consumer at the
    /// earliest visible cycle among them, which it returns (`kNoCycle` when
    /// nothing was staged, in which case the call is a no-op).
    /// Single-threaded: the kernel's edge flush.
    Cycle commit() {
        if (staged_ == 0) { return kNoCycle; }
        Cycle first = kNoCycle;
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            Lane& l = lanes_[i];
            REALM_ENSURES(l.count + l.staged <= cap_, "stamped queue overflow at commit");
            std::uint32_t pos = l.head + l.count;
            if (pos >= cap_) { pos -= cap_; }
            for (std::uint32_t k = 0; k < l.staged; ++k) {
                first = std::min(first, slot(i, pos).visible_at);
                if (++pos == cap_) { pos = 0; }
            }
            l.count += l.staged;
            l.staged = 0;
        }
        staged_ = 0;
        wake(first);
        return first;
    }
    ///@}

    /// \name Consumer
    ///@{
    [[nodiscard]] bool can_pop(Cycle now, std::size_t lane = 0) const {
        const Lane& l = lanes_.at(lane);
        return l.count > 0 && slot(lane, l.head).visible_at <= now;
    }
    /// Head of `lane`, visible or not.
    [[nodiscard]] const T& front(std::size_t lane = 0) const {
        const Lane& l = lanes_.at(lane);
        REALM_EXPECTS(l.count > 0, "front of an empty stamped queue");
        return slot(lane, l.head).value;
    }
    /// Consumes the head of `lane`, visible or not (check `can_pop` first).
    T pop(std::size_t lane = 0) {
        Lane& l = lanes_.at(lane);
        REALM_EXPECTS(l.count > 0, "pop from an empty stamped queue");
        T value = std::move(slot(lane, l.head).value);
        if (++l.head == cap_) { l.head = 0; }
        --l.count;
        return value;
    }
    /// Registers `c` to be woken by every push and commit.
    void set_consumer(Component* c) noexcept {
        consumer_ = c;
        once_ = false;
    }
    /// Registers `c` to be woken once, by the next push, commit or
    /// `notify`, and returns the earliest visible cycle among the committed
    /// lane heads (`kNoCycle` when every lane is empty): nothing committed
    /// becomes poppable before it.
    [[nodiscard]] Cycle wait(Component& c) noexcept {
        consumer_ = &c;
        once_ = true;
        Cycle first = kNoCycle;
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            const Lane& l = lanes_[i];
            if (l.count > 0) { first = std::min(first, slot(i, l.head).visible_at); }
        }
        return first;
    }
    /// Wakes the consumer now, for state it reads beside the queue (a
    /// credit pool's immediate release).
    void notify() noexcept {
        if (consumer_ != nullptr) { wake(consumer_->now()); }
    }
    ///@}

    /// \name Introspection
    ///@{
    /// Committed entries of `lane`.
    [[nodiscard]] std::size_t size(std::size_t lane = 0) const {
        return lanes_.at(lane).count;
    }
    /// Entries staged on `lane` since the last commit (producer view).
    [[nodiscard]] std::size_t staged(std::size_t lane = 0) const {
        return lanes_.at(lane).staged;
    }
    /// No committed entry on any lane.
    [[nodiscard]] bool empty() const noexcept {
        return std::all_of(lanes_.begin(), lanes_.end(),
                           [](const Lane& l) { return l.count == 0; });
    }
    ///@}

private:
    struct Entry {
        T value{};
        Cycle visible_at = 0;
    };
    /// `head`/`count` belong to the consumer (and the commit), `tail`/
    /// `staged` to the producer (and the commit).
    struct Lane {
        std::uint32_t head = 0;
        std::uint32_t count = 0;
        std::uint32_t tail = 0;
        std::uint32_t staged = 0;
    };

    [[nodiscard]] Entry& slot(std::size_t lane, std::uint32_t pos) noexcept {
        return slots_[lane * cap_ + pos];
    }
    [[nodiscard]] const Entry& slot(std::size_t lane, std::uint32_t pos) const noexcept {
        return slots_[lane * cap_ + pos];
    }
    void write(Lane& l, std::size_t lane, T&& value, Cycle visible_at) {
        slot(lane, l.tail) = Entry{std::move(value), visible_at};
        if (++l.tail == cap_) { l.tail = 0; }
    }
    void wake(Cycle at) noexcept {
        if (consumer_ == nullptr || at == kNoCycle) { return; }
        consumer_->wake(at);
        if (once_) { consumer_ = nullptr; }
    }

    std::uint32_t cap_;         ///< entries per lane
    std::uint32_t staged_ = 0;  ///< entries staged on all lanes (producer)
    Component* consumer_ = nullptr;
    bool once_ = false;
    std::vector<Lane> lanes_;
    std::unique_ptr<Entry[]> slots_;
};

} // namespace realm::sim
