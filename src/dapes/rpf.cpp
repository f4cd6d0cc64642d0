#include "dapes/rpf.hpp"

#include <algorithm>
#include <numeric>

namespace dapes::core {

std::vector<size_t> rank_packets(const std::vector<uint32_t>& have_counts,
                                 const std::vector<size_t>& order) {
  const size_t n = have_counts.size();
  // order_rank[i] = position of packet i in the tie-break permutation.
  std::vector<size_t> order_rank(n);
  for (size_t pos = 0; pos < order.size() && pos < n; ++pos) {
    order_rank[order[pos]] = pos;
  }
  std::vector<size_t> ranked(n);
  std::iota(ranked.begin(), ranked.end(), size_t{0});
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](size_t a, size_t b) {
                     const bool avail_a = have_counts[a] > 0;
                     const bool avail_b = have_counts[b] > 0;
                     if (avail_a != avail_b) return avail_a;  // available first
                     if (have_counts[a] != have_counts[b]) {
                       return have_counts[a] < have_counts[b];  // rarest first
                     }
                     return order_rank[a] < order_rank[b];
                   });
  return ranked;
}

namespace {

/// Shared machinery: the known peers' bitmaps, holder counting and the
/// lazily rebuilt fetch plan.
class RpfBase : public FetchStrategy {
 public:
  explicit RpfBase(const RpfOptions& options)
      : total_(options.total_packets),
        have_counts_(options.total_packets, 0),
        rng_(options.seed) {
    order_.resize(total_);
    std::iota(order_.begin(), order_.end(), size_t{0});
    if (options.random_start) {
      rng_.shuffle(order_);
    }
  }

  std::optional<size_t> select_next(const Bitmap& own,
                                    const std::set<size_t>& in_flight) override {
    if (total_ == 0) return std::nullopt;
    if (dirty_) {
      plan_ = rank_packets(have_counts_, order_);
      plan_pos_ = 0;
      dirty_ = false;
    }
    // Advance past packets we now have (monotone: once owned, always
    // owned), then return the first candidate not in flight.
    while (plan_pos_ < plan_.size() && own.test(plan_[plan_pos_])) {
      ++plan_pos_;
    }
    for (size_t pos = plan_pos_; pos < plan_.size(); ++pos) {
      size_t idx = plan_[pos];
      if (own.test(idx)) continue;
      if (in_flight.contains(idx)) continue;
      return idx;
    }
    return std::nullopt;
  }

  bool known_available(size_t index) const override {
    return index < have_counts_.size() && have_counts_[index] > 0;
  }

  void on_fetch_failed(size_t index) override {
    if (index >= total_) return;
    // Clear the claimed bit in every stored bitmap (keeping the counts
    // consistent with what remove_counts will later subtract) so liar
    // poison and departed holders decay instead of wedging the plan.
    for (auto& [id, nb] : bitmaps_) {
      if (index < nb.bitmap.size() && nb.bitmap.test(index)) {
        nb.bitmap.set(index, false);
        if (have_counts_[index] > 0) --have_counts_[index];
        dirty_ = true;
      }
    }
  }

  size_t known_bitmaps() const override { return bitmaps_.size(); }

  size_t state_bytes() const override {
    size_t bytes = have_counts_.size() * sizeof(uint32_t);
    for (const auto& [id, nb] : bitmaps_) {
      bytes += id.size() + (nb.bitmap.size() + 7) / 8;
    }
    return bytes;
  }

 protected:
  /// Swap in a known peer's fresh bitmap; false when @p peer_id is new.
  bool replace(const std::string& peer_id, const Bitmap& bitmap,
               TimePoint now) {
    auto it = bitmaps_.find(peer_id);
    if (it == bitmaps_.end()) return false;
    remove_counts(it->second.bitmap);
    it->second = NeighborBitmap{peer_id, bitmap, now};
    add_counts(bitmap);
    return true;
  }

  /// Drop @p peer_id's bitmap, if known.
  void forget(const std::string& peer_id) {
    auto it = bitmaps_.find(peer_id);
    if (it == bitmaps_.end()) return;
    remove_counts(it->second.bitmap);
    bitmaps_.erase(it);
  }

  void add_counts(const Bitmap& bitmap) {
    size_t n = std::min(total_, bitmap.size());
    for (size_t i = 0; i < n; ++i) {
      if (bitmap.test(i)) ++have_counts_[i];
    }
    dirty_ = true;
  }

  void remove_counts(const Bitmap& bitmap) {
    size_t n = std::min(total_, bitmap.size());
    for (size_t i = 0; i < n; ++i) {
      if (bitmap.test(i) && have_counts_[i] > 0) --have_counts_[i];
    }
    dirty_ = true;
  }

  /// The bitmap each known peer last advertised.
  std::map<std::string, NeighborBitmap> bitmaps_;

 private:
  size_t total_;
  std::vector<uint32_t> have_counts_;
  bool dirty_ = true;
  common::Rng rng_;
  std::vector<size_t> order_;
  std::vector<size_t> plan_;
  size_t plan_pos_ = 0;
};

/// Rarity across the current communication range; state per connected
/// peer, dropped on disconnect (paper: "expires after the peers get
/// disconnected, thus no long term state is maintained").
class LocalNeighborhoodRpf final : public RpfBase {
 public:
  explicit LocalNeighborhoodRpf(const RpfOptions& options)
      : RpfBase(options) {}

  void on_bitmap(const std::string& peer_id, const Bitmap& bitmap,
                 TimePoint now) override {
    if (replace(peer_id, bitmap, now)) return;
    bitmaps_.emplace(peer_id, NeighborBitmap{peer_id, bitmap, now});
    add_counts(bitmap);
  }

  void on_neighbor_lost(const std::string& peer_id) override {
    forget(peer_id);
  }

  void expire_older_than(TimePoint cutoff) override {
    for (auto it = bitmaps_.begin(); it != bitmaps_.end();) {
      if (it->second.received < cutoff) {
        remove_counts(it->second.bitmap);
        it = bitmaps_.erase(it);
      } else {
        ++it;
      }
    }
  }
};

/// Rarity across the history of encountered peers (paper: "maintain a
/// list of the bitmap that each encountered peer has for a certain number
/// of encounters").
class EncounterBasedRpf final : public RpfBase {
 public:
  explicit EncounterBasedRpf(const RpfOptions& options)
      : RpfBase(options), history_limit_(options.history_limit) {}

  void on_bitmap(const std::string& peer_id, const Bitmap& bitmap,
                 TimePoint now) override {
    if (replace(peer_id, bitmap, now)) return;
    if (lru_.size() >= history_limit_ && !lru_.empty()) {
      forget(lru_.front());
      lru_.pop_front();
    }
    bitmaps_.emplace(peer_id, NeighborBitmap{peer_id, bitmap, now});
    lru_.push_back(peer_id);
    add_counts(bitmap);
  }

  void on_neighbor_lost(const std::string& /*peer_id*/) override {
    // Encounter history outlives the encounter by design.
  }

  // expire_older_than: default no-op — history outlives encounters.

 private:
  size_t history_limit_;
  std::deque<std::string> lru_;
};

}  // namespace

std::unique_ptr<FetchStrategy> make_fetch_strategy(RpfKind kind,
                                                   const RpfOptions& options) {
  switch (kind) {
    case RpfKind::kLocalNeighborhood:
      return std::make_unique<LocalNeighborhoodRpf>(options);
    case RpfKind::kEncounterBased:
      return std::make_unique<EncounterBasedRpf>(options);
  }
  return nullptr;
}

}  // namespace dapes::core
