/// @file
/// Rarest-Piece-First fetch strategies (paper §IV-E).
///
/// Two variants of RPF tailored to off-the-grid communication:
///   * Local-neighborhood RPF — rarity of a packet is the number of
///     currently-connected neighbors whose bitmap shows it missing. State
///     expires with the encounter; nothing long-term is kept.
///   * Encounter-based RPF — rarity is estimated over the bitmaps of the
///     last K encountered peers (swarm-wide view at the cost of state).
///
/// Both prefer packets that are (a) missing locally, (b) available from at
/// least one known holder, and (c) rarest; ties break in a deterministic
/// shuffled order so concurrent downloaders diverge ("random first packet",
/// Fig. 9a) or in sequential order ("same first packet"). Each pick is one
/// pass over that order against the live holder counts; no ranked plan is
/// cached (DESIGN.md "Rarest-first selection"). The ranked-plan version
/// lives on as the test oracle in tests/oracles/rpf_ref.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "dapes/bitmap.hpp"

namespace dapes::core {

using common::TimePoint;

/// A neighbor's advertised bitmap.
struct NeighborBitmap {
  std::string peer_id;   ///< advertising peer
  Bitmap bitmap;         ///< the peer's have-bitmap
  TimePoint received{};  ///< when the bitmap was heard
};

/// Which RPF variant a FetchStrategy implements (see file comment).
enum class RpfKind {
  kLocalNeighborhood,  ///< rarity over currently connected neighbors
  kEncounterBased      ///< rarity over the last K encountered peers
};

/// Interface of a fetch strategy: consumes heard bitmaps, answers "which
/// packet should I request next".
class FetchStrategy {
 public:
  virtual ~FetchStrategy() = default;

  /// Record a (fresh) bitmap heard from @p peer_id.
  virtual void on_bitmap(const std::string& peer_id, const Bitmap& bitmap,
                         TimePoint now) = 0;

  /// The peer left our communication range; local-neighborhood RPF drops
  /// its state here, encounter-based RPF keeps history.
  virtual void on_neighbor_lost(const std::string& peer_id) = 0;

  /// Pick the next packet to request: missing from @p own, not in
  /// @p in_flight, rarest first. Returns nullopt when nothing eligible.
  virtual std::optional<size_t> select_next(const Bitmap& own,
                                            const std::set<size_t>& in_flight) = 0;

  /// True if any known holder has packet @p index.
  virtual bool known_available(size_t index) const = 0;

  /// Availability knowledge for @p index proved wrong — repeated fetch
  /// timeouts against peers whose bitmaps claim to hold it (a departed
  /// or lying peer). Implementations demote the claim so the picks stop
  /// chasing it; the default keeps the knowledge (fixed-population
  /// behaviour). See PeerOptions::stale_retry_limit.
  virtual void on_fetch_failed(size_t index) { (void)index; }

  /// Drop bitmap knowledge received before @p cutoff — time-based expiry
  /// for open-membership swarms where a silent neighbor has likely left.
  /// The default keeps everything (fixed-population behaviour); the
  /// encounter-based variant also keeps history by design. See
  /// PeerOptions::knowledge_ttl.
  virtual void expire_older_than(TimePoint cutoff) { (void)cutoff; }

  /// Number of bitmaps currently informing rarity estimates.
  virtual size_t known_bitmaps() const = 0;

  /// Approximate state footprint in bytes (Table-I style reporting).
  virtual size_t state_bytes() const = 0;
};

/// Construction options for make_fetch_strategy.
struct RpfOptions {
  size_t total_packets = 0;  ///< bitmap width (packets in the collection)
  /// Random vs same first packet (Fig. 9a variants).
  bool random_start = true;
  /// Encounter-based: how many encountered peers' bitmaps to remember.
  size_t history_limit = 20;
  uint64_t seed = 1;  ///< seed for the deterministic tie-break shuffle
};

/// Build the requested RPF variant.
std::unique_ptr<FetchStrategy> make_fetch_strategy(RpfKind kind,
                                                   const RpfOptions& options);

}  // namespace dapes::core
