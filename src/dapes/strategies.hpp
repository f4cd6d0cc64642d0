/// @file
/// Multi-hop forwarding strategies (paper §V).
///
/// DAPES achieves multi-hop communication without MANET routing by letting
/// intermediate nodes decide, hop by hop, whether a received Interest is
/// likely to bring data back:
///
///   * PureForwarderStrategy (§V-A) — nodes with only an NFD instance.
///     They cache overheard Data, forward Interests probabilistically after
///     a random delay, and run a per-name suppression timer when a
///     forwarded Interest brought nothing back.
///
///   * DapesIntermediateStrategy (§V-B) — nodes that understand DAPES
///     semantics. They overhear bitmap announcements and data transmissions
///     to build short-lived knowledge of what is available around them,
///     then forward Interests that knowledge says are satisfiable,
///     suppress Interests known to be unsatisfiable, and fall back to the
///     pure-forwarder probabilistic scheme when they know nothing.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "dapes/messages.hpp"
#include "dapes/namespace.hpp"
#include "ndn/forwarder.hpp"

namespace dapes::core {

using common::Duration;
using common::TimePoint;
using ndn::Face;
using ndn::FaceId;
using ndn::Forwarder;
using ndn::Interest;
using ndn::PitEntry;

/// §V-A relay strategy for nodes with only an NFD instance: cache
/// overheard Data, forward probabilistically, suppress fruitless names.
class PureForwarderStrategy : public ndn::ForwardingStrategy {
 public:
  /// Random wait before relaying, to dodge collisions and give closer
  /// holders the chance to answer first.
  static constexpr Duration kForwardDelayWindow = Duration::milliseconds(50);
  /// Soft-state bound: when a per-name table (suppression timers, relay
  /// bookkeeping) outgrows this, entries whose time is up are swept.
  /// Sweeps are throttled to one full scan per expiry interval, so the
  /// amortized cost per insert is O(1). Below the cap nothing is ever
  /// dropped; past it, only expired suppression timers (unobservable)
  /// and relay entries past the horizon (see relay() on the one stale
  /// corner this retires) go.
  static constexpr size_t kNameStateCap = 4096;
  /// Relay bookkeeping older than this is garbage — the PIT entry was
  /// satisfied (so no timeout will ever consult it) or timed out long
  /// ago. The sweep additionally keeps anything younger than twice the
  /// largest Interest lifetime it has relayed, so a scenario with
  /// longer-lived Interests cannot lose a pending suppression timer.
  static constexpr Duration kRelayHorizon = Duration::seconds(60.0);

  /// Strategy relaying an Interest heard on the air with probability
  /// @p forward_probability (paper default 20%; Fig. 9g/h sweep 20-60%).
  PureForwarderStrategy(sim::Scheduler& sched, common::Rng rng,
                        double forward_probability);

  /// Probabilistic relay + suppression for network Interests.
  void after_receive_interest(Forwarder& fw, FaceId in_face,
                              const Interest& interest,
                              PitEntry& entry) override;
  /// Start the per-name suppression timer after a fruitless relay.
  void on_interest_timeout(Forwarder& fw, const Name& name) override;
  /// Cache overheard Data (the point of a pure forwarder).
  bool cache_unsolicited(Forwarder& /*fw*/, FaceId /*in_face*/,
                         const ndn::Data& /*data*/) override {
    return true;
  }

  /// Interests relayed so far.
  uint64_t forwards() const { return forwards_; }
  /// Interests suppressed (timer or probability draw).
  uint64_t suppressions() const { return suppressions_; }
  /// Relayed Interests whose PIT entry expired with no data — the
  /// complement of the paper's "83% of forwarded Interests successfully
  /// brought data back" accuracy metric.
  uint64_t relay_timeouts() const { return relay_timeouts_; }

  /// Soft-state sizes, bounded by the expiry sweeps (tests + Table-I).
  size_t suppressed_names() const { return suppressed_until_.size(); }
  size_t relayed_names() const { return relayed_.size(); }

 protected:
  /// Relay decision for a network Interest with no better knowledge:
  /// probabilistic + suppression timer. Shared with the intermediate
  /// strategy's fallback path.
  void maybe_relay(Forwarder& fw, const Interest& interest,
                   double probability);

  /// Relay unconditionally after a random delay (knowledge-driven path).
  void relay(Forwarder& fw, const Interest& interest);

  /// Hand a network Interest to local app faces registered in the FIB.
  void deliver_local(Forwarder& fw, FaceId in_face, const Interest& interest);

  /// True while @p name's suppression timer is running.
  bool is_suppressed(const Name& name) const;

  sim::Scheduler& sched_;
  common::Rng rng_;
  double forward_probability_;
  uint64_t forwards_ = 0;
  uint64_t suppressions_ = 0;
  uint64_t relay_timeouts_ = 0;

 private:
  static FaceId wifi_face_of(Forwarder& fw);

  /// Names we relayed and are waiting on (-> suppression on timeout),
  /// stamped with the relay time: satisfied relays never time out, so
  /// they are swept once they are older than any possible PIT lifetime.
  /// Keyed on the Name's cached hash; nothing order-dependent reads
  /// either table, so hashed containers change no observable behaviour.
  std::unordered_map<Name, TimePoint> relayed_;
  std::unordered_map<Name, TimePoint> suppressed_until_;
  /// Sweep throttles + the largest lifetime ever relayed (bounds how
  /// long a relayed_ entry may still matter).
  TimePoint last_relayed_sweep_{};
  TimePoint last_suppressed_sweep_{};
  Duration max_relayed_lifetime_{};
};

/// Short-lived knowledge an intermediate DAPES node keeps per collection.
struct CollectionKnowledge {
  CollectionLayout layout;  ///< bit layout from overheard announcements
  /// Freshest bitmap per overheard peer.
  std::map<std::string, std::pair<Bitmap, TimePoint>> peer_bitmaps;
  TimePoint last_heard{};   ///< last time anything about it was heard
};

/// §V-B relay strategy for nodes that understand DAPES semantics:
/// overheard bitmaps/data drive forward-vs-suppress decisions, falling
/// back to the pure-forwarder scheme when nothing is known.
class DapesIntermediateStrategy : public PureForwarderStrategy {
 public:
  /// How long overheard knowledge stays fresh.
  static constexpr Duration kKnowledgeTtl = Duration::seconds(15.0);
  /// Cap on remembered recently-heard data names.
  static constexpr size_t kRecentDataCap = 2048;

  /// Strategy whose fallback (no knowledge) relays with probability
  /// @p forward_probability, like a pure forwarder.
  DapesIntermediateStrategy(sim::Scheduler& sched, common::Rng rng,
                            double forward_probability);

  /// Knowledge-driven forward/suppress, pure-forwarder fallback.
  void after_receive_interest(Forwarder& fw, FaceId in_face,
                              const Interest& interest,
                              PitEntry& entry) override;
  /// Decode an overheard bitmap announcement and pass it to learn_bitmap.
  void on_overhear_interest(Forwarder& fw, FaceId in_face,
                            const Interest& interest) override;
  /// Learn bitmaps and data availability from overheard Data.
  void on_overhear_data(Forwarder& fw, FaceId in_face,
                        const ndn::Data& data) override;

  /// Availability of a packet name according to overheard knowledge.
  enum class Availability {
    kAvailable,     ///< a known holder has it (or it was heard recently)
    kKnownMissing,  ///< fresh knowledge covers it and nobody has it
    kUnknown        ///< no fresh knowledge about the collection
  };
  /// Classify @p packet_name against the overheard knowledge.
  Availability packet_availability(const Name& packet_name,
                                   TimePoint now) const;

  /// True if fresh knowledge shows peers interested in @p collection.
  bool collection_active(const Name& collection, TimePoint now) const;

  /// Approximate knowledge footprint in bytes (Table-I reporting).
  size_t knowledge_bytes() const;

  /// Interests forwarded because knowledge said satisfiable.
  uint64_t knowledge_forwards() const { return knowledge_forwards_; }
  /// Interests suppressed because knowledge said unsatisfiable.
  uint64_t knowledge_suppressions() const { return knowledge_suppressions_; }

  /// Soft-state size, bounded by the TTL sweep (tests + Table-I).
  size_t recent_data_names() const { return recent_data_.size(); }

 protected:
  /// Record an overheard bitmap announcement heard at @p now. This is the
  /// node's only decode of the announcement: a subclass that also needs
  /// the message (the Peer's strategy) overrides this and chains to it.
  virtual void learn_bitmap(const BitmapMessage& msg, TimePoint now);

 private:
  /// Ordered: packet_availability and the control-relay path scan this
  /// map and act on the first prefix match, so iteration order is
  /// observable behaviour.
  std::map<Name, CollectionKnowledge> knowledge_;
  std::unordered_map<Name, TimePoint> recent_data_;
  TimePoint last_recent_sweep_{};
  uint64_t knowledge_forwards_ = 0;
  uint64_t knowledge_suppressions_ = 0;
};

}  // namespace dapes::core
