/// @file
/// Event-type registry of the structured binary trace (DESIGN.md "Event
/// trace architecture").
///
/// Every traceable event has a fixed numeric id and a dotted well-known
/// name ("medium.rx", "pit.satisfy", ...). The registry is a
/// const-singleton built once on first use — the Envoy well-known-names
/// idiom — so event names live in exactly one place: the emitters, the
/// binary writer (which embeds the table in the file header) and the
/// `trace` CLI all resolve through it. Ids are stable within a file via
/// the embedded table, so a reader never depends on this enum's layout
/// matching the writer's.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace dapes::trace {

/// Compact numeric id of a traceable event. Values are contiguous so the
/// registry can be a flat array and per-type stats a flat counter vector.
enum class EventType : uint16_t {
  // Medium: one tx per frame put on the air, one deliver per frame
  // leaving it, and one outcome per (frame, in-coverage receiver).
  kMediumTx = 0,         ///< frame on the air; args: tx id, payload bytes
  kMediumDeliver,        ///< frame leaves the air; args: tx id
  kMediumRx,             ///< receiver got the frame; args: tx id
  kMediumDropLoss,       ///< channel/loss drop; args: tx id
  kMediumDropCollision,  ///< collision drop; args: tx id
  kMediumCapture,        ///< survived >=1 interferer; args: tx id, count
  // Scheduler: the event-loop arcs. Every executed event, frame
  // deliveries included, emits exactly one fire.
  kSchedSchedule,  ///< event scheduled; args: target time (us)
  kSchedCancel,    ///< cancel requested (no outcome arg; see trace.hpp)
  kSchedFire,      ///< event fired
  // Content Store (the shared-NameTree fast tables; the retained
  // ndn::ref reference tables are deliberately untraced).
  kCsInsert,  ///< insert or refresh; args: content bytes, refreshed flag
  kCsHit,     ///< lookup served
  kCsMiss,    ///< lookup missed
  kCsEvict,   ///< LRU eviction
  kCsExpire,  ///< freshness expiry noticed (entry erased)
  // Pending Interest Table.
  kPitInsert,     ///< new entry
  kPitAggregate,  ///< Interest merged into an existing entry
  kPitSatisfy,    ///< entry satisfied by Data
  kPitExpire,     ///< entry timed out
  kPitLoopDrop,   ///< nonce-loop drop
  // Forwarding Information Base.
  kFibAdd,     ///< route added; args: face id
  kFibRemove,  ///< route removed; args: face id
  kFibHit,     ///< longest-prefix match; args: matched prefix depth
  kFibMiss,    ///< no route
  // DAPES strategy decisions (paper §V).
  kStratRelay,              ///< relay scheduled; args: delay (us)
  kStratSuppress,           ///< relay suppressed; args: reason (see names)
  kStratKnowledgeForward,   ///< knowledge says available -> forward
  kStratKnowledgeSuppress,  ///< knowledge says missing -> suppress
  kStratTimeout,            ///< relayed Interest timed out
  // Crypto verify-cache layer (DESIGN.md "Crypto engine & verify cache").
  /// Verify-cache prewarm of one delivered Data frame; args: cached flag
  /// (1 = the frame's digest+verdict were already cached, 0 = freshly
  /// computed by the prewarm), frame bytes. Emitted right after
  /// medium.deliver.
  kCryptoPrewarm,
  // Open membership / fault injection (DESIGN.md "Fault injection &
  // open membership").
  kNodeJoin,     ///< node became live; args: 1 = revive/admission, 0 = setup
  kNodeLeave,    ///< node retired from the medium
  kFaultInject,  ///< fault plan event applied; args: FaultKind
  kPeerLied,     ///< adversary advertised a false bitmap; args: claimed, real
  // Channel realism stack (DESIGN.md "Channel realism round two").
  /// Bursty-erasure link state observed at a reception decision; args:
  /// tx id, state (0 good / 1 bad). Emitted per candidate receiver in
  /// delivery order; only models running a burst process emit it.
  kChannelState,

  kCount  ///< number of event types (not a valid event)
};

/// Number of registered event types.
inline constexpr size_t kEventTypeCount =
    static_cast<size_t>(EventType::kCount);

/// Meyers-style const singleton: one immutable instance per type, built
/// on first use (the Envoy ConstSingleton idiom for well-known names).
template <typename T>
class ConstSingleton {
 public:
  /// The shared immutable instance.
  static const T& get() {
    static const T* instance = new T();
    return *instance;
  }
};

/// The event-type table: id -> dotted well-known name. Access through
/// `EventTypeRegistry::get()`.
class EventTypeRegistryValues {
 public:
  /// Builds the id -> name table (called once by the singleton).
  EventTypeRegistryValues() {
    auto put = [this](EventType t, std::string_view name) {
      names_[static_cast<size_t>(t)] = name;
    };
    put(EventType::kMediumTx, "medium.tx");
    put(EventType::kMediumDeliver, "medium.deliver");
    put(EventType::kMediumRx, "medium.rx");
    put(EventType::kMediumDropLoss, "medium.drop_loss");
    put(EventType::kMediumDropCollision, "medium.drop_collision");
    put(EventType::kMediumCapture, "medium.capture");
    put(EventType::kSchedSchedule, "sched.schedule");
    put(EventType::kSchedCancel, "sched.cancel");
    put(EventType::kSchedFire, "sched.fire");
    put(EventType::kCsInsert, "cs.insert");
    put(EventType::kCsHit, "cs.hit");
    put(EventType::kCsMiss, "cs.miss");
    put(EventType::kCsEvict, "cs.evict");
    put(EventType::kCsExpire, "cs.expire");
    put(EventType::kPitInsert, "pit.insert");
    put(EventType::kPitAggregate, "pit.aggregate");
    put(EventType::kPitSatisfy, "pit.satisfy");
    put(EventType::kPitExpire, "pit.expire");
    put(EventType::kPitLoopDrop, "pit.loop_drop");
    put(EventType::kFibAdd, "fib.add");
    put(EventType::kFibRemove, "fib.remove");
    put(EventType::kFibHit, "fib.hit");
    put(EventType::kFibMiss, "fib.miss");
    put(EventType::kStratRelay, "strategy.relay");
    put(EventType::kStratSuppress, "strategy.suppress");
    put(EventType::kStratKnowledgeForward, "strategy.knowledge_forward");
    put(EventType::kStratKnowledgeSuppress, "strategy.knowledge_suppress");
    put(EventType::kStratTimeout, "strategy.timeout");
    put(EventType::kCryptoPrewarm, "crypto.prewarm");
    put(EventType::kNodeJoin, "node.join");
    put(EventType::kNodeLeave, "node.leave");
    put(EventType::kFaultInject, "fault.inject");
    put(EventType::kPeerLied, "peer.lied");
    put(EventType::kChannelState, "channel.state");
  }

  /// Well-known name of @p t ("?" for an out-of-range id, which only a
  /// corrupt file can produce).
  std::string_view name(EventType t) const {
    const size_t i = static_cast<size_t>(t);
    return i < kEventTypeCount ? names_[i] : std::string_view("?");
  }

  /// Reverse lookup by well-known name; kCount when unknown.
  EventType find(std::string_view name) const {
    for (size_t i = 0; i < kEventTypeCount; ++i) {
      if (names_[i] == name) return static_cast<EventType>(i);
    }
    return EventType::kCount;
  }

 private:
  std::array<std::string_view, kEventTypeCount> names_{};
};

/// The const-singleton event-type registry.
using EventTypeRegistry = ConstSingleton<EventTypeRegistryValues>;

/// Well-known sink names (the pluggable sink registry, sinks.hpp).
/// Access through `TraceSinkNames::get()`.
class TraceSinkNameValues {
 public:
  /// Bounded ring buffer (the default): memory stays capped, the newest
  /// `ring_capacity` records of the trial survive to the flush.
  std::string_view kRing = "ring";
  /// Unbounded in-memory buffer written to the output path at flush.
  std::string_view kFile = "file";
  /// Count-only: records are tallied and discarded (overhead probes).
  std::string_view kNull = "null";
};

/// The const-singleton sink-name registry.
using TraceSinkNames = ConstSingleton<TraceSinkNameValues>;

}  // namespace dapes::trace
