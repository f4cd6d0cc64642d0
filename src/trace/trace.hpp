/// @file
/// The per-trial Tracer: thread-local installation, per-node emission
/// buffers, and the canonical merge that makes trace content bit-identical
/// across `--jobs`.
///
/// Access pattern: a trial installs its Tracer into thread-local storage
/// (`TrialScope`), and instrumented code — scheduler, medium, tables,
/// strategies — emits through `trace::active()` without any constructor
/// plumbing. When no tracer is installed (the default), every potential
/// emission is one thread-local load and branch; the DAPES_TRACE_* macros
/// below are that guarded fast path.
///
/// Determinism discipline (DESIGN.md "Event trace architecture"):
///  * Emissions land in per-slot buffers — slot 0 for unattributed
///    events, slot n+1 for events emitted under `NodeScope(n)` — so the
///    ring sink bounds memory per node.
///  * The canonical merge orders records by (sim time, slot, per-slot
///    emission index) — a total order over content.
///  * Records never contain scheduler event ids (internal handles, not
///    behaviour) and cancel records carry no success flag.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/events.hpp"
#include "trace/format.hpp"
#include "trace/record.hpp"
#include "trace/sinks.hpp"

namespace dapes::trace {

/// Collects one trial's events into per-slot buffers and hands the
/// canonically merged trace to the configured sink at flush.
class Tracer {
 public:
  /// Builds the named sink from @p config (throws std::invalid_argument
  /// on an unknown sink name, or a sink-specific config error). @p clock
  /// supplies the current simulated time in microseconds — typically
  /// `[&sched] { return sched.now().us; }`.
  Tracer(TraceConfig config, std::function<int64_t()> clock);

  Tracer(const Tracer&) = delete;             ///< not copyable
  Tracer& operator=(const Tracer&) = delete;  ///< not copyable

  /// Pre-size the slot table for @p node (slot n+1). Call at node
  /// registration time, before the run loop emits.
  void ensure_node(uint32_t node);

  /// Emit one event. @p subject is the node the event is about (kNoNode
  /// for none); the *buffer* the record lands in is chosen by the
  /// thread's NodeScope context. At most 3 args are recorded.
  void emit(EventType type, uint32_t subject,
            std::initializer_list<uint64_t> args) {
    append(make_record(type, subject, 0, args), nullptr);
  }

  /// Emit one event about a name. @p name needs `hash()` and `to_uri()`
  /// (ndn::Name satisfies both); the URI is captured into the emitting
  /// slot's dictionary on the hash's first appearance, so `trace dump`
  /// can render and filter names without storing them per record.
  template <typename NameT>
  void emit_named(EventType type, uint32_t subject, const NameT& name,
                  std::initializer_list<uint64_t> args) {
    Record r = make_record(type, subject,
                           static_cast<uint64_t>(name.hash()), args);
    const std::function<std::string()> uri = [&name] { return name.to_uri(); };
    append(r, &uri);
  }

  /// Merge every slot's records into canonical order (see file comment)
  /// without consuming them. Also assembles the merged name dictionary,
  /// the embedded type table and the per-slot drop counts.
  TraceData snapshot() const;

  /// Hand the canonical merge to the sink (idempotent: the first call
  /// writes, later calls are no-ops). Propagates sink errors.
  void flush();

  /// Records emitted so far (kept + dropped), summed over slots.
  uint64_t emitted() const;
  /// Records dropped to ring eviction so far, summed over slots.
  uint64_t dropped() const;
  /// Records currently held across all slots.
  uint64_t held() const;

  /// The trial's trace configuration.
  const TraceConfig& config() const { return config_; }

 private:
  /// One emission slot: an optionally ring-bounded record sequence plus
  /// the slot-local name dictionary. Only the trial's thread appends, so
  /// no synchronization is needed.
  struct Slot {
    std::vector<Record> records;
    /// Ring start when bounded (records is used as a circular buffer
    /// once full); 0 while filling or unbounded.
    size_t head = 0;
    uint64_t emitted = 0;
    uint64_t dropped = 0;
    std::unordered_map<uint64_t, std::string> dict;
  };

  Record make_record(EventType type, uint32_t subject, uint64_t name_hash,
                     std::initializer_list<uint64_t> args) const;
  void append(const Record& r, const std::function<std::string()>* uri);
  Slot& slot_for_context();

  TraceConfig config_;
  std::function<int64_t()> clock_;
  std::unique_ptr<TraceSink> sink_;
  size_t capacity_ = 0;
  /// Slot 0 = unattributed; slot n+1 = node n. Sized by ensure_node,
  /// never grown by an emission.
  std::vector<Slot> slots_;
  bool flushed_ = false;

  /// Per-slot dictionary cap: the slot stops learning new names past it
  /// (records keep their hashes; dump renders them unresolved). Purely a
  /// memory bound — deterministic, since per-slot emission order is.
  static constexpr size_t kDictCap = 65536;
};

namespace detail {
/// The installed tracer of the calling thread (null = tracing off).
inline thread_local Tracer* t_tracer = nullptr;
/// The calling thread's node context (selects the emission slot).
inline thread_local uint32_t t_node = kNoNode;
}  // namespace detail

/// The calling thread's tracer; null when tracing is disabled — the one
/// branch every instrumentation site pays when off.
inline Tracer* active() { return detail::t_tracer; }

/// The calling thread's node context (kNoNode outside any NodeScope).
inline uint32_t context_node() { return detail::t_node; }

/// RAII installation of a trial's tracer into this thread for the trial's
/// whole run. Resets the node context; restores both on destruction. @p tracer may be null (an explicit "tracing off" scope).
class TrialScope {
 public:
  /// Install @p tracer on this thread.
  explicit TrialScope(Tracer* tracer)
      : prev_tracer_(detail::t_tracer), prev_node_(detail::t_node) {
    detail::t_tracer = tracer;
    detail::t_node = kNoNode;
  }
  ~TrialScope() {
    detail::t_tracer = prev_tracer_;
    detail::t_node = prev_node_;
  }
  TrialScope(const TrialScope&) = delete;             ///< not copyable
  TrialScope& operator=(const TrialScope&) = delete;  ///< not copyable

 private:
  Tracer* prev_tracer_;
  uint32_t prev_node_;
};

/// RAII node context: emissions inside the scope land in @p node's slot
/// (and default their subject to it). A no-op when tracing is off, and
/// entering kNoNode keeps the current context (so an unbound forwarder's
/// pipeline scope cannot clobber the medium's receiver scope).
class NodeScope {
 public:
  /// Enter @p node's context (if a tracer is installed).
  explicit NodeScope(uint32_t node) {
    if (detail::t_tracer != nullptr && node != kNoNode) {
      armed_ = true;
      prev_ = detail::t_node;
      detail::t_node = node;
    }
  }
  ~NodeScope() {
    if (armed_) detail::t_node = prev_;
  }
  NodeScope(const NodeScope&) = delete;             ///< not copyable
  NodeScope& operator=(const NodeScope&) = delete;  ///< not copyable

 private:
  bool armed_ = false;
  uint32_t prev_ = kNoNode;
};

}  // namespace dapes::trace

/// Emit an event with an explicit subject node; zero-cost (one TLS load +
/// branch) when tracing is off.
#define DAPES_TRACE_EVENT(type_, subject_, ...)                       \
  do {                                                                \
    if (::dapes::trace::Tracer* dapes_tr_ = ::dapes::trace::active()) \
      dapes_tr_->emit((type_), (subject_), {__VA_ARGS__});            \
  } while (0)

/// Emit an event about the current context node (NodeScope).
#define DAPES_TRACE_HERE(type_, ...)                                  \
  do {                                                                \
    if (::dapes::trace::Tracer* dapes_tr_ = ::dapes::trace::active()) \
      dapes_tr_->emit((type_), ::dapes::trace::context_node(),        \
                      {__VA_ARGS__});                                 \
  } while (0)

/// Emit a named event (subject = current context node).
#define DAPES_TRACE_NAMED(type_, name_, ...)                           \
  do {                                                                 \
    if (::dapes::trace::Tracer* dapes_tr_ = ::dapes::trace::active())  \
      dapes_tr_->emit_named((type_), ::dapes::trace::context_node(),   \
                            (name_), {__VA_ARGS__});                   \
  } while (0)
