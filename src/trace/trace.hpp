/// @file
/// The per-trial Tracer: thread-local installation, the trial's one
/// emission-order buffer, and the snapshot that hands it to a sink.
///
/// Access pattern: a trial installs its Tracer into thread-local storage
/// (`TrialScope`), and instrumented code — scheduler, medium, tables,
/// strategies — emits through `trace::active()` without any constructor
/// plumbing. When no tracer is installed (the default), every potential
/// emission is one thread-local load and branch; the DAPES_TRACE_* macros
/// below are that guarded fast path.
///
/// Determinism discipline (DESIGN.md "Event trace architecture"):
///  * A trial runs on one thread and its scheduler clock never runs
///    backwards, so records land in one buffer in emission order, which
///    is nondecreasing in time and the same for any `--jobs`.
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

/// Collects one trial's events, in emission order, into one buffer and
/// hands it to the configured sink at flush.
class Tracer {
 public:
  /// Builds the named sink from @p config (throws std::invalid_argument
  /// on an unknown sink name, or a sink-specific config error). @p clock
  /// supplies the current simulated time in microseconds — typically
  /// `[&sched] { return sched.now().us; }`.
  Tracer(TraceConfig config, std::function<int64_t()> clock);

  Tracer(const Tracer&) = delete;             ///< not copyable
  Tracer& operator=(const Tracer&) = delete;  ///< not copyable

  /// Emit one event. @p subject is the node the event is about (kNoNode
  /// for none). At most 3 args are recorded.
  void emit(EventType type, uint32_t subject,
            std::initializer_list<uint64_t> args) {
    append(make_record(type, subject, 0, args), nullptr);
  }

  /// Emit one event about a name. @p name needs `hash()` and `to_uri()`
  /// (ndn::Name satisfies both); the URI is captured into the trial's
  /// dictionary on the hash's first appearance, so `trace dump` can
  /// render and filter names without storing them per record.
  template <typename NameT>
  void emit_named(EventType type, uint32_t subject, const NameT& name,
                  std::initializer_list<uint64_t> args) {
    Record r = make_record(type, subject,
                           static_cast<uint64_t>(name.hash()), args);
    const std::function<std::string()> uri = [&name] { return name.to_uri(); };
    append(r, &uri);
  }

  /// The held records in emission order (a full ring starts at its
  /// oldest survivor) without consuming them, plus the name dictionary
  /// sorted by hash, the embedded type table and the drop count.
  TraceData snapshot() const;

  /// Hand the snapshot to the sink (idempotent: the first call writes,
  /// later calls are no-ops). Propagates sink errors.
  void flush();

  /// Records emitted so far (kept + dropped).
  uint64_t emitted() const { return emitted_; }
  /// Records dropped to ring eviction (or a zero cap) so far.
  uint64_t dropped() const { return dropped_; }
  /// Records currently held.
  uint64_t held() const { return records_.size(); }

  /// The trial's trace configuration.
  const TraceConfig& config() const { return config_; }

 private:
  Record make_record(EventType type, uint32_t subject, uint64_t name_hash,
                     std::initializer_list<uint64_t> args) const;
  void append(const Record& r, const std::function<std::string()>* uri);

  TraceConfig config_;
  std::function<int64_t()> clock_;
  std::unique_ptr<TraceSink> sink_;
  /// The sink's record cap (0 = count only, SIZE_MAX = unbounded). It
  /// also caps the name dictionary, which stops learning new names past
  /// it (records keep their hashes; dump renders them unresolved).
  size_t capacity_ = 0;
  /// Emission-order records; a circular buffer once a bounded cap fills.
  /// Only the trial's thread appends, so no synchronization is needed.
  std::vector<Record> records_;
  /// Oldest record's index once the ring has wrapped; 0 before.
  size_t head_ = 0;
  uint64_t emitted_ = 0;
  uint64_t dropped_ = 0;
  /// Name hash -> URI of its first emission.
  std::unordered_map<uint64_t, std::string> names_;
  bool flushed_ = false;
};

namespace detail {
/// The installed tracer of the calling thread (null = tracing off).
inline thread_local Tracer* t_tracer = nullptr;
/// The calling thread's node context (the default event subject). Its
/// one writer is `sim::Scheduler::OwnerScope`, so the node a record
/// names is the scheduler owner of the code that emitted it.
inline thread_local uint32_t t_node = kNoNode;
}  // namespace detail

/// The calling thread's tracer; null when tracing is disabled — the one
/// branch every instrumentation site pays when off.
inline Tracer* active() { return detail::t_tracer; }

/// The calling thread's node context: the owner of the innermost live
/// `sim::Scheduler::OwnerScope`, kNoNode outside any or under kNoOwner.
inline uint32_t context_node() { return detail::t_node; }

/// RAII installation of a trial's tracer into this thread for the trial's
/// whole run; restores the previous tracer on destruction. @p tracer may
/// be null (an explicit "tracing off" scope).
class TrialScope {
 public:
  /// Install @p tracer on this thread.
  explicit TrialScope(Tracer* tracer) : prev_tracer_(detail::t_tracer) {
    detail::t_tracer = tracer;
  }
  ~TrialScope() { detail::t_tracer = prev_tracer_; }
  TrialScope(const TrialScope&) = delete;             ///< not copyable
  TrialScope& operator=(const TrialScope&) = delete;  ///< not copyable

 private:
  Tracer* prev_tracer_;
};

}  // namespace dapes::trace

/// Emit an event with an explicit subject node; zero-cost (one TLS load +
/// branch) when tracing is off.
#define DAPES_TRACE_EVENT(type_, subject_, ...)                       \
  do {                                                                \
    if (::dapes::trace::Tracer* dapes_tr_ = ::dapes::trace::active()) \
      dapes_tr_->emit((type_), (subject_), {__VA_ARGS__});            \
  } while (0)

/// Emit an event about the current context node (the scheduler owner).
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
