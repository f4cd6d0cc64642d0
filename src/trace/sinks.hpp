/// @file
/// Pluggable named trace sinks.
///
/// A sink decides two things: how much the trial's emission buffer
/// retains while the trial runs (the ring sink's bounded-memory cap, the
/// file sink's "keep everything", the null sink's "keep nothing"), and
/// what happens to the emission-order trace at flush time (write the
/// DTRC file, or drop it). Sinks are resolved by well-known name
/// (events.hpp `TraceSinkNames`) through a process-wide factory registry
/// pre-populated with the built-ins — the Envoy named-extension idiom —
/// so a test or embedder can register additional sinks without touching
/// the tracer.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/format.hpp"
#include "trace/record.hpp"

namespace dapes::trace {

/// Retention + flush policy of one configured trace (see file comment).
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Record retention cap of the trial's buffer: 0 = keep nothing (count
  /// only), SIZE_MAX = unbounded. Beyond the cap the tracer drops the
  /// oldest record (and counts the drop). The same number caps the
  /// trial's name dictionary.
  virtual size_t buffer_capacity(const TraceConfig& config) const = 0;

  /// Consume the emission-order trace at flush time. May throw
  /// (e.g. on an unwritable path); the tracer propagates.
  virtual void write(const TraceConfig& config,
                     const TraceData& trace) const = 0;
};

/// Process-wide sink factory registry keyed by well-known name.
class TraceSinkRegistry {
 public:
  /// Builds a sink for @p config (factories may validate it and throw
  /// std::invalid_argument — e.g. the file sink requires a path).
  using Factory =
      std::function<std::unique_ptr<TraceSink>(const TraceConfig&)>;

  /// The registry, pre-populated with the ring/file/null built-ins.
  static TraceSinkRegistry& instance();

  /// Register an additional sink. Throws std::invalid_argument on a
  /// duplicate name. Not thread-safe; register during startup.
  void register_factory(const std::string& name, Factory factory);

  /// Instantiate the sink named by @p config.sink. Throws
  /// std::invalid_argument on an unknown name.
  std::unique_ptr<TraceSink> create(const TraceConfig& config) const;

  /// Registered sink names, sorted (diagnostics / error messages).
  std::vector<std::string> names() const;

 private:
  TraceSinkRegistry();

  std::vector<std::pair<std::string, Factory>> factories_;
};

}  // namespace dapes::trace
