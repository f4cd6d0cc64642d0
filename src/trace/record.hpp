/// @file
/// The in-memory trace record and the trace configuration knob.
///
/// A record is deliberately tiny and value-only: sim-time, the subject
/// node, the event type, an optional name hash (resolved to a URI through
/// the file's name dictionary, never stored inline) and up to three
/// varint payload arguments. Everything in it is deterministic across
/// `--jobs` — scheduler event ids, internal handles rather than
/// behaviour, are banned from records (DESIGN.md "Event trace
/// architecture").
#pragma once

#include <cstdint>
#include <string>

namespace dapes::trace {

/// `Record::node` value for events with no subject node: work that runs
/// unowned on purpose (frame deliveries, fault injections, setup-time
/// routes), outside any `sim::Scheduler::OwnerScope`.
inline constexpr uint32_t kNoNode = 0xffffffffu;

/// One trace event. POD; compared field-wise by `trace diff`.
struct Record {
  int64_t t_us = 0;          ///< simulated time, microseconds
  uint32_t node = kNoNode;   ///< subject node, kNoNode when none
  uint16_t type = 0;         ///< EventType as stored in the file
  uint16_t narg = 0;         ///< number of valid entries in args
  uint64_t name_hash = 0;    ///< Name::hash() of the subject name, 0 = none
  uint64_t args[3] = {};     ///< event-specific payload (events.hpp)

  /// Field-wise equality (the `trace diff` comparison).
  friend bool operator==(const Record& a, const Record& b) {
    if (a.t_us != b.t_us || a.node != b.node || a.type != b.type ||
        a.narg != b.narg || a.name_hash != b.name_hash) {
      return false;
    }
    for (uint16_t i = 0; i < a.narg; ++i) {
      if (a.args[i] != b.args[i]) return false;
    }
    return true;
  }
};

/// Per-trial trace configuration, carried on `ScenarioParams::trace` and
/// parsed from the bench `--trace <sink>:<path>` flag.
struct TraceConfig {
  /// Sink name from the well-known registry ("ring", "file", "null");
  /// empty = tracing disabled (the default — zero records, zero
  /// overhead beyond one thread-local null check per potential event).
  std::string sink;
  /// Output path for the binary trace. Required by the file sink;
  /// optional for ring (empty = in-memory only); ignored by null.
  std::string path;
  /// Per-trial record cap of the ring sink (drop-oldest beyond it), also
  /// its name-dictionary cap. 2^20 records = 48 MiB, which holds a whole
  /// quick fig9b trial.
  size_t ring_capacity = 1048576;

  /// True when a sink is configured.
  bool enabled() const { return !sink.empty(); }
};

/// Copy of @p config with @p suffix appended to a non-empty output path.
/// Multi-trial runners use this to give every (cell, trial) its own
/// file — the suffix depends only on grid indices, never on thread
/// placement, so traced sweeps compose with `--jobs`.
inline TraceConfig with_path_suffix(const TraceConfig& config,
                                    const std::string& suffix) {
  TraceConfig out = config;
  if (!out.path.empty()) out.path += suffix;
  return out;
}

}  // namespace dapes::trace
