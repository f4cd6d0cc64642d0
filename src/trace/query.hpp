/// @file
/// Query operations over parsed traces: the library half of the `trace`
/// CLI (tools/trace_cli.cpp), kept here so the round-trip and diff test
/// suites exercise exactly the code the tool ships.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "trace/format.hpp"

namespace dapes::trace {

/// Record filter for `trace dump`. Unset fields match everything.
struct DumpFilter {
  std::optional<uint32_t> node;        ///< subject node
  std::optional<uint16_t> type;        ///< stored event-type id
  std::optional<std::string> name_prefix;  ///< URI prefix ("/a/b" style)
  std::optional<int64_t> t_from_us;    ///< inclusive window start
  std::optional<int64_t> t_to_us;      ///< exclusive window end

  /// True when @p r passes every set field (name_prefix is matched on
  /// component boundaries against @p trace's dictionary; records whose
  /// hash is not in the dictionary never match a prefix filter).
  bool matches(const TraceData& trace, const Record& r) const;
};

/// Render one record as the CLI's one-line text form.
std::string format_record(const TraceData& trace, const Record& r);

/// Print every record passing @p filter to @p out; returns the number
/// printed.
size_t dump_trace(const TraceData& trace, const DumpFilter& filter,
                  std::FILE* out);

/// Per-type aggregate for `trace stats`.
struct TypeStats {
  uint16_t type = 0;     ///< stored type id
  std::string name;      ///< well-known name from the embedded table
  uint64_t count = 0;    ///< records of this type
  double rate_hz = 0.0;  ///< count / trace time span (0 for empty spans)
};

/// Whole-trace aggregates for `trace stats`.
struct TraceStats {
  uint64_t records = 0;        ///< records kept in the file
  uint64_t emitted = 0;        ///< records emitted by the run
  uint64_t dropped = 0;        ///< ring-eviction drops
  int64_t t_first_us = 0;      ///< first record time (0 when empty)
  int64_t t_last_us = 0;       ///< last record time (0 when empty)
  size_t nodes_seen = 0;       ///< distinct subject nodes
  std::vector<TypeStats> by_type;  ///< per-type counts, descending count
};

/// Compute per-type counts/rates and whole-trace aggregates.
TraceStats compute_stats(const TraceData& trace);

/// Print @p stats as the CLI's stats report.
void write_stats(const TraceStats& stats, std::FILE* out);

/// First-divergence comparison for `trace diff`.
struct DiffResult {
  bool identical = false;  ///< true when both record sequences match
  /// Index of the first divergent record (== min(count_a, count_b) when
  /// one trace is a strict prefix of the other).
  size_t index = 0;
  std::optional<Record> a;  ///< record at index in A (unset past its end)
  std::optional<Record> b;  ///< record at index in B (unset past its end)
  size_t count_a = 0;       ///< records in A
  size_t count_b = 0;       ///< records in B
};

/// Compare two traces record-by-record in emission order.
DiffResult diff_traces(const TraceData& a, const TraceData& b);

/// Print the first-divergence report (or "identical") to @p out.
void write_diff(const TraceData& a, const TraceData& b, const DiffResult& d,
                std::FILE* out);

}  // namespace dapes::trace
