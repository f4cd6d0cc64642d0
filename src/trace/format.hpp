/// @file
/// The DTRC binary trace format: emission-order records + embedded
/// event-type table + name dictionary.
///
/// Layout (all integers LEB128 varints unless noted), version 2:
///
///   "DTRC" magic, u8 version
///   type table:   count, then (id, name) pairs — the event-type registry
///                 frozen into the file, so readers never depend on the
///                 writer's enum layout
///   records:      count, then per record: time delta from the previous
///                 record (first record: absolute), node+1 (0 = none),
///                 type, name hash, narg, args
///   name dict:    count, then (hash, uri) pairs sorted by hash
///   drop count:   ring-eviction drops, then total emitted
///   "DEND" end marker
///
/// Records are stored in the trial's emission order, which is
/// nondecreasing in time (one thread, a clock that never runs
/// backwards), so the time-delta encoding is always nonnegative and the
/// file is byte-identical for any `--jobs` value (the determinism
/// contract the CI byte-diff enforces). Readers reject any other
/// version.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace/record.hpp"

namespace dapes::trace {

/// A fully parsed (or about-to-be-written) trace.
struct TraceData {
  /// Records in emission order (nondecreasing t_us).
  std::vector<Record> records;
  /// Name dictionary: (hash, uri) sorted ascending by hash.
  std::vector<std::pair<uint64_t, std::string>> names;
  /// Event-type table embedded in the file: (id, well-known name).
  std::vector<std::pair<uint16_t, std::string>> types;
  /// Records dropped to ring eviction (or the null sink's zero cap).
  uint64_t dropped = 0;
  /// Total records emitted (kept + dropped).
  uint64_t total_emitted = 0;

  /// Dictionary lookup; null when the hash is unknown (e.g. the ring's
  /// dictionary cap was hit before this name's first record).
  const std::string* name_of(uint64_t hash) const;

  /// Well-known name of a stored type id via the embedded table ("?"
  /// when the id is absent).
  std::string type_name(uint16_t type) const;
};

/// Append @p v to @p out as a LEB128 varint (also used by the tests'
/// round-trip property suite).
void put_varint(std::string& out, uint64_t v);

/// Decode a LEB128 varint from @p data at @p pos, advancing it. Throws
/// std::runtime_error on truncation or a >64-bit encoding.
uint64_t get_varint(const std::string& data, size_t& pos);

/// Serialize @p trace into the DTRC byte layout.
std::string encode_trace(const TraceData& trace);

/// Parse a DTRC byte string. Throws std::runtime_error with a position
/// hint on any malformed input.
TraceData decode_trace(const std::string& bytes);

/// Write @p trace to @p path (encode + one fwrite). Throws
/// std::runtime_error when the file cannot be opened or written.
void write_trace_file(const std::string& path, const TraceData& trace);

/// Read and parse the trace at @p path. Throws std::runtime_error on I/O
/// or format errors.
TraceData read_trace_file(const std::string& path);

}  // namespace dapes::trace
