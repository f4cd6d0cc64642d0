#include "trace/query.hpp"

#include <algorithm>
#include <cinttypes>
#include <unordered_map>
#include <unordered_set>

namespace dapes::trace {

namespace {

/// URI prefix match on component boundaries: "/a/b" matches "/a/b" and
/// "/a/b/c" but not "/a/bc". "/" matches every named record.
bool uri_has_prefix(const std::string& uri, const std::string& prefix) {
  if (prefix.empty() || prefix == "/") return true;
  if (uri.size() < prefix.size() ||
      uri.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  return uri.size() == prefix.size() || uri[prefix.size()] == '/';
}

}  // namespace

bool DumpFilter::matches(const TraceData& trace, const Record& r) const {
  if (node && r.node != *node) return false;
  if (type && r.type != *type) return false;
  if (t_from_us && r.t_us < *t_from_us) return false;
  if (t_to_us && r.t_us >= *t_to_us) return false;
  if (name_prefix) {
    if (r.name_hash == 0) return false;
    const std::string* uri = trace.name_of(r.name_hash);
    if (uri == nullptr || !uri_has_prefix(*uri, *name_prefix)) return false;
  }
  return true;
}

std::string format_record(const TraceData& trace, const Record& r) {
  char head[96];
  std::snprintf(head, sizeof(head), "t=%.6f ",
                static_cast<double>(r.t_us) / 1e6);
  std::string out = head;
  if (r.node == kNoNode) {
    out += "node=-";
  } else {
    out += "node=" + std::to_string(r.node);
  }
  out += ' ';
  out += trace.type_name(r.type);
  if (r.name_hash != 0) {
    const std::string* uri = trace.name_of(r.name_hash);
    out += ' ';
    if (uri != nullptr) {
      out += *uri;
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "h:%016" PRIx64, r.name_hash);
      out += buf;
    }
  }
  for (uint16_t i = 0; i < r.narg && i < 3; ++i) {
    out += ' ';
    out += std::to_string(r.args[i]);
  }
  return out;
}

size_t dump_trace(const TraceData& trace, const DumpFilter& filter,
                  std::FILE* out) {
  size_t printed = 0;
  for (const Record& r : trace.records) {
    if (!filter.matches(trace, r)) continue;
    const std::string line = format_record(trace, r);
    std::fprintf(out, "%s\n", line.c_str());
    ++printed;
  }
  return printed;
}

TraceStats compute_stats(const TraceData& trace) {
  TraceStats stats;
  stats.records = trace.records.size();
  stats.emitted = trace.total_emitted;
  stats.dropped = trace.dropped;
  if (!trace.records.empty()) {
    stats.t_first_us = trace.records.front().t_us;
    stats.t_last_us = trace.records.back().t_us;
  }
  std::unordered_set<uint32_t> nodes;
  std::unordered_map<uint16_t, uint64_t> counts;
  for (const Record& r : trace.records) {
    if (r.node != kNoNode) nodes.insert(r.node);
    ++counts[r.type];
  }
  stats.nodes_seen = nodes.size();
  const int64_t span_us = stats.t_last_us - stats.t_first_us;
  stats.by_type.reserve(counts.size());
  for (const auto& [type, count] : counts) {
    TypeStats ts;
    ts.type = type;
    ts.name = trace.type_name(type);
    ts.count = count;
    if (span_us > 0) {
      ts.rate_hz = static_cast<double>(count) /
                   (static_cast<double>(span_us) / 1e6);
    }
    stats.by_type.push_back(std::move(ts));
  }
  std::sort(stats.by_type.begin(), stats.by_type.end(),
            [](const TypeStats& a, const TypeStats& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.name < b.name;
            });
  return stats;
}

void write_stats(const TraceStats& stats, std::FILE* out) {
  std::fprintf(out,
               "records %" PRIu64 " (emitted %" PRIu64 ", dropped %" PRIu64
               ")\n",
               stats.records, stats.emitted, stats.dropped);
  std::fprintf(out, "span t=%.6f .. t=%.6f (%zu nodes)\n",
               static_cast<double>(stats.t_first_us) / 1e6,
               static_cast<double>(stats.t_last_us) / 1e6, stats.nodes_seen);
  for (const TypeStats& ts : stats.by_type) {
    std::fprintf(out, "%-28s %10" PRIu64 "  %12.2f /s\n", ts.name.c_str(),
                 ts.count, ts.rate_hz);
  }
}

DiffResult diff_traces(const TraceData& a, const TraceData& b) {
  DiffResult d;
  d.count_a = a.records.size();
  d.count_b = b.records.size();
  const size_t n = std::min(d.count_a, d.count_b);
  for (size_t i = 0; i < n; ++i) {
    if (!(a.records[i] == b.records[i])) {
      d.index = i;
      d.a = a.records[i];
      d.b = b.records[i];
      return d;
    }
  }
  if (d.count_a != d.count_b) {
    // One trace is a strict prefix of the other.
    d.index = n;
    if (n < d.count_a) d.a = a.records[n];
    if (n < d.count_b) d.b = b.records[n];
    return d;
  }
  d.identical = true;
  d.index = n;
  return d;
}

void write_diff(const TraceData& a, const TraceData& b, const DiffResult& d,
                std::FILE* out) {
  if (d.identical) {
    std::fprintf(out, "identical: %zu records\n", d.count_a);
    return;
  }
  std::fprintf(out, "first divergence at record %zu (A has %zu, B has %zu)\n",
               d.index, d.count_a, d.count_b);
  if (d.a) {
    std::fprintf(out, "  A: %s\n", format_record(a, *d.a).c_str());
  } else {
    std::fprintf(out, "  A: <end of trace>\n");
  }
  if (d.b) {
    std::fprintf(out, "  B: %s\n", format_record(b, *d.b).c_str());
  } else {
    std::fprintf(out, "  B: <end of trace>\n");
  }
}

}  // namespace dapes::trace
