// `trace` — query/diff CLI over DTRC binary trace files (src/trace/).
//
//   trace dump <file> [--node N] [--type NAME|ID] [--name PREFIX]
//                     [--from SECONDS] [--to SECONDS]
//       Print matching records, one per line, in emission order.
//       --type accepts a dotted well-known name ("medium.rx") resolved
//       through the file's embedded type table, or a raw numeric id.
//       --name matches URI prefixes on component boundaries. The time
//       window is [--from, --to) in simulated seconds.
//
//   trace stats <file>
//       Whole-trace aggregates plus per-type counts and rates.
//
//   trace diff <a> <b>
//       Record-by-record comparison in emission order. Prints the first
//       divergence (or "identical"). Exit 0 when identical, 1 when the
//       traces differ.
//
// Exit codes: 0 success (diff: identical), 1 runtime failure (diff:
// divergent), 2 usage error.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "trace/format.hpp"
#include "trace/query.hpp"

namespace {

using dapes::trace::DiffResult;
using dapes::trace::DumpFilter;
using dapes::trace::TraceData;

void usage(std::FILE* to) {
  std::fputs(
      "usage: trace dump <file> [--node N] [--type NAME|ID] [--name PREFIX]\n"
      "                         [--from SECONDS] [--to SECONDS]\n"
      "       trace stats <file>\n"
      "       trace diff <a> <b>\n",
      to);
}

[[noreturn]] void die_usage(const std::string& message) {
  std::fprintf(stderr, "trace: %s\n", message.c_str());
  usage(stderr);
  std::exit(2);
}

/// Parse a nonnegative decimal integer; dies with a usage error otherwise.
uint64_t parse_u64(const char* flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  uint64_t n = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end == v.c_str() || *end != '\0') {
    die_usage(std::string(flag) + ": invalid value \"" + v + "\"");
  }
  return n;
}

/// Parse a simulated-seconds value; dies with a usage error otherwise.
double parse_seconds(const char* flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  double s = std::strtod(v.c_str(), &end);
  if (errno != 0 || end == v.c_str() || *end != '\0') {
    die_usage(std::string(flag) + ": invalid value \"" + v + "\"");
  }
  return s;
}

/// Resolve --type against the file's embedded type table (so the filter
/// works even on files written by a different enum layout). Accepts the
/// dotted well-known name or a raw numeric id.
uint16_t resolve_type(const TraceData& trace, const std::string& v) {
  for (const auto& [id, name] : trace.types) {
    if (name == v) return id;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long n = std::strtoul(v.c_str(), &end, 10);
  if (errno == 0 && end != v.c_str() && *end == '\0' && n <= UINT16_MAX) {
    return static_cast<uint16_t>(n);
  }
  die_usage("--type: \"" + v + "\" is neither a type name in the file's "
            "embedded table nor a numeric id");
}

int cmd_dump(int argc, char** argv) {
  if (argc < 1) die_usage("dump: missing trace file");
  const std::string path = argv[0];

  // The filter's --type resolution needs the file's embedded type table,
  // so load first and parse flags against the parsed trace.
  TraceData trace = dapes::trace::read_trace_file(path);

  DumpFilter filter;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die_usage(flag + " requires a value");
      return argv[++i];
    };
    if (flag == "--node") {
      filter.node = static_cast<uint32_t>(parse_u64("--node", value()));
    } else if (flag == "--type") {
      filter.type = resolve_type(trace, value());
    } else if (flag == "--name") {
      filter.name_prefix = value();
    } else if (flag == "--from") {
      filter.t_from_us =
          static_cast<int64_t>(parse_seconds("--from", value()) * 1e6);
    } else if (flag == "--to") {
      filter.t_to_us =
          static_cast<int64_t>(parse_seconds("--to", value()) * 1e6);
    } else {
      die_usage("dump: unknown flag \"" + flag + "\"");
    }
  }

  dapes::trace::dump_trace(trace, filter, stdout);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc != 1) die_usage("stats: expected exactly one trace file");
  TraceData trace = dapes::trace::read_trace_file(argv[0]);
  dapes::trace::write_stats(dapes::trace::compute_stats(trace), stdout);
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc != 2) die_usage("diff: expected exactly two trace files");
  TraceData a = dapes::trace::read_trace_file(argv[0]);
  TraceData b = dapes::trace::read_trace_file(argv[1]);
  const DiffResult d = dapes::trace::diff_traces(a, b);
  dapes::trace::write_diff(a, b, d, stdout);
  return d.identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "help") {
    usage(stdout);
    return 0;
  }
  try {
    if (cmd == "dump") return cmd_dump(argc - 2, argv + 2);
    if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
    if (cmd == "diff") return cmd_diff(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace: %s\n", e.what());
    return 1;
  }
  die_usage("unknown command \"" + cmd + "\"");
}
