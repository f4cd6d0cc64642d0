#include "trace/sinks.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "trace/events.hpp"

namespace dapes::trace {

namespace {

/// Per-trial record cap of the ring sink (drop-oldest beyond it), also
/// its name-dictionary cap. 2^20 records = 48 MiB, which holds a whole
/// quick fig9b trial.
constexpr size_t kRingCapacity = 1048576;

/// Bounded default: a ring of the trial's newest kRingCapacity records,
/// written to config.path at flush when a path is set.
class RingSink : public TraceSink {
 public:
  size_t buffer_capacity(const TraceConfig&) const override {
    return kRingCapacity;
  }
  void write(const TraceConfig& config,
             const TraceData& trace) const override {
    if (!config.path.empty()) write_trace_file(config.path, trace);
  }
};

/// Unbounded buffer, always written to config.path at flush.
class FileSink : public TraceSink {
 public:
  size_t buffer_capacity(const TraceConfig&) const override {
    return std::numeric_limits<size_t>::max();
  }
  void write(const TraceConfig& config,
             const TraceData& trace) const override {
    write_trace_file(config.path, trace);
  }
};

/// Count-only: nothing retained, nothing written (overhead probes and
/// "tracing on but I only want the stats counters" runs).
class NullSink : public TraceSink {
 public:
  size_t buffer_capacity(const TraceConfig&) const override { return 0; }
  void write(const TraceConfig&, const TraceData&) const override {}
};

}  // namespace

TraceSinkRegistry::TraceSinkRegistry() {
  const auto& names = TraceSinkNames::get();
  register_factory(std::string(names.kRing), [](const TraceConfig&) {
    return std::make_unique<RingSink>();
  });
  register_factory(std::string(names.kFile), [](const TraceConfig& config) {
    if (config.path.empty()) {
      throw std::invalid_argument(
          "trace: the file sink requires a path (\"file:<path>\")");
    }
    return std::make_unique<FileSink>();
  });
  register_factory(std::string(names.kNull), [](const TraceConfig&) {
    return std::make_unique<NullSink>();
  });
}

TraceSinkRegistry& TraceSinkRegistry::instance() {
  static TraceSinkRegistry* registry = new TraceSinkRegistry();
  return *registry;
}

void TraceSinkRegistry::register_factory(const std::string& name,
                                         Factory factory) {
  for (const auto& [existing, fn] : factories_) {
    if (existing == name) {
      throw std::invalid_argument("trace: duplicate sink name \"" + name +
                                  "\"");
    }
  }
  factories_.emplace_back(name, std::move(factory));
}

std::unique_ptr<TraceSink> TraceSinkRegistry::create(
    const TraceConfig& config) const {
  for (const auto& [name, factory] : factories_) {
    if (name == config.sink) return factory(config);
  }
  std::string known;
  for (const std::string& name : names()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  throw std::invalid_argument("trace: unknown sink \"" + config.sink +
                              "\" (known: " + known + ")");
}

std::vector<std::string> TraceSinkRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, fn] : factories_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dapes::trace
