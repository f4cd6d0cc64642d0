#include "trace/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace dapes::trace {

Tracer::Tracer(TraceConfig config, std::function<int64_t()> clock)
    : config_(std::move(config)), clock_(std::move(clock)) {
  if (!clock_) {
    throw std::invalid_argument("Tracer: a clock is required");
  }
  sink_ = TraceSinkRegistry::instance().create(config_);
  capacity_ = sink_->buffer_capacity(config_);
}

Record Tracer::make_record(EventType type, uint32_t subject,
                           uint64_t name_hash,
                           std::initializer_list<uint64_t> args) const {
  Record r;
  r.t_us = clock_();
  r.node = subject;
  r.type = static_cast<uint16_t>(type);
  r.name_hash = name_hash;
  for (uint64_t a : args) {
    if (r.narg >= 3) break;
    r.args[r.narg++] = a;
  }
  return r;
}

void Tracer::append(const Record& r, const std::function<std::string()>* uri) {
  ++emitted_;
  // Format the URI only on the hash's first appearance.
  if (uri != nullptr && r.name_hash != 0 && names_.size() < capacity_ &&
      !names_.contains(r.name_hash)) {
    names_.emplace(r.name_hash, (*uri)());
  }
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (records_.size() < capacity_) {
    records_.push_back(r);
    return;
  }
  // Ring full: overwrite the oldest record in place.
  records_[head_] = r;
  head_ = (head_ + 1) % records_.size();
  ++dropped_;
}

TraceData Tracer::snapshot() const {
  TraceData out;
  const auto& registry = EventTypeRegistry::get();
  out.types.reserve(kEventTypeCount);
  for (size_t i = 0; i < kEventTypeCount; ++i) {
    const auto t = static_cast<EventType>(i);
    out.types.emplace_back(static_cast<uint16_t>(i),
                           std::string(registry.name(t)));
  }
  // Linearize the ring: oldest survivor first.
  out.records.reserve(records_.size());
  out.records.insert(out.records.end(), records_.begin() + head_,
                     records_.end());
  out.records.insert(out.records.end(), records_.begin(),
                     records_.begin() + head_);
  out.names.assign(names_.begin(), names_.end());
  std::sort(out.names.begin(), out.names.end());
  out.dropped = dropped_;
  out.total_emitted = emitted_;
  return out;
}

void Tracer::flush() {
  if (flushed_) return;
  flushed_ = true;
  sink_->write(config_, snapshot());
}

}  // namespace dapes::trace
