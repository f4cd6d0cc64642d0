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
  slots_.resize(1);  // slot 0: unattributed emissions
}

void Tracer::ensure_node(uint32_t node) {
  const size_t want = static_cast<size_t>(node) + 2;
  if (slots_.size() < want) slots_.resize(want);
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

Tracer::Slot& Tracer::slot_for_context() {
  const uint32_t node = detail::t_node;
  if (node == kNoNode) return slots_[0];
  const size_t index = static_cast<size_t>(node) + 1;
  // An unregistered node (no ensure_node) falls back to the unattributed
  // slot rather than growing the table mid-run.
  return index < slots_.size() ? slots_[index] : slots_[0];
}

void Tracer::append(const Record& r, const std::function<std::string()>* uri) {
  Slot& slot = slot_for_context();
  ++slot.emitted;
  if (uri != nullptr && r.name_hash != 0 && slot.dict.size() < kDictCap) {
    slot.dict.try_emplace(r.name_hash, (*uri)());
  }
  if (capacity_ == 0) {
    ++slot.dropped;
    return;
  }
  if (slot.records.size() < capacity_) {
    slot.records.push_back(r);
    return;
  }
  // Ring full: overwrite the oldest record in place.
  slot.records[slot.head] = r;
  slot.head = (slot.head + 1) % slot.records.size();
  ++slot.dropped;
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

  // Linearize every slot (rings start at head), tagging each record with
  // its slot and per-slot index — the canonical tie-break.
  struct Tagged {
    uint32_t slot;
    uint32_t index;
  };
  std::vector<Record> records;
  std::vector<Tagged> tags;
  size_t total = 0;
  for (const Slot& slot : slots_) total += slot.records.size();
  records.reserve(total);
  tags.reserve(total);
  for (size_t si = 0; si < slots_.size(); ++si) {
    const Slot& slot = slots_[si];
    const size_t n = slot.records.size();
    for (size_t k = 0; k < n; ++k) {
      records.push_back(slot.records[(slot.head + k) % n]);
      tags.push_back({static_cast<uint32_t>(si), static_cast<uint32_t>(k)});
    }
  }
  std::vector<uint32_t> order(records.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (records[a].t_us != records[b].t_us) {
      return records[a].t_us < records[b].t_us;
    }
    if (tags[a].slot != tags[b].slot) return tags[a].slot < tags[b].slot;
    return tags[a].index < tags[b].index;
  });
  out.records.reserve(records.size());
  for (uint32_t i : order) out.records.push_back(records[i]);

  // Merge the slot dictionaries, sorted by hash. On a cross-slot hash
  // collision (distinct URIs, same FNV hash) keep the lexicographically
  // smallest URI so the merged dictionary is deterministic.
  for (const Slot& slot : slots_) {
    for (const auto& [hash, name] : slot.dict) {
      out.names.emplace_back(hash, name);
    }
  }
  std::sort(out.names.begin(), out.names.end());
  out.names.erase(
      std::unique(out.names.begin(), out.names.end(),
                  [](const auto& a, const auto& b) { return a.first == b.first; }),
      out.names.end());

  out.dropped_per_slot.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.dropped_per_slot.push_back(slot.dropped);
  }
  out.total_emitted = emitted();
  return out;
}

void Tracer::flush() {
  if (flushed_) return;
  flushed_ = true;
  sink_->write(config_, snapshot());
}

uint64_t Tracer::emitted() const {
  uint64_t n = 0;
  for (const Slot& slot : slots_) n += slot.emitted;
  return n;
}

uint64_t Tracer::dropped() const {
  uint64_t n = 0;
  for (const Slot& slot : slots_) n += slot.dropped;
  return n;
}

uint64_t Tracer::held() const {
  uint64_t n = 0;
  for (const Slot& slot : slots_) n += slot.records.size();
  return n;
}

}  // namespace dapes::trace
