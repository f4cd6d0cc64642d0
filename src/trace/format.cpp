#include "trace/format.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace dapes::trace {

namespace {

constexpr char kMagic[4] = {'D', 'T', 'R', 'C'};
constexpr char kEndMagic[4] = {'D', 'E', 'N', 'D'};
constexpr uint8_t kVersion = 2;

[[noreturn]] void malformed(const char* what, size_t pos) {
  throw std::runtime_error("trace: malformed file (" + std::string(what) +
                           " at byte " + std::to_string(pos) + ")");
}

void put_string(std::string& out, const std::string& s) {
  put_varint(out, s.size());
  out.append(s);
}

std::string get_string(const std::string& data, size_t& pos) {
  const uint64_t len = get_varint(data, pos);
  if (len > data.size() - pos) malformed("string length", pos);
  std::string s = data.substr(pos, len);
  pos += len;
  return s;
}

}  // namespace

const std::string* TraceData::name_of(uint64_t hash) const {
  auto it = std::lower_bound(
      names.begin(), names.end(), hash,
      [](const auto& entry, uint64_t h) { return entry.first < h; });
  if (it == names.end() || it->first != hash) return nullptr;
  return &it->second;
}

std::string TraceData::type_name(uint16_t type) const {
  for (const auto& [id, name] : types) {
    if (id == type) return name;
  }
  return "?";
}

void put_varint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

uint64_t get_varint(const std::string& data, size_t& pos) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= data.size()) malformed("truncated varint", pos);
    const uint8_t byte = static_cast<uint8_t>(data[pos++]);
    if (shift == 63 && (byte & 0x7e) != 0) malformed("varint overflow", pos);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) malformed("varint overflow", pos);
  }
}

std::string encode_trace(const TraceData& trace) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));

  put_varint(out, trace.types.size());
  for (const auto& [id, name] : trace.types) {
    put_varint(out, id);
    put_string(out, name);
  }

  put_varint(out, trace.records.size());
  int64_t prev_t = 0;
  for (const Record& r : trace.records) {
    if (r.t_us < prev_t) {
      throw std::runtime_error(
          "trace: records not in nondecreasing time order");
    }
    put_varint(out, static_cast<uint64_t>(r.t_us - prev_t));
    prev_t = r.t_us;
    put_varint(out, r.node == kNoNode ? 0 : uint64_t{r.node} + 1);
    put_varint(out, r.type);
    put_varint(out, r.name_hash);
    put_varint(out, r.narg);
    for (uint16_t i = 0; i < r.narg; ++i) put_varint(out, r.args[i]);
  }

  put_varint(out, trace.names.size());
  for (const auto& [hash, uri] : trace.names) {
    put_varint(out, hash);
    put_string(out, uri);
  }

  put_varint(out, trace.dropped);
  put_varint(out, trace.total_emitted);

  out.append(kEndMagic, sizeof(kEndMagic));
  return out;
}

TraceData decode_trace(const std::string& bytes) {
  size_t pos = 0;
  if (bytes.size() < sizeof(kMagic) + 1 ||
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    malformed("bad magic", 0);
  }
  pos = sizeof(kMagic);
  const uint8_t version = static_cast<uint8_t>(bytes[pos++]);
  if (version != kVersion) malformed("unsupported version", pos);

  TraceData trace;
  const uint64_t type_count = get_varint(bytes, pos);
  if (type_count > 4096) malformed("type table too large", pos);
  trace.types.reserve(type_count);
  for (uint64_t i = 0; i < type_count; ++i) {
    const uint64_t id = get_varint(bytes, pos);
    if (id > UINT16_MAX) malformed("type id out of range", pos);
    trace.types.emplace_back(static_cast<uint16_t>(id),
                             get_string(bytes, pos));
  }

  const uint64_t record_count = get_varint(bytes, pos);
  trace.records.reserve(
      std::min<uint64_t>(record_count, bytes.size() / 4 + 16));
  int64_t prev_t = 0;
  for (uint64_t i = 0; i < record_count; ++i) {
    Record r;
    const uint64_t dt = get_varint(bytes, pos);
    if (dt > static_cast<uint64_t>(INT64_MAX - prev_t)) {
      malformed("time overflow", pos);
    }
    r.t_us = prev_t + static_cast<int64_t>(dt);
    prev_t = r.t_us;
    const uint64_t node_plus1 = get_varint(bytes, pos);
    if (node_plus1 > uint64_t{kNoNode}) malformed("node out of range", pos);
    r.node = node_plus1 == 0 ? kNoNode : static_cast<uint32_t>(node_plus1 - 1);
    const uint64_t type = get_varint(bytes, pos);
    if (type > UINT16_MAX) malformed("type out of range", pos);
    r.type = static_cast<uint16_t>(type);
    r.name_hash = get_varint(bytes, pos);
    const uint64_t narg = get_varint(bytes, pos);
    if (narg > 3) malformed("too many args", pos);
    r.narg = static_cast<uint16_t>(narg);
    for (uint16_t a = 0; a < r.narg; ++a) r.args[a] = get_varint(bytes, pos);
    trace.records.push_back(r);
  }

  const uint64_t name_count = get_varint(bytes, pos);
  trace.names.reserve(
      std::min<uint64_t>(name_count, bytes.size() / 2 + 16));
  uint64_t prev_hash = 0;
  for (uint64_t i = 0; i < name_count; ++i) {
    const uint64_t hash = get_varint(bytes, pos);
    if (i > 0 && hash <= prev_hash) malformed("name dict not sorted", pos);
    prev_hash = hash;
    trace.names.emplace_back(hash, get_string(bytes, pos));
  }

  trace.dropped = get_varint(bytes, pos);
  trace.total_emitted = get_varint(bytes, pos);

  if (bytes.size() - pos != sizeof(kEndMagic) ||
      bytes.compare(pos, sizeof(kEndMagic), kEndMagic, sizeof(kEndMagic)) !=
          0) {
    malformed("bad end marker", pos);
  }
  return trace;
}

void write_trace_file(const std::string& path, const TraceData& trace) {
  const std::string bytes = encode_trace(trace);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (f == nullptr) {
    throw std::runtime_error("trace: cannot open output file " + path);
  }
  if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    throw std::runtime_error("trace: short write to " + path);
  }
}

TraceData read_trace_file(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) {
    throw std::runtime_error("trace: cannot open trace file " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    bytes.append(buf, n);
  }
  if (std::ferror(f.get())) {
    throw std::runtime_error("trace: read error on " + path);
  }
  return decode_trace(bytes);
}

}  // namespace dapes::trace
