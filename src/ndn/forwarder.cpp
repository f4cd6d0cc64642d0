#include "ndn/forwarder.hpp"

#include <algorithm>
#include <set>

#include "trace/trace.hpp"

namespace dapes::ndn {

void MulticastStrategy::after_receive_interest(Forwarder& fw, FaceId in_face,
                                               const Interest& interest,
                                               PitEntry& /*entry*/) {
  for (FaceId out : fw.fib().lookup(interest.name())) {
    if (out == in_face) continue;
    fw.send_interest_to(out, interest);
  }
}

Forwarder::Forwarder(sim::Scheduler& sched, Options options)
    : sched_(sched),
      options_(options),
      tree_(std::make_shared<NameTree>()),
      cs_(options.cs_capacity, tree_),
      pit_(tree_),
      fib_(tree_),
      strategy_(std::make_unique<MulticastStrategy>()) {}

FaceId Forwarder::add_face(std::shared_ptr<Face> face) {
  faces_.push_back(face);
  FaceId id = static_cast<FaceId>(faces_.size());
  face->set_id(id);
  face->set_receive_handlers(
      [this, id](const Interest& interest) {
        on_incoming_interest(id, interest);
      },
      [this, id](DataPtr data) { on_incoming_data(id, std::move(data)); });
  return id;
}

Face* Forwarder::face(FaceId id) {
  if (id == 0 || id > faces_.size()) return nullptr;
  return faces_[id - 1].get();
}

void Forwarder::set_strategy(std::unique_ptr<ForwardingStrategy> strategy) {
  strategy_ = std::move(strategy);
}

void Forwarder::send_interest_to(FaceId out_face, const Interest& interest) {
  Face* f = face(out_face);
  if (f == nullptr) return;
  ++stats_.interests_forwarded;
  f->send_interest(interest);
}

void Forwarder::send_data_to(FaceId out_face, DataPtr data) {
  Face* f = face(out_face);
  if (f == nullptr) return;
  ++stats_.data_forwarded;
  f->send_data(std::move(data));
}

void Forwarder::on_incoming_interest(FaceId in_face, Interest interest) {
  ++stats_.interests_in;
  Face* in = face(in_face);
  const bool from_network = in != nullptr && !in->is_local();

  if (from_network) {
    strategy_->on_overhear_interest(*this, in_face, interest);
    // Hop limit is decremented at each network hop; exhausted Interests
    // are accepted locally (CS/PIT) but never forwarded further — we
    // encode that by dropping them before PIT insert if already 0.
    if (interest.hop_limit() == 0) {
      ++stats_.hop_limit_drops;
      return;
    }
    interest.set_hop_limit(interest.hop_limit() - 1);
  }

  // Loop detection by (name, nonce).
  if (pit_.has_nonce(interest.name(), interest.nonce())) {
    ++stats_.loops_dropped;
    DAPES_TRACE_NAMED(trace::EventType::kPitLoopDrop, interest.name(),
                      static_cast<uint64_t>(interest.nonce()));
    return;
  }

  // Content Store.
  if (auto cached = cs_.find(interest.name(), interest.can_be_prefix(), sched_.now())) {
    ++stats_.cs_hits;
    if (in != nullptr) {
      ++stats_.data_forwarded;
      in->send_data(std::move(cached));
    }
    return;
  }

  // PIT.
  PitEntry* existing = pit_.find(interest.name());
  if (existing != nullptr) {
    ++stats_.pit_aggregated;
    DAPES_TRACE_NAMED(trace::EventType::kPitAggregate, interest.name());
    existing->nonces.insert(interest.nonce());
    if (std::find(existing->in_faces.begin(), existing->in_faces.end(),
                  in_face) == existing->in_faces.end()) {
      existing->in_faces.push_back(in_face);
    }
    return;
  }

  PitEntry& entry = pit_.insert(interest.name());
  entry.can_be_prefix = interest.can_be_prefix();
  entry.in_faces.push_back(in_face);
  entry.nonces.insert(interest.nonce());
  Name name = interest.name();
  entry.expiry_event =
      sched_.schedule(interest.lifetime(), [this, name] { on_pit_expiry(name); });

  strategy_->after_receive_interest(*this, in_face, interest, entry);
}

void Forwarder::on_incoming_data(FaceId in_face, DataPtr data) {
  ++stats_.data_in;
  Face* in = face(in_face);
  const bool from_network = in != nullptr && !in->is_local();
  if (from_network) {
    strategy_->on_overhear_data(*this, in_face, *data);
  }

  std::vector<Name> matched = pit_.matches_for_data(data->name());
  if (matched.empty()) {
    ++stats_.unsolicited_data;
    if (strategy_->cache_unsolicited(*this, in_face, *data)) {
      cs_.insert(std::move(data), sched_.now());
    }
    return;
  }

  cs_.insert(data, sched_.now());

  // Collect the union of downstream faces across all satisfied entries so
  // a broadcast face transmits the Data at most once. A broadcast face
  // that is both the Data's in-face and a recorded downstream still gets
  // the Data when we relayed the Interest ourselves (multi-hop reverse
  // path over a single radio).
  std::set<FaceId> out_faces;
  for (const Name& name : matched) {
    PitEntry* entry = pit_.find(name);
    if (entry == nullptr) continue;
    for (FaceId f : entry->in_faces) {
      if (f != in_face) {
        out_faces.insert(f);
        continue;
      }
      Face* downstream = face(f);
      if (entry->relayed_to_network && downstream != nullptr &&
          !downstream->is_local()) {
        out_faces.insert(f);
      }
    }
    for (uint32_t nonce : entry->nonces) {
      pit_.record_dead_nonce(name, nonce);
    }
    DAPES_TRACE_NAMED(trace::EventType::kPitSatisfy, name);
    sched_.cancel(entry->expiry_event);
    pit_.erase(name);
  }

  for (FaceId out : out_faces) {
    send_data_to(out, data);
  }
}

void Forwarder::on_pit_expiry(Name name) {
  PitEntry* entry = pit_.find(name);
  if (entry == nullptr) return;
  ++stats_.pit_timeouts;
  DAPES_TRACE_NAMED(trace::EventType::kPitExpire, name);
  for (uint32_t nonce : entry->nonces) {
    pit_.record_dead_nonce(name, nonce);
  }
  pit_.erase(name);
  strategy_->on_interest_timeout(*this, name);
}

}  // namespace dapes::ndn
