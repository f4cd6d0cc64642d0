#include "dapes/strategies.hpp"

#include "trace/trace.hpp"

namespace dapes::core {

namespace {

/// Shared expiry sweep for the per-name soft-state tables: erase entries
/// stamped strictly before @p cutoff (or equal, when @p inclusive), at
/// most once per @p interval and only once the table has outgrown
/// @p cap — amortized O(1) per insert, since entries younger than the
/// interval cannot be ripe yet.
void sweep_if_due(std::unordered_map<ndn::Name, TimePoint>& table,
                  TimePoint& last_sweep, TimePoint now, Duration interval,
                  size_t cap, TimePoint cutoff, bool inclusive) {
  if (table.size() <= cap || now - last_sweep < interval) return;
  last_sweep = now;
  for (auto it = table.begin(); it != table.end();) {
    if (it->second < cutoff || (inclusive && it->second == cutoff)) {
      it = table.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

PureForwarderStrategy::PureForwarderStrategy(sim::Scheduler& sched,
                                             common::Rng rng, Params params)
    : sched_(sched), rng_(rng), params_(params) {}

FaceId PureForwarderStrategy::wifi_face_of(Forwarder& fw) {
  for (const auto& face : fw.faces()) {
    if (!face->is_local()) return face->id();
  }
  return 0;
}

bool PureForwarderStrategy::is_suppressed(const Name& name) const {
  auto it = suppressed_until_.find(name);
  return it != suppressed_until_.end() && it->second > sched_.now();
}

void PureForwarderStrategy::relay(Forwarder& fw, const Interest& interest) {
  FaceId out = wifi_face_of(fw);
  if (out == 0) return;
  Duration delay = Duration::microseconds(static_cast<int64_t>(rng_.next_below(
      static_cast<uint64_t>(params_.forward_delay_window.us) + 1)));
  Name name = interest.name();
  DAPES_TRACE_NAMED(trace::EventType::kStratRelay, name,
                    static_cast<uint64_t>(delay.us));
  Interest copy = interest;
  relayed_[name] = sched_.now();
  if (interest.lifetime() > max_relayed_lifetime_) {
    max_relayed_lifetime_ = interest.lifetime();
  }
  // Sweep stale bookkeeping: relays satisfied by returning data never
  // reach on_interest_timeout, so without this the table grows for the
  // whole trial. An entry can only matter until its PIT entry times out
  // (at most one lifetime after the relay; doubled for margin), so the
  // cutoff never outruns a *pending* timer. One corner is deliberately
  // altered from the pre-sweep code: a stale satisfied-relay entry used
  // to make a later, unrelayed timeout of the same name suppress the
  // name anyway; once swept it no longer does (phantom suppression from
  // long-ago relays — the sweep only fires past cap + horizon, which
  // paper-scale runs never reach; their outputs stay byte-identical).
  Duration horizon = params_.relay_horizon;
  if (max_relayed_lifetime_ * 2 > horizon) horizon = max_relayed_lifetime_ * 2;
  sweep_if_due(relayed_, last_relayed_sweep_, sched_.now(), horizon,
               params_.name_state_cap, sched_.now() - horizon,
               /*inclusive=*/false);
  ++forwards_;
  sched_.schedule(delay, [this, &fw, out, copy, name] {
    // Only relay if still pending: the data may have arrived (or the
    // entry expired) while we waited.
    ndn::PitEntry* entry = fw.pit().find(name);
    if (entry == nullptr) return;
    entry->relayed_to_network = true;  // re-broadcast the returning Data
    fw.send_interest_to(out, copy);
  });
}

void PureForwarderStrategy::maybe_relay(Forwarder& fw,
                                        const Interest& interest,
                                        double probability) {
  if (is_suppressed(interest.name())) {
    ++suppressions_;
    DAPES_TRACE_NAMED(trace::EventType::kStratSuppress, interest.name(),
                      /*reason: suppression timer=*/0);
    return;
  }
  if (!rng_.chance(probability)) {
    ++suppressions_;
    DAPES_TRACE_NAMED(trace::EventType::kStratSuppress, interest.name(),
                      /*reason: probability draw=*/1);
    return;
  }
  relay(fw, interest);
}

void PureForwarderStrategy::deliver_local(Forwarder& fw, FaceId in_face,
                                          const Interest& interest) {
  for (FaceId out : fw.fib().lookup(interest.name())) {
    if (out == in_face) continue;
    Face* f = fw.face(out);
    if (f != nullptr && f->is_local()) {
      fw.send_interest_to(out, interest);
    }
  }
}

void PureForwarderStrategy::after_receive_interest(Forwarder& fw,
                                                   FaceId in_face,
                                                   const Interest& interest,
                                                   PitEntry& /*entry*/) {
  Face* in = fw.face(in_face);
  if (in != nullptr && in->is_local()) {
    // Local application Interests always go to the air.
    FaceId out = wifi_face_of(fw);
    if (out != 0) fw.send_interest_to(out, interest);
    return;
  }
  // Interests from the network first reach any local application
  // registered for the prefix; the relay decision is separate.
  deliver_local(fw, in_face, interest);
  maybe_relay(fw, interest, params_.forward_probability);
}

void PureForwarderStrategy::on_interest_timeout(Forwarder& /*fw*/,
                                                const Name& name) {
  auto it = relayed_.find(name);
  if (it == relayed_.end()) return;
  relayed_.erase(it);
  ++relay_timeouts_;
  DAPES_TRACE_NAMED(trace::EventType::kStratTimeout, name);
  // Forwarded but nothing came back: the data is (currently) not
  // reachable through us — suppress this name for a while (soft state).
  suppressed_until_[name] = sched_.now() + params_.suppression;
  // Expired suppression timers answer false anyway; sweeping them is
  // unobservable (values here are expiry times, so cutoff = now).
  sweep_if_due(suppressed_until_, last_suppressed_sweep_, sched_.now(),
               params_.suppression, params_.name_state_cap, sched_.now(),
               /*inclusive=*/true);
}

DapesIntermediateStrategy::DapesIntermediateStrategy(
    sim::Scheduler& sched, common::Rng rng, IntermediateParams params)
    : PureForwarderStrategy(sched, rng, params.base), iparams_(params) {}

void DapesIntermediateStrategy::learn_bitmap(const BitmapMessage& msg,
                                             TimePoint now) {
  auto [it, inserted] = knowledge_.try_emplace(msg.collection);
  CollectionKnowledge& k = it->second;
  if (inserted || k.layout.total_packets() != msg.bitmap.size()) {
    k.layout = CollectionLayout(msg.layout);
  }
  k.peer_bitmaps[msg.peer_id] = {msg.bitmap, now};
  k.last_heard = now;
}

void DapesIntermediateStrategy::on_overhear_interest(Forwarder& /*fw*/,
                                                     FaceId /*in_face*/,
                                                     const Interest& interest) {
  // Bitmap announcements carry the sender's bitmap in the parameters.
  if (!interest.has_app_parameters()) return;
  const Name& name = interest.name();
  if (name.size() < 2 || name[0] != ndn::Component(kAppPrefix) ||
      name[1] != ndn::Component(kBitmapComponent)) {
    return;
  }
  auto msg = BitmapMessage::decode(interest.app_parameters());
  if (msg) learn_bitmap(*msg, sched_.now());
}

void DapesIntermediateStrategy::on_overhear_data(Forwarder& /*fw*/,
                                                 FaceId /*in_face*/,
                                                 const ndn::Data& data) {
  if (is_control_name(data.name())) return;
  recent_data_[data.name()] = sched_.now();
  // Entries past the knowledge TTL already answer as missing; the
  // strict cutoff keeps stamps exactly at the TTL boundary, which
  // packet_availability still counts as fresh.
  sweep_if_due(recent_data_, last_recent_sweep_, sched_.now(),
               iparams_.knowledge_ttl, iparams_.recent_data_cap,
               sched_.now() - iparams_.knowledge_ttl, /*inclusive=*/false);
}

DapesIntermediateStrategy::Availability
DapesIntermediateStrategy::packet_availability(const Name& packet_name,
                                               TimePoint now) const {
  // Recently overheard exact transmission => available (cached nearby).
  if (auto it = recent_data_.find(packet_name); it != recent_data_.end()) {
    if (now - it->second <= iparams_.knowledge_ttl) {
      return Availability::kAvailable;
    }
  }
  // Match the packet name against known collection layouts.
  for (const auto& [collection, k] : knowledge_) {
    if (!collection.is_prefix_of(packet_name)) continue;
    auto parts = parse_packet_name(packet_name, collection.size());
    if (!parts) continue;
    auto index = k.layout.index_of(parts->file_name, parts->seq);
    if (!index) continue;
    size_t fresh = 0;
    for (const auto& [peer, entry] : k.peer_bitmaps) {
      if (now - entry.second > iparams_.knowledge_ttl) continue;
      ++fresh;
      if (*index < entry.first.size() && entry.first.test(*index)) {
        return Availability::kAvailable;
      }
    }
    if (fresh > 0) return Availability::kKnownMissing;
  }
  return Availability::kUnknown;
}

bool DapesIntermediateStrategy::collection_active(const Name& collection,
                                                  TimePoint now) const {
  auto it = knowledge_.find(collection);
  if (it == knowledge_.end()) return false;
  return now - it->second.last_heard <= iparams_.knowledge_ttl;
}

size_t DapesIntermediateStrategy::knowledge_bytes() const {
  size_t bytes = 0;
  for (const auto& [collection, k] : knowledge_) {
    bytes += collection.to_uri().size();
    for (const auto& f : k.layout.files()) {
      bytes += f.name.size() + sizeof(size_t);
    }
    for (const auto& [peer, entry] : k.peer_bitmaps) {
      bytes += peer.size() + (entry.first.size() + 7) / 8 + sizeof(TimePoint);
    }
  }
  bytes += recent_data_.size() * 48;  // name + timestamp estimate
  return bytes;
}

void DapesIntermediateStrategy::after_receive_interest(Forwarder& fw,
                                                       FaceId in_face,
                                                       const Interest& interest,
                                                       PitEntry& entry) {
  Face* in = fw.face(in_face);
  if (in != nullptr && in->is_local()) {
    PureForwarderStrategy::after_receive_interest(fw, in_face, interest,
                                                  entry);
    return;
  }

  deliver_local(fw, in_face, interest);

  const Name& name = interest.name();
  TimePoint now = sched_.now();

  if (is_control_name(name)) {
    // Discovery / bitmap Interests: forward when we know of peers nearby
    // that are interested in the same collection (it is beneficial for
    // the requester to learn their bitmaps); fall back to probabilistic.
    Name collection;
    if (name.size() > 2 && name[1] == ndn::Component(kBitmapComponent)) {
      // Bitmap name shape: /dapes/bitmap/<collection...>[/<peer>/<round>];
      // match against the collections we have knowledge about.
      for (const auto& [known, k] : knowledge_) {
        (void)k;
        if (is_bitmap_name_for(name, known)) {
          collection = known;
          break;
        }
      }
    }
    if (!collection.empty() && collection_active(collection, now)) {
      maybe_relay(fw, interest, iparams_.control_forward_probability);
    } else {
      maybe_relay(fw, interest, params_.forward_probability);
    }
    return;
  }

  switch (packet_availability(name, now)) {
    case Availability::kAvailable:
      ++knowledge_forwards_;
      DAPES_TRACE_NAMED(trace::EventType::kStratKnowledgeForward, name);
      relay(fw, interest);
      break;
    case Availability::kKnownMissing:
      // Speculate the forward would not bring data back: suppress.
      ++knowledge_suppressions_;
      ++suppressions_;
      DAPES_TRACE_NAMED(trace::EventType::kStratKnowledgeSuppress, name);
      break;
    case Availability::kUnknown:
      maybe_relay(fw, interest, params_.forward_probability);
      break;
  }
}

}  // namespace dapes::core
