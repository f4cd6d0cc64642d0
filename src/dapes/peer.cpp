#include "dapes/peer.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/trace.hpp"

namespace dapes::core {

namespace {

constexpr const char* kLog = "dapes-peer";

/// Strategy subclass that tees overheard packets to the peer application
/// (bitmap announcements, discovery responses, opportunistic data) on top
/// of the intermediate node's own knowledge building.
class PeerStrategy final : public DapesIntermediateStrategy {
 public:
  PeerStrategy(sim::Scheduler& sched, common::Rng rng,
               IntermediateParams params,
               std::function<void(const ndn::Interest&)> on_interest,
               std::function<void(const ndn::Data&)> on_data)
      : DapesIntermediateStrategy(sched, rng, params),
        peer_on_interest_(std::move(on_interest)),
        peer_on_data_(std::move(on_data)) {}

  void on_overhear_interest(Forwarder& fw, FaceId in_face,
                            const Interest& interest) override {
    DapesIntermediateStrategy::on_overhear_interest(fw, in_face, interest);
    peer_on_interest_(interest);
  }

  void on_overhear_data(Forwarder& fw, FaceId in_face,
                        const ndn::Data& data) override {
    DapesIntermediateStrategy::on_overhear_data(fw, in_face, data);
    peer_on_data_(data);
  }

 private:
  std::function<void(const ndn::Interest&)> peer_on_interest_;
  std::function<void(const ndn::Data&)> peer_on_data_;
};

}  // namespace

Peer::Peer(sim::Scheduler& sched, sim::Medium& medium,
           sim::MobilityModel* mobility, common::Rng rng, PeerOptions options)
    : sched_(sched),
      medium_(medium),
      rng_(rng),
      options_(std::move(options)),
      peba_(options_.peba),
      discovery_period_(options_.discovery_period_min) {
  key_ = keychain_.generate_key(options_.id);

  wifi_face_ = nullptr;  // created after node registration (needs radio)
  node_ = medium_.add_node(
      mobility,
      [this](const sim::FramePtr& frame, sim::NodeId /*receiver*/) {
        if (wifi_face_) wifi_face_->on_frame(frame);
      },
      /*alive=*/!options_.latent);
  radio_ = std::make_unique<sim::Radio>(sched_, medium_, node_, rng_.fork());
  forwarder_ = std::make_unique<ndn::Forwarder>(
      sched_, ndn::Forwarder::Options{options_.cs_capacity});

  wifi_face_ = std::make_shared<ndn::WifiFace>(sched_, *radio_, node_,
                                               rng_.fork(), options_.tx_window);
  app_face_ = std::make_shared<ndn::AppFace>();
  app_face_->set_app_handlers(
      [this](const ndn::Interest& i) { on_app_interest(i); },
      [this](const ndn::Data& d) { on_app_data(d); });

  forwarder_->add_face(wifi_face_);
  forwarder_->add_face(app_face_);

  DapesIntermediateStrategy::IntermediateParams sparams;
  sparams.base.forward_probability =
      options_.multihop ? options_.forward_probability : 0.0;
  auto strategy = std::make_unique<PeerStrategy>(
      sched_, rng_.fork(), sparams,
      [this](const ndn::Interest& i) { on_overheard_interest(i); },
      [this](const ndn::Data& d) { on_overheard_data(d); });
  strategy_ = strategy.get();
  forwarder_->set_strategy(std::move(strategy));

  forwarder_->fib().add_route(discovery_prefix(), app_face_->id());
}

void Peer::start() {
  // Desynchronize peers' discovery loops.
  Duration initial = Duration::microseconds(static_cast<int64_t>(
      rng_.next_below(static_cast<uint64_t>(discovery_period_.us) + 1)));
  sched_.schedule(initial, [this] { discovery_tick(); });
}

void Peer::crash() {
  // The harness has already retired the node on the medium and swept its
  // scheduled events; here we drop the volatile state those events were
  // driving so a later restart() begins from a clean power-on.
  radio_->reset();
  wifi_face_->reset();
  neighbors_.clear();
  discovery_period_ = options_.discovery_period_min;
  for (auto& [name, st] : downloads_) {
    st.in_flight.clear();
    st.adv_timer = sim::EventId{};
    st.adv_pending = false;
    st.union_valid = false;
    st.bitmaps_heard_this_round = 0;
    st.collision_round = 0;
    if (!st.completed_at) st.fetching_enabled = false;
    // The metadata retry timer (which clears this flag on silence) was
    // swept with the rest of our events; without this reset a crash
    // mid-retrieval would wedge the download forever.
    if (!st.metadata) st.metadata_requested = false;
    // `have`, retry_count, completed_at and the RPF survive: downloaded
    // packets are on disk, and encounter history is durable by design.
  }
}

void Peer::restart() {
  // Same entry point as the initial start: a fresh discovery dither.
  start();
}

void Peer::publish(std::shared_ptr<Collection> collection) {
  const Name& name = collection->name();
  DownloadState& st = downloads_[name];
  st.oracle = collection;
  st.metadata = collection->metadata();
  st.layout = collection->layout();
  st.have = Bitmap(collection->total_packets());
  for (size_t i = 0; i < st.have.size(); ++i) st.have.set(i);
  st.completed_at = sched_.now();
  st.metadata_name = collection->metadata().name_prefix();
  RpfOptions ro;
  ro.total_packets = collection->total_packets();
  ro.random_start = options_.random_start;
  ro.history_limit = options_.encounter_history;
  ro.seed = rng_.next();
  st.rpf = make_fetch_strategy(options_.rpf, ro);
  keychain_.import_key(key_);
  forwarder_->fib().add_route(name, app_face_->id());
}

void Peer::subscribe(std::shared_ptr<Collection> collection) {
  const Name& name = collection->name();
  if (downloads_.contains(name)) return;
  DownloadState& st = downloads_[name];
  st.oracle = std::move(collection);
  st.have = Bitmap(0);  // sized once the metadata arrives
  forwarder_->fib().add_route(name, app_face_->id());
}

void Peer::add_trust_anchor(const crypto::KeyId& producer) {
  keychain_.add_trust_anchor(producer);
}

bool Peer::complete(const Name& collection) const {
  auto it = downloads_.find(collection);
  return it != downloads_.end() && it->second.completed_at.has_value();
}

std::optional<common::TimePoint> Peer::completion_time(
    const Name& collection) const {
  auto it = downloads_.find(collection);
  if (it == downloads_.end()) return std::nullopt;
  return it->second.completed_at;
}

double Peer::progress(const Name& collection) const {
  auto it = downloads_.find(collection);
  if (it == downloads_.end() || it->second.have.empty()) return 0.0;
  return it->second.have.completeness();
}

Peer::DownloadDebug Peer::debug_download(const Name& collection) const {
  DownloadDebug dbg;
  auto it = downloads_.find(collection);
  if (it == downloads_.end()) return dbg;
  const DownloadState& st = it->second;
  dbg.has_metadata = st.metadata.has_value();
  dbg.fetching_enabled = st.fetching_enabled;
  dbg.progress = st.have.empty() ? 0.0 : st.have.completeness();
  dbg.in_flight = st.in_flight.size();
  dbg.known_bitmaps = st.rpf ? st.rpf->known_bitmaps() : 0;
  for (const auto& [id, info] : neighbors_) {
    if (sched_.now() - info.last_heard <= options_.neighbor_ttl) {
      ++dbg.fresh_neighbors;
    }
  }
  return dbg;
}

size_t Peer::knowledge_bytes() const {
  size_t bytes = 0;
  if (strategy_ != nullptr) bytes += strategy_->knowledge_bytes();
  for (const auto& [name, st] : downloads_) {
    bytes += (st.have.size() + 7) / 8;
    if (st.rpf) bytes += st.rpf->state_bytes();
  }
  for (const auto& [id, info] : neighbors_) {
    bytes += id.size() + info.offered_metadata.size() * 48;
  }
  return bytes;
}

size_t Peer::state_bytes() const {
  size_t bytes = forwarder_->cs().content_bytes() + knowledge_bytes();
  for (const auto& [name, st] : downloads_) {
    if (st.metadata) bytes += st.metadata->encode().size();
  }
  return bytes;
}

// --------------------------------------------------------------------
// Wiring

void Peer::express(ndn::Interest interest) {
  interest.set_nonce(static_cast<uint32_t>(rng_.next()));
  interest.set_lifetime(options_.interest_lifetime);
  ++interests_expressed_;
  app_face_->express(interest);
}

void Peer::on_app_interest(const ndn::Interest& interest) {
  const Name& name = interest.name();
  if (discovery_prefix().is_prefix_of(name)) {
    handle_discovery_interest(interest);
    return;
  }
  if (is_control_name(name)) {
    return;  // bitmap announcements are handled via overhearing
  }
  serve_interest(interest);
}

void Peer::on_app_data(const ndn::Data& data) {
  const Name& name = data.name();
  if (discovery_prefix().is_prefix_of(name)) {
    handle_discovery_data(data);
    return;
  }
  if (is_metadata_name(name)) {
    if (auto collection = collection_of_metadata_name(name)) {
      if (DownloadState* st = state_for(*collection)) {
        handle_metadata_segment(*st, data);
      }
    }
    return;
  }
  handle_collection_data(data);
}

// --------------------------------------------------------------------
// Step 1: discovery

void Peer::discovery_tick() {
  prune_neighbors();
  send_discovery_interest();

  // Adaptive period: frequent while peers are around, backing off toward
  // the maximum in isolation (paper §IV-B).
  bool have_fresh_neighbor = false;
  for (const auto& [id, info] : neighbors_) {
    if (sched_.now() - info.last_heard <= options_.neighbor_ttl) {
      have_fresh_neighbor = true;
      break;
    }
  }
  if (have_fresh_neighbor) {
    discovery_period_ = options_.discovery_period_min;
  } else {
    discovery_period_ =
        std::min(Duration{discovery_period_.us * 2},
                 options_.discovery_period_max);
  }
  Duration jitter = Duration::microseconds(static_cast<int64_t>(
      rng_.next_below(static_cast<uint64_t>(discovery_period_.us / 4) + 1)));
  sched_.schedule(discovery_period_ + jitter, [this] { discovery_tick(); });
}

void Peer::send_discovery_interest() {
  ndn::Interest interest(discovery_query_name(rng_.next()));
  interest.set_can_be_prefix(true);
  interest.set_hop_limit(2);
  ++stats_.discovery_interests_sent;
  express(std::move(interest));
}

void Peer::handle_discovery_interest(const ndn::Interest& interest) {
  // Respond with the metadata names of the collections we can offer.
  // The response appends our id to the query name, so several peers can
  // answer the same query under distinct names.
  if (!is_discovery_query(interest.name())) return;  // a response echo
  DiscoveryMessage msg;
  msg.peer_id = options_.id;
  for (const auto& [name, st] : downloads_) {
    if (st.metadata && !st.have.none()) {
      msg.metadata_names.push_back(st.metadata_name);
    }
  }
  if (msg.metadata_names.empty()) return;

  ndn::Data response(discovery_response_name(interest.name(), options_.id));
  response.set_content(msg.encode());
  response.set_freshness(Duration::milliseconds(500));
  response.sign(key_);
  ++stats_.discovery_responses_sent;
  app_face_->put(response);
}

void Peer::handle_discovery_data(const ndn::Data& data) {
  auto msg = DiscoveryMessage::decode(data.content());
  if (!msg || msg->peer_id == options_.id) return;
  bool fresh_encounter = touch_neighbor(msg->peer_id);
  NeighborInfo& info = neighbors_[msg->peer_id];

  for (const Name& metadata_name : msg->metadata_names) {
    info.offered_metadata.insert(metadata_name);
    auto collection = collection_of_metadata_name(metadata_name);
    if (!collection) continue;
    DownloadState* st = state_for(*collection);
    if (st == nullptr) continue;  // not interested in this collection

    if (!st->metadata) {
      // First sighting of a collection of interest: fetch + authenticate
      // the metadata (step 2).
      if (st->metadata_name.empty()) st->metadata_name = metadata_name;
      if (!st->metadata_requested) request_metadata(*st);
    } else if (fresh_encounter ||
               (!st->completed_at &&
                sched_.now() - st->last_round_start > Duration::seconds(5.0))) {
      // A peer (re)entered range with this collection — or we are still
      // incomplete with a holder around (announcements can be lost; the
      // encounter must not stall on one missing bitmap). Complete peers
      // only participate on fresh encounters or when solicited by
      // another peer's announcement.
      begin_advertisement_round(*collection);
    }
  }
}

// --------------------------------------------------------------------
// Step 2: metadata retrieval + authentication

void Peer::request_metadata(DownloadState& st) {
  st.metadata_requested = true;
  if (st.metadata_total_segments == 0) {
    // Total unknown until the first segment arrives.
    request_metadata_segment(st, 0);
    return;
  }
  // Re-request every still-missing segment (burst; the radio serializes).
  for (uint64_t s = 0; s < st.metadata_total_segments; ++s) {
    if (!st.metadata_segments.contains(s)) {
      request_metadata_segment(st, s);
    }
  }
}

void Peer::request_metadata_segment(DownloadState& st, uint64_t segment) {
  if (st.metadata_segments.contains(segment)) return;
  Name name = metadata_segment_name(st.metadata_name, segment);
  ndn::Interest interest(name);
  interest.set_hop_limit(4);
  express(std::move(interest));

  // Retry on silence: clears the "requested" flag so the next discovery
  // of a holder re-triggers the fetch.
  Name coll_key;
  for (auto& [key, state] : downloads_) {
    if (&state == &st) {
      coll_key = key;
      break;
    }
  }
  sched_.schedule(options_.interest_lifetime + Duration::milliseconds(200),
                  [this, coll_key, segment] {
                    DownloadState* state = state_for(coll_key);
                    if (state == nullptr || state->metadata) return;
                    if (!state->metadata_segments.contains(segment)) {
                      state->metadata_requested = false;
                    }
                  });
}

void Peer::handle_metadata_segment(DownloadState& st, const ndn::Data& data) {
  if (st.metadata) return;  // already have it
  if (!st.metadata_name.is_prefix_of(data.name())) return;
  auto seq = data.name()[data.name().size() - 1].to_number();
  if (!seq) return;

  // Authenticate: the producer's signature must verify and the producer
  // must be trusted via local anchors (paper §III).
  if (!data.verify(keychain_) ||
      !keychain_.is_trusted(data.signature()->signer)) {
    ++stats_.metadata_rejected;
    return;
  }

  st.metadata_segments[*seq] = common::Bytes(data.content().begin(),
                                             data.content().end());
  size_t total = Metadata::segment_count_of(data.content());
  if (total == 0) return;
  const bool total_was_unknown = st.metadata_total_segments == 0;
  st.metadata_total_segments = total;

  bool complete = true;
  for (uint64_t s = 0; s < total; ++s) {
    if (!st.metadata_segments.contains(s)) {
      complete = false;
      // Learning the total unlocks requesting the rest in one burst.
      if (total_was_unknown) request_metadata_segment(st, s);
    }
  }
  if (complete) finish_metadata(st);
}

void Peer::finish_metadata(DownloadState& st) {
  std::vector<common::Bytes> segments;
  segments.reserve(st.metadata_total_segments);
  for (uint64_t s = 0; s < st.metadata_total_segments; ++s) {
    segments.push_back(st.metadata_segments[s]);
  }
  auto meta = Metadata::from_segments(segments);
  if (!meta) {
    ++stats_.metadata_rejected;
    st.metadata_segments.clear();
    st.metadata_requested = false;
    return;
  }
  st.metadata = std::move(*meta);
  st.layout = st.metadata->layout();
  st.have = Bitmap(st.metadata->total_packets());
  RpfOptions ro;
  ro.total_packets = st.metadata->total_packets();
  ro.random_start = options_.random_start;
  ro.history_limit = options_.encounter_history;
  ro.seed = rng_.next();
  st.rpf = make_fetch_strategy(options_.rpf, ro);
  st.metadata_segments.clear();

  DAPES_LOG_DEBUG(kLog) << options_.id << " got metadata for "
                        << st.metadata->collection().to_uri() << " ("
                        << st.have.size() << " packets)";
  begin_advertisement_round(st.metadata->collection());
}

// --------------------------------------------------------------------
// Step 3: advertisements, prioritization, PEBA

double Peer::provide_fraction(const DownloadState& st) const {
  if (!st.union_valid) return st.have.completeness();
  size_t missing = st.have.size() - st.transmitted_union.count();
  if (missing == 0) return 0.0;
  size_t provide = st.have.count_set_and_missing_from(st.transmitted_union);
  return static_cast<double>(provide) / static_cast<double>(missing);
}

void Peer::begin_advertisement_round(const Name& collection) {
  DownloadState* st = state_for(collection);
  if (st == nullptr || !st->metadata) return;
  if (st->adv_pending) return;  // round already in progress
  // One round per encounter window; repeated discovery responses from the
  // same group of peers must not restart the round and reset the gate.
  if (sched_.now() - st->last_round_start < Duration::seconds(3.0)) return;
  st->last_round_start = sched_.now();
  ++st->adv_round;
  st->transmitted_union = Bitmap(st->have.size());
  st->union_valid = false;
  st->bitmaps_heard_this_round = 0;
  st->collision_round = 0;
  // Per-encounter gating (Fig. 9c/9d): data fetching re-opens once enough
  // bitmaps from this round are in.
  st->fetching_enabled = false;
  schedule_bitmap_announcement(collection, /*initial=*/true);

  // Fallback: if the gate threshold is never met (announcements lost,
  // neighbors moved away), fetch anyway once at least one bitmap arrived.
  Name coll = collection;
  uint64_t round = st->adv_round;
  sched_.schedule(Duration::seconds(2.0), [this, coll, round] {
    DownloadState* state = state_for(coll);
    if (state == nullptr || state->adv_round != round) return;
    if (!state->fetching_enabled && state->bitmaps_heard_this_round > 0) {
      state->fetching_enabled = true;
      pump_fetch(coll);
    }
  });
}

void Peer::schedule_bitmap_announcement(const Name& collection, bool initial) {
  DownloadState* st = state_for(collection);
  if (st == nullptr || !st->metadata) return;
  if (st->adv_timer.valid()) sched_.cancel(st->adv_timer);

  double fraction =
      initial ? st->have.completeness() : provide_fraction(*st);
  Duration delay;
  if (st->collision_round > 0 && options_.use_peba) {
    delay = peba_.backoff_delay(st->collision_round, fraction, rng_);
  } else {
    delay = peba_.priority_delay(fraction);
    if (st->collision_round > 0) {
      // Without PEBA, retry with the same linear rule plus a tiny jitter —
      // peers with similar holdings keep colliding (Fig. 9b).
      delay = delay + Duration::microseconds(static_cast<int64_t>(
                          rng_.next_below(1000)));
    }
  }
  st->adv_pending = true;
  Name coll = collection;
  st->adv_timer =
      sched_.schedule(delay, [this, coll] { send_bitmap_announcement(coll); });
}

void Peer::send_bitmap_announcement(const Name& collection) {
  DownloadState* st = state_for(collection);
  if (st == nullptr || !st->metadata) return;
  st->adv_pending = false;
  st->adv_timer = sim::EventId{};

  BitmapMessage msg;
  msg.peer_id = options_.id;
  msg.collection = collection;
  msg.round = st->adv_round;
  msg.layout = st->layout.files();
  msg.bitmap = st->have;
  if (options_.lie_in_bitmaps) {
    // Adversarial peer: claim everything, serve nothing (serve_interest
    // still consults the real `have`, so the lie never produces data).
    for (size_t i = 0; i < msg.bitmap.size(); ++i) msg.bitmap.set(i);
    DAPES_TRACE_EVENT(trace::EventType::kPeerLied, node_,
                      static_cast<uint64_t>(msg.bitmap.size()),
                      static_cast<uint64_t>(st->have.count()));
  }

  ndn::Interest interest(
      bitmap_data_name(collection, options_.id, st->adv_round));
  interest.set_app_parameters(msg.encode());
  interest.set_lifetime(Duration::milliseconds(500));
  interest.set_hop_limit(2);
  ++stats_.bitmap_announcements_sent;

  // PEBA hooks into the radio's collision feedback for this transmission.
  // Retransmission triggers only when the announcement was corrupted for
  // the majority of in-range receivers — isolated hidden-terminal losses
  // don't count as prioritization contention.
  Name coll = collection;
  wifi_face_->set_next_interest_tx_callback(
      [this, coll](const sim::Medium::TxReport& report) {
        DownloadState* state = state_for(coll);
        if (state == nullptr) return;
        if (report.mostly_collided()) {
          ++stats_.bitmap_collisions_detected;
          if (state->collision_round < 6) {
            ++state->collision_round;
            schedule_bitmap_announcement(coll, /*initial=*/false);
          }
        } else {
          state->collision_round = 0;
        }
      });
  express(std::move(interest));
}

void Peer::handle_bitmap_message(const BitmapMessage& msg) {
  if (msg.peer_id == options_.id) return;
  touch_neighbor(msg.peer_id);
  DownloadState* st = state_for(msg.collection);
  if (st == nullptr || !st->metadata) return;

  // A received bitmap announcement also acts as a bitmap Interest
  // (paper §IV-D): reciprocate with our own bitmap unless a round is
  // already pending or we announced very recently (cooldown inside
  // begin_advertisement_round).
  begin_advertisement_round(msg.collection);
  st = state_for(msg.collection);

  if (st->rpf) st->rpf->on_bitmap(msg.peer_id, msg.bitmap, sched_.now());

  if (!st->union_valid) {
    st->transmitted_union = Bitmap(st->have.size());
    st->union_valid = true;
  }
  st->transmitted_union.or_with(msg.bitmap);
  ++st->bitmaps_heard_this_round;

  // Paper §IV-F: hearing a bitmap cancels our pending transmission and
  // reschedules it by how much we can still offer.
  if (st->adv_pending) {
    schedule_bitmap_announcement(msg.collection, /*initial=*/false);
  }

  // Fetch gating (Fig. 9c/9d): interleaved starts after the first bitmap;
  // bitmaps-first waits for b (0 = all neighbors offering the collection).
  if (!st->fetching_enabled) {
    size_t threshold;
    size_t offering_now = 0;
    for (const auto& [id, info] : neighbors_) {
      if (sched_.now() - info.last_heard > options_.neighbor_ttl) continue;
      for (const Name& m : info.offered_metadata) {
        auto coll = collection_of_metadata_name(m);
        if (coll && *coll == msg.collection) {
          ++offering_now;
          break;
        }
      }
    }
    if (options_.advertisement_mode == AdvertisementMode::kInterleaved) {
      threshold = 1;
    } else if (options_.bitmaps_before_data > 0) {
      // Cannot wait for more bitmaps than there are peers to send them.
      threshold = std::max<size_t>(
          1, std::min<size_t>(
                 static_cast<size_t>(options_.bitmaps_before_data),
                 std::max<size_t>(offering_now, 1)));
    } else {
      // "all bitmaps": every fresh neighbor that offers this collection.
      threshold = std::max<size_t>(offering_now, 1);
    }
    if (st->bitmaps_heard_this_round >= threshold) {
      st->fetching_enabled = true;
    }
  }
  if (st->fetching_enabled) pump_fetch(msg.collection);
}

// --------------------------------------------------------------------
// Step 4: data fetching

void Peer::pump_fetch(const Name& collection) {
  DownloadState* st = state_for(collection);
  if (st == nullptr || !st->metadata || !st->fetching_enabled) return;
  if (st->completed_at && st->have.full()) return;

  if (options_.knowledge_ttl.us > 0 && st->rpf) {
    st->rpf->expire_older_than(sched_.now() - options_.knowledge_ttl);
  }

  // Without any fresh neighbor there is nobody to answer; stay quiet
  // until the next encounter.
  bool fresh = false;
  for (const auto& [id, info] : neighbors_) {
    if (sched_.now() - info.last_heard <= options_.neighbor_ttl) {
      fresh = true;
      break;
    }
  }
  if (!fresh) return;

  while (st->in_flight.size() <
         static_cast<size_t>(options_.interest_window)) {
    auto index = st->rpf->select_next(st->have, st->in_flight);
    if (!index) break;
    request_packet(*st, collection, *index);
  }
}

void Peer::request_packet(DownloadState& st, const Name& collection,
                          size_t index) {
  st.in_flight.insert(index);
  auto loc = st.layout.locate(index);
  Name name = packet_name(collection, loc.file_name, loc.seq);
  ndn::Interest interest(name);
  interest.set_hop_limit(4);
  ++stats_.data_interests_sent;
  express(std::move(interest));

  Name coll = collection;
  sched_.schedule(options_.interest_lifetime + Duration::milliseconds(100),
                  [this, coll, index] { handle_packet_timeout(coll, index); });
}

void Peer::handle_packet_timeout(const Name& collection, size_t index) {
  DownloadState* st = state_for(collection);
  if (st == nullptr) return;
  auto it = st->in_flight.find(index);
  if (it == st->in_flight.end()) return;  // satisfied in the meantime
  st->in_flight.erase(it);
  ++st->retry_count[index];
  ++stats_.interest_timeouts;
  if (options_.stale_retry_limit > 0 && st->rpf &&
      st->retry_count[index] % options_.stale_retry_limit == 0) {
    // Every known holder of this packet failed to answer a full retry
    // budget: the availability claims are stale (departed holder) or
    // false (liar). Demote them so the plan moves on.
    st->rpf->on_fetch_failed(index);
  }
  pump_fetch(collection);
}

void Peer::handle_collection_data(const ndn::Data& data) {
  Name collection;
  DownloadState* st = state_for_packet_name(data.name(), &collection);
  if (st == nullptr || !st->metadata) return;

  auto parts = parse_packet_name(data.name(), collection.size());
  if (!parts) return;
  auto index = st->layout.index_of(parts->file_name, parts->seq);
  if (!index) return;

  st->in_flight.erase(*index);
  if (st->have.test(*index)) return;  // duplicate

  // Integrity (paper §IV-C): digest metadata verifies per packet; the
  // Merkle format defers to whole-file verification at completion.
  size_t file_index = 0;
  for (size_t i = 0; i < st->metadata->files().size(); ++i) {
    if (st->metadata->files()[i].name == parts->file_name) {
      file_index = i;
      break;
    }
  }
  auto verdict = st->metadata->verify_packet(file_index, parts->seq,
                                              data.content());
  if (verdict.has_value() && !*verdict) {
    ++stats_.integrity_failures;
    pump_fetch(collection);
    return;
  }

  st->have.set(*index);
  ++stats_.data_packets_received;
  maybe_complete(collection, *st);
  pump_fetch(collection);
}

void Peer::maybe_complete(const Name& collection, DownloadState& st) {
  if (st.completed_at || !st.have.full()) return;
  st.completed_at = sched_.now();
  DAPES_LOG_INFO(kLog) << options_.id << " completed "
                       << collection.to_uri() << " at "
                       << common::format_time(sched_.now());
  if (on_complete_) on_complete_(collection, sched_.now());
}

// --------------------------------------------------------------------
// Serving

void Peer::serve_interest(const ndn::Interest& interest) {
  const Name& name = interest.name();

  // Metadata segments.
  if (is_metadata_name(name)) {
    auto collection = collection_of_metadata_name(name);
    if (!collection) return;
    DownloadState* st = state_for(*collection);
    if (st == nullptr || !st->metadata || !st->oracle) return;
    if (!st->metadata_name.is_prefix_of(name)) return;
    for (const auto& segment : st->oracle->metadata_packets()) {
      if (segment.name() == name ||
          (interest.can_be_prefix() && name.is_prefix_of(segment.name()))) {
        app_face_->put(segment);
        return;
      }
    }
    return;
  }

  // Collection packets.
  Name collection;
  DownloadState* st = state_for_packet_name(name, &collection);
  if (st == nullptr || !st->oracle || st->have.empty()) return;
  auto parts = parse_packet_name(name, collection.size());
  if (!parts) return;
  auto index = st->layout.index_of(parts->file_name, parts->seq);
  if (!index || !st->have.test(*index)) return;
  ++stats_.data_packets_served;
  app_face_->put(st->oracle->packet(*index));
}

// --------------------------------------------------------------------
// Overhearing

void Peer::on_overheard_interest(const ndn::Interest& interest) {
  const Name& name = interest.name();
  if (name.size() >= 2 && name[0] == ndn::Component(kAppPrefix) &&
      name[1] == ndn::Component(kBitmapComponent) &&
      interest.has_app_parameters()) {
    auto msg = BitmapMessage::decode(interest.app_parameters());
    if (msg) handle_bitmap_message(*msg);
  }
}

void Peer::on_overheard_data(const ndn::Data& data) {
  const Name& name = data.name();
  if (discovery_prefix().is_prefix_of(name)) {
    handle_discovery_data(data);
    return;
  }
  if (is_metadata_name(name)) {
    if (auto collection = collection_of_metadata_name(name)) {
      if (DownloadState* st = state_for(*collection)) {
        handle_metadata_segment(*st, data);
      }
    }
    return;
  }
  // Opportunistic capture: every broadcast data packet is useful to every
  // peer missing it (the heart of "maximizing the utility of
  // transmissions").
  handle_collection_data(data);
}

// --------------------------------------------------------------------
// Neighbor bookkeeping

bool Peer::touch_neighbor(const std::string& peer_id) {
  auto [it, inserted] = neighbors_.try_emplace(peer_id);
  bool fresh_encounter =
      inserted ||
      sched_.now() - it->second.last_heard > options_.neighbor_ttl;
  it->second.last_heard = sched_.now();
  return fresh_encounter;
}

void Peer::prune_neighbors() {
  for (auto it = neighbors_.begin(); it != neighbors_.end();) {
    if (sched_.now() - it->second.last_heard >
        Duration{options_.neighbor_ttl.us * 2}) {
      for (auto& [coll, st] : downloads_) {
        if (st.rpf) st.rpf->on_neighbor_lost(it->first);
      }
      it = neighbors_.erase(it);
    } else {
      ++it;
    }
  }
}

Peer::DownloadState* Peer::state_for(const Name& collection) {
  auto it = downloads_.find(collection);
  return it == downloads_.end() ? nullptr : &it->second;
}

Peer::DownloadState* Peer::state_for_packet_name(const Name& name,
                                                 Name* collection_out) {
  for (auto& [collection, st] : downloads_) {
    if (collection.size() + 2 == name.size() &&
        collection.is_prefix_of(name)) {
      if (collection_out != nullptr) *collection_out = collection;
      return &st;
    }
  }
  return nullptr;
}

}  // namespace dapes::core
