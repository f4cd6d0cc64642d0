/// @file
/// The DAPES peer application (paper §III, Fig. 3).
///
/// A Peer owns a full node stack — radio, NFD-lite forwarder with a
/// DAPES-intermediate strategy, and the application logic that drives the
/// four-step loop:
///   1. discover neighbors and file collections (adaptive-period discovery
///      Interests, §IV-B);
///   2. retrieve and authenticate collection metadata on first contact
///      (§IV-C);
///   3. advertise available collection data via prioritized, PEBA-scheduled
///      bitmap announcements (§IV-D, §IV-F);
///   4. fetch collection data with an RPF strategy (§IV-E), either after b
///      bitmaps ("bitmaps first") or interleaved with advertisements.
///
/// Producers publish() a Collection and serve its packets; every peer that
/// completes a collection keeps serving it (seeding). Stationary
/// repositories are just Peers with StationaryMobility.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/keychain.hpp"
#include "dapes/collection.hpp"
#include "dapes/messages.hpp"
#include "dapes/rpf.hpp"
#include "dapes/strategies.hpp"
#include "ndn/forwarder.hpp"
#include "sim/medium.hpp"
#include "sim/radio.hpp"

namespace dapes::core {

/// A peer forgets neighbors not heard for this long; neighbors heard
/// within it count as fresh (discovery, fetching, bitmap gating).
inline constexpr common::Duration kNeighborTtl =
    common::Duration::seconds(12.0);

/// How bitmap exchanges relate to data fetching (paper §IV-D, Fig. 9c/9d).
enum class AdvertisementMode {
  /// Collect `bitmaps_before_data` bitmaps, then fetch.
  kBitmapsFirst,
  /// Start fetching as soon as the first bitmap is known.
  kInterleaved,
};

/// Every knob of a Peer, grouped by the figure that sweeps it.
struct PeerOptions {
  std::string id = "peer";  ///< peer identifier carried in messages

  /// Fetch-strategy variant (Fig. 9a).
  RpfKind rpf = RpfKind::kLocalNeighborhood;
  bool random_start = true;       ///< random vs same first packet (Fig. 9a)
  size_t encounter_history = 20;  ///< encounter-based RPF history depth

  /// When data fetching starts relative to bitmap collection (Fig. 9c/9d).
  AdvertisementMode advertisement_mode = AdvertisementMode::kInterleaved;
  /// Bitmaps to collect before data download; 0 = "all peers in range"
  /// (the paper's "all bitmaps" configuration).
  int bitmaps_before_data = 2;

  bool use_peba = true;  ///< PEBA vs plain linear delays (Fig. 9b)

  /// Suppression window for randomized announcement delays.
  common::Duration tx_window = common::Duration::milliseconds(20);

  int interest_window = 4;  ///< concurrent in-flight data Interests

  bool multihop = true;              ///< relay beyond one hop (Fig. 9g/9h)
  double forward_probability = 0.2;  ///< relay probability when multihop

  size_t cs_capacity = 4096;  ///< content-store entry cap

  // --- open-membership knobs (churn scenarios; defaults keep the
  // fixed-population paper sweeps byte-identical) ---

  /// Register the node on the medium but leave it dead and unstarted:
  /// a latent peer waiting for a FaultPlan admission (kJoin), which
  /// revives the node and calls start().
  bool latent = false;
  /// Adversarial peer: bitmap announcements claim every packet while the
  /// real store stays empty (advertise everything, serve nothing). Traces
  /// `peer.lied` per announcement.
  bool lie_in_bitmaps = false;
  /// Drop RPF bitmap knowledge older than this (0 = keep forever, the
  /// fixed-population behaviour). Under churn a silent neighbor has
  /// likely left; without expiry its bitmap poisons rarity estimates.
  common::Duration knowledge_ttl = common::Duration::microseconds(0);
  /// After this many consecutive timeouts on the same packet, tell the
  /// RPF the availability claim was wrong (FetchStrategy::on_fetch_failed)
  /// so departed holders and liars decay. 0 = never (fixed-population
  /// behaviour: timeouts keep retrying without touching knowledge).
  int stale_retry_limit = 0;
};

/// A full DAPES node: radio, forwarder and the four-step application
/// loop (discover, fetch metadata, advertise bitmaps, fetch data).
class Peer {
 public:
  /// Wire the node onto @p medium under @p sched; call start() after.
  Peer(sim::Scheduler& sched, sim::Medium& medium,
       sim::MobilityModel* mobility, common::Rng rng, PeerOptions options);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Start the discovery loop. Call once after construction.
  void start();

  /// Crash the node: wipe volatile protocol state (radio queue, pending
  /// sends, neighbor table, in-flight Interests, advertisement rounds) as
  /// a power-cycle would. Durable state survives — downloaded packets,
  /// completions, keys, cumulative stats. The harness retires the node on
  /// the medium and sweeps its timers (Scheduler::cancel_for_node)
  /// around this call; see DESIGN.md "Fault injection & open membership".
  void crash();

  /// Come back after a crash (or latent admission): re-enter the
  /// discovery loop. The harness revives the node on the medium first.
  void restart();

  /// Publish a collection: this peer holds every packet and serves as the
  /// producer (its key already signed the packets).
  void publish(std::shared_ptr<Collection> collection);

  /// Declare interest: the peer will fetch this collection when it
  /// discovers a holder. The shared Collection acts as the content oracle
  /// for serving once packets are obtained (see DESIGN.md on synthetic
  /// payload interning).
  void subscribe(std::shared_ptr<Collection> collection);

  /// Trust the given producer key (models the shared local trust anchors).
  void add_trust_anchor(const crypto::KeyId& producer);
  /// The peer's key store (trust anchors + own key).
  crypto::KeyChain& keychain() { return keychain_; }

  /// The peer identifier carried in control messages.
  const std::string& id() const { return options_.id; }
  /// The node id the radio registered on the medium.
  sim::NodeId node() const { return node_; }
  /// The node's forwarder (owns tables and faces).
  ndn::Forwarder& forwarder() { return *forwarder_; }

  /// True once the collection finished downloading (or was published).
  bool complete(const Name& collection) const;
  /// When the collection completed; nullopt while still downloading.
  std::optional<common::TimePoint> completion_time(const Name& collection) const;
  /// Downloaded fraction of the collection in [0, 1].
  double progress(const Name& collection) const;

  /// Called when a subscribed collection finishes downloading.
  void set_completion_callback(
      std::function<void(const Name&, common::TimePoint)> cb) {
    on_complete_ = std::move(cb);
  }

  /// Application-level counters (inputs to the harness metrics).
  struct PeerStats {
    uint64_t discovery_interests_sent = 0;    ///< §IV-B queries sent
    uint64_t discovery_responses_sent = 0;    ///< §IV-B responses served
    uint64_t bitmap_announcements_sent = 0;   ///< §IV-D announcements
    uint64_t bitmap_collisions_detected = 0;  ///< PEBA collision rounds
    uint64_t data_interests_sent = 0;         ///< data Interests expressed
    uint64_t data_packets_received = 0;       ///< verified packets stored
    uint64_t data_packets_served = 0;         ///< packets served to others
    uint64_t integrity_failures = 0;          ///< digest/Merkle mismatches
    uint64_t metadata_rejected = 0;           ///< signature rejections
    uint64_t interest_timeouts = 0;           ///< expressed Interests timed out
  };
  /// The peer's counters so far.
  const PeerStats& stats() const { return stats_; }

  /// Modeled state footprint (bitmaps, neighbor tables, strategy
  /// knowledge, CS content) for Table-I style reporting.
  size_t state_bytes() const;

  /// Same, but excluding cached content: the bookkeeping DAPES needs to
  /// track "what data is available around me" (bitmaps, RPF state,
  /// neighborhood knowledge). This is the component the paper's Table I
  /// shows growing with multi-hop communication.
  size_t knowledge_bytes() const;

  /// Introspection for tests and diagnostics.
  struct DownloadDebug {
    bool has_metadata = false;      ///< metadata fetched and verified
    bool fetching_enabled = false;  ///< data fetching unlocked
    double progress = 0.0;          ///< downloaded fraction
    size_t in_flight = 0;           ///< outstanding data Interests
    size_t known_bitmaps = 0;       ///< bitmaps informing the strategy
    size_t fresh_neighbors = 0;     ///< neighbors inside the TTL
  };
  /// Snapshot of the download state for @p collection.
  DownloadDebug debug_download(const Name& collection) const;

 private:
  struct NeighborInfo {
    common::TimePoint last_heard{};
    std::set<Name> offered_metadata;
  };

  struct DownloadState {
    std::shared_ptr<Collection> oracle;
    std::optional<Metadata> metadata;
    CollectionLayout layout;
    Bitmap have;
    std::unique_ptr<FetchStrategy> rpf;
    std::set<size_t> in_flight;
    std::map<size_t, int> retry_count;
    bool fetching_enabled = false;
    std::optional<common::TimePoint> completed_at;
    // Metadata retrieval progress.
    Name metadata_name;
    std::map<uint64_t, common::Bytes> metadata_segments;
    size_t metadata_total_segments = 0;
    bool metadata_requested = false;
    // Advertisement state (per current encounter round).
    uint64_t adv_round = 0;
    common::TimePoint last_round_start{-1'000'000'000};
    Bitmap transmitted_union;       // union of bitmaps heard this round
    bool union_valid = false;
    size_t bitmaps_heard_this_round = 0;
    sim::EventId adv_timer{};
    bool adv_pending = false;
    int collision_round = 0;
  };

  // --- wiring ---
  void on_app_interest(const ndn::Interest& interest);
  /// Data for the application: answers to its own Interests and every
  /// overheard Data packet take the same path.
  void on_data(const ndn::Data& data);
  void express(ndn::Interest interest);

  // --- discovery (step 1) ---
  void discovery_tick();
  void send_discovery_interest();
  void handle_discovery_interest(const ndn::Interest& interest);
  void handle_discovery_data(const ndn::Data& data);

  // --- metadata (step 2) ---
  void request_metadata(DownloadState& st);
  void request_metadata_segment(DownloadState& st, uint64_t segment);
  void handle_metadata_segment(DownloadState& st, const ndn::Data& data);
  void finish_metadata(DownloadState& st);

  // --- advertisements (step 3) ---
  void begin_advertisement_round(const Name& collection);
  void schedule_bitmap_announcement(const Name& collection, bool initial);
  void send_bitmap_announcement(const Name& collection);
  void handle_bitmap_message(const BitmapMessage& msg);
  double provide_fraction(const DownloadState& st) const;

  // --- data fetching (step 4) ---
  void pump_fetch(const Name& collection);
  void request_packet(DownloadState& st, const Name& collection, size_t index);
  void handle_collection_data(const ndn::Data& data);
  void handle_packet_timeout(const Name& collection, size_t index);
  void maybe_complete(const Name& collection, DownloadState& st);

  // --- serving ---
  void serve_interest(const ndn::Interest& interest);

  // --- overhearing ---
  void on_overheard_interest(const ndn::Interest& interest);

  /// Record hearing from a peer. Returns its entry, and true when this is
  /// a new or returning (stale beyond the TTL) neighbor — i.e. a fresh
  /// encounter.
  std::pair<NeighborInfo&, bool> touch_neighbor(const std::string& peer_id);
  /// True when any neighbor was heard within kNeighborTtl.
  bool has_fresh_neighbor() const;
  void prune_neighbors();
  /// The configured RPF variant for a collection of @p total_packets,
  /// seeded from the peer's stream.
  std::unique_ptr<FetchStrategy> make_rpf(size_t total_packets);
  DownloadState* state_for(const Name& collection);
  DownloadState* state_for_packet_name(const Name& name,
                                       Name* collection_out);

  sim::Scheduler& sched_;
  sim::Medium& medium_;
  common::Rng rng_;
  PeerOptions options_;

  sim::NodeId node_ = 0;
  std::unique_ptr<sim::Radio> radio_;
  std::unique_ptr<ndn::Forwarder> forwarder_;
  std::shared_ptr<ndn::WifiFace> wifi_face_;
  std::shared_ptr<ndn::AppFace> app_face_;
  DapesIntermediateStrategy* strategy_ = nullptr;  // owned by forwarder

  crypto::KeyChain keychain_;
  crypto::PrivateKey key_;

  std::map<std::string, NeighborInfo> neighbors_;
  std::map<Name, DownloadState> downloads_;  // keyed by collection name
  common::Duration discovery_period_;
  uint32_t next_nonce_ = 1;
  uint64_t interests_expressed_ = 0;

  std::function<void(const Name&, common::TimePoint)> on_complete_;
  PeerStats stats_;
};

}  // namespace dapes::core
