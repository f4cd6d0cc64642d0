/// @file
/// NFD-lite forwarder: the packet-processing pipeline of paper Fig. 1.
///
///   Interest:  CS hit -> Data back to in-face; miss -> PIT hit ->
///              aggregate (record in-face, stop); miss -> insert entry,
///              hand to ForwardingStrategy.
///   Data:      PIT hit -> cache in CS, forward to recorded in-faces;
///              miss -> unsolicited: strategy may cache (pure forwarders
///              do).
///
/// The ForwardingStrategy hook is where DAPES lives at the network layer:
/// pure-forwarder probabilistic relay + suppression timers and the
/// DAPES-intermediate knowledge-driven forward/suppress logic (paper §V)
/// are strategy implementations in src/dapes/.
#pragma once

#include <memory>
#include <vector>

#include "ndn/face.hpp"
#include "ndn/tables.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ndn {

class Forwarder;

/// Strategy decides what happens to Interests that pass CS and PIT, sees
/// every packet heard on any face (overhearing is how DAPES intermediates
/// build their short-lived knowledge), and owns timeout behaviour.
class ForwardingStrategy {
 public:
  virtual ~ForwardingStrategy() = default;

  /// Interest accepted into the PIT; decide where (whether) to send it.
  virtual void after_receive_interest(Forwarder& fw, FaceId in_face,
                                      const Interest& interest,
                                      PitEntry& entry) = 0;

  /// PIT entry expired without data.
  virtual void on_interest_timeout(Forwarder& /*fw*/, const Name& /*name*/) {}

  /// Data arrived with no matching PIT entry; return true to cache it
  /// anyway (pure forwarders overhear-and-cache, paper §V-A).
  virtual bool cache_unsolicited(Forwarder& /*fw*/, FaceId /*in_face*/,
                                 const Data& /*data*/) {
    return false;
  }

  /// Observation hook: fired for every Interest from a non-local face,
  /// before pipeline processing. DAPES intermediates overhear bitmaps
  /// here (paper §V-B).
  virtual void on_overhear_interest(Forwarder& /*fw*/, FaceId /*in_face*/,
                                    const Interest& /*interest*/) {}
  /// Observation hook: fired for every Data from a non-local face,
  /// before pipeline processing.
  virtual void on_overhear_data(Forwarder& /*fw*/, FaceId /*in_face*/,
                                const Data& /*data*/) {}
};

/// Default strategy: multicast to all FIB next-hops except the inbound
/// face (standard NFD multicast behaviour).
class MulticastStrategy : public ForwardingStrategy {
 public:
  void after_receive_interest(Forwarder& fw, FaceId in_face,
                              const Interest& interest,
                              PitEntry& entry) override;
};

/// The per-node forwarding pipeline (see file comment).
class Forwarder {
 public:
  /// Forwarder configuration.
  struct Options {
    size_t cs_capacity = 4096;  ///< Content Store entry cap (LRU beyond)
  };

  /// Pipeline counters (Fig. 1 arcs).
  struct Stats {
    uint64_t interests_in = 0;         ///< Interests received on any face
    uint64_t data_in = 0;              ///< Data received on any face
    uint64_t cs_hits = 0;              ///< Interests answered from the CS
    uint64_t pit_aggregated = 0;       ///< Interests merged into a PIT entry
    uint64_t loops_dropped = 0;        ///< nonce-loop drops
    uint64_t hop_limit_drops = 0;      ///< hop-limit-exhausted drops
    uint64_t interests_forwarded = 0;  ///< Interests sent out a face
    uint64_t data_forwarded = 0;       ///< Data sent out a face
    uint64_t unsolicited_data = 0;     ///< Data with no PIT entry
    uint64_t pit_timeouts = 0;         ///< PIT entries expired unsatisfied
  };

  /// Forwarder with explicit options (CS capacity).
  Forwarder(sim::Scheduler& sched, Options options);
  /// Forwarder with default options.
  Forwarder(sim::Scheduler& sched) : Forwarder(sched, Options{}) {}

  /// Register a face; the forwarder keeps shared ownership and installs
  /// its receive handlers. Returns the assigned FaceId (>= 1).
  FaceId add_face(std::shared_ptr<Face> face);

  /// Look up a face by id (nullptr when absent).
  Face* face(FaceId id);
  /// All registered faces (index = FaceId - 1).
  const std::vector<std::shared_ptr<Face>>& faces() const { return faces_; }

  /// Replace the forwarding strategy (default: MulticastStrategy).
  void set_strategy(std::unique_ptr<ForwardingStrategy> strategy);
  /// The active forwarding strategy.
  ForwardingStrategy& strategy() { return *strategy_; }

  /// The Content Store.
  ContentStore& cs() { return cs_; }
  /// The Pending Interest Table.
  Pit& pit() { return pit_; }
  /// The Forwarding Information Base.
  Fib& fib() { return fib_; }
  /// The NameTree all three tables share: a name's CS, PIT and FIB state
  /// hang off one entry, so a pipeline hop probes each table in O(1).
  NameTree& name_tree() { return *tree_; }
  /// The trial scheduler this forwarder's timers run on.
  sim::Scheduler& scheduler() { return sched_; }
  /// Pipeline counters.
  const Stats& stats() const { return stats_; }

  /// Strategy action: transmit an Interest out of a specific face. Does
  /// NOT consult the FIB — the strategy already decided.
  void send_interest_to(FaceId out_face, const Interest& interest);
  /// Strategy action: transmit a Data out of a specific face.
  void send_data_to(FaceId out_face, DataPtr data);

 private:
  /// @p interest is this node's own copy: a network hop decrements its
  /// hop limit, never the frame's shared packet's.
  void on_incoming_interest(FaceId in_face, Interest interest);
  /// @p data is shared as is with the CS and the out-faces.
  void on_incoming_data(FaceId in_face, DataPtr data);
  void on_pit_expiry(Name name);

  sim::Scheduler& sched_;
  Options options_;
  std::shared_ptr<NameTree> tree_;  // shared by cs_/pit_/fib_; declared first
  ContentStore cs_;
  Pit pit_;
  Fib fib_;
  std::vector<std::shared_ptr<Face>> faces_;  // index = FaceId - 1
  std::unique_ptr<ForwardingStrategy> strategy_;
  Stats stats_;
};

}  // namespace dapes::ndn
