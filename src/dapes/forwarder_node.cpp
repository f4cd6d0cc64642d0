#include "dapes/forwarder_node.hpp"

namespace dapes::core {

namespace {

/// Content-store entry cap.
constexpr size_t kCsCapacity = 4096;
/// Suppression window for randomized relay delays.
constexpr common::Duration kTxWindow = common::Duration::milliseconds(20);

}  // namespace

ForwarderNode::ForwarderNode(sim::Scheduler& sched, sim::Medium& medium,
                             sim::MobilityModel* mobility, common::Rng rng,
                             Options options) {
  node_ = medium.add_node(mobility, [this](const sim::FramePtr& frame,
                                           sim::NodeId /*receiver*/) {
    if (wifi_face_) wifi_face_->on_frame(frame);
  });
  radio_ = std::make_unique<sim::Radio>(sched, medium, node_, rng.fork());
  forwarder_ = std::make_unique<ndn::Forwarder>(
      sched, ndn::Forwarder::Options{kCsCapacity});
  wifi_face_ = std::make_shared<ndn::WifiFace>(sched, *radio_, node_,
                                               rng.fork(), kTxWindow);
  forwarder_->add_face(wifi_face_);

  if (options.kind == ForwarderKind::kDapesIntermediate) {
    DapesIntermediateStrategy::IntermediateParams params;
    params.base.forward_probability = options.forward_probability;
    auto strategy = std::make_unique<DapesIntermediateStrategy>(
        sched, rng.fork(), params);
    intermediate_ = strategy.get();
    strategy_ = strategy.get();
    forwarder_->set_strategy(std::move(strategy));
  } else {
    PureForwarderStrategy::Params params;
    params.forward_probability = options.forward_probability;
    auto strategy =
        std::make_unique<PureForwarderStrategy>(sched, rng.fork(), params);
    strategy_ = strategy.get();
    forwarder_->set_strategy(std::move(strategy));
  }
}

size_t ForwarderNode::state_bytes() const {
  size_t bytes = forwarder_->cs().content_bytes();
  if (intermediate_ != nullptr) bytes += intermediate_->knowledge_bytes();
  return bytes;
}

}  // namespace dapes::core
