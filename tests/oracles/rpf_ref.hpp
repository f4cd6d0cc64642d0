/// @file
/// Reference rarest-piece-first strategies: the ranked-plan RPF the
/// library used before its one-pass pick (src/dapes/rpf.cpp), kept as the
/// behavioral oracle. Test-tree only: the library never links it.
///
/// The plan ranks every packet by (available first, fewest holders first,
/// tie-break order) with a stable sort, is rebuilt after any change to
/// the holder counts, and select_next returns its first entry that is
/// neither owned nor in flight. Bitmap bookkeeping, the tie-break shuffle
/// and its RNG draws match the library's exactly; tests/test_rpf.cpp
/// drives both with identical random op streams and compares every
/// observable after each op.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dapes/rpf.hpp"

namespace dapes::core::ref {

/// Rank packet indices by (available desc, rarity desc, order), where
/// @p have_counts counts holders per packet and @p order is the
/// tie-break permutation.
std::vector<size_t> rank_packets(const std::vector<uint32_t>& have_counts,
                                 const std::vector<size_t>& order);

/// Build the ranked-plan version of the requested RPF variant, from the
/// same options core::make_fetch_strategy takes.
std::unique_ptr<FetchStrategy> make_fetch_strategy(RpfKind kind,
                                                   const RpfOptions& options);

}  // namespace dapes::core::ref
