/// @file
/// Uniform spatial index (cell size = radio range) so the wireless
/// medium can answer "who is near this point?" by visiting the handful of
/// cells a query disc overlaps instead of scanning every node. It is a
/// *candidate* index: callers always re-check candidates with the exact
/// `within_range` predicate, so pruning never changes outcomes — it only
/// skips nodes that provably cannot satisfy the predicate (see DESIGN.md
/// "Spatial medium").
///
/// DenseCellGrid indexes the medium's nodes. It is rebuilt in bulk from
/// all node positions, with a CSR layout over the positions' bounding
/// box, so a cell probe is pure array arithmetic. It sits on the hottest
/// path (per-tick density and neighbor queries, receiver capture). The
/// in-flight frames need no index: there are only a handful at any
/// instant, so the medium scans them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/geometry.hpp"

namespace dapes::sim {

/// Bulk-rebuilt CSR cell grid over the node positions (see file comment).
class DenseCellGrid {
 public:
  /// Entries indexed by position (entry id i = positions[i]). The cell
  /// size is at least `cell_size_hint` (the radio range), enlarged when
  /// the bounding box is so large relative to the hint that the cell
  /// count would exceed ~4x the entry count — the grid serves arbitrary
  /// geometry (scripted waypoints can wander anywhere) in bounded memory.
  void build(const std::vector<Vec2>& positions, double cell_size_hint) {
    size_ = positions.size();
    if (positions.empty()) {
      entries_.clear();
      cell_start_.assign(1, 0);
      nx_ = ny_ = 0;
      cell_ = cell_size_hint > 1e-9 ? cell_size_hint : 1e-9;
      origin_ = Vec2{};
      return;
    }
    origin_ = positions[0];
    Vec2 hi = positions[0];
    for (const Vec2& p : positions) {
      origin_.x = std::min(origin_.x, p.x);
      origin_.y = std::min(origin_.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
    cell_ = cell_size_hint > 1e-9 ? cell_size_hint : 1e-9;
    const size_t max_cells = 4 * positions.size() + 64;
    auto dims = [&] {
      nx_ = static_cast<int64_t>((hi.x - origin_.x) / cell_) + 1;
      ny_ = static_cast<int64_t>((hi.y - origin_.y) / cell_) + 1;
    };
    dims();
    while (static_cast<size_t>(nx_) * static_cast<size_t>(ny_) > max_cells) {
      cell_ *= 2.0;
      dims();
    }

    // CSR fill: count per cell, prefix-sum, scatter.
    const size_t cells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
    cell_start_.assign(cells + 1, 0);
    std::vector<uint32_t> cell_of(positions.size());
    for (size_t i = 0; i < positions.size(); ++i) {
      cell_of[i] = static_cast<uint32_t>(cell_index(positions[i]));
      ++cell_start_[cell_of[i] + 1];
    }
    for (size_t c = 1; c <= cells; ++c) cell_start_[c] += cell_start_[c - 1];
    entries_.resize(positions.size());
    std::vector<uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
    for (size_t i = 0; i < positions.size(); ++i) {
      entries_[cursor[cell_of[i]]++] = {static_cast<uint32_t>(i),
                                        positions[i]};
    }
  }

  /// Entries indexed at the last build().
  size_t size() const { return size_; }
  /// Effective cell size after the bounded-memory enlargement.
  double cell_size() const { return cell_; }

  /// Visit every entry in the cells the disc (center, radius) overlaps.
  /// Candidates, not matches: the caller applies the exact predicate.
  template <typename Fn>
  void for_each_candidate(Vec2 center, double radius, Fn&& fn) const {
    if (entries_.empty() || radius < 0) return;
    const int64_t cx0 = std::max<int64_t>(coord_x(center.x - radius), 0);
    const int64_t cx1 = std::min<int64_t>(coord_x(center.x + radius), nx_ - 1);
    const int64_t cy0 = std::max<int64_t>(coord_y(center.y - radius), 0);
    const int64_t cy1 = std::min<int64_t>(coord_y(center.y + radius), ny_ - 1);
    for (int64_t cy = cy0; cy <= cy1; ++cy) {
      for (int64_t cx = cx0; cx <= cx1; ++cx) {
        const size_t c = static_cast<size_t>(cy * nx_ + cx);
        for (uint32_t i = cell_start_[c]; i < cell_start_[c + 1]; ++i) {
          fn(entries_[i].first, entries_[i].second);
        }
      }
    }
  }

 private:
  int64_t coord_x(double x) const {
    return static_cast<int64_t>(std::floor((x - origin_.x) / cell_));
  }
  int64_t coord_y(double y) const {
    return static_cast<int64_t>(std::floor((y - origin_.y) / cell_));
  }
  size_t cell_index(Vec2 p) const {
    return static_cast<size_t>(coord_y(p.y) * nx_ + coord_x(p.x));
  }

  double cell_ = 1.0;
  Vec2 origin_{};
  int64_t nx_ = 0;
  int64_t ny_ = 0;
  size_t size_ = 0;
  std::vector<uint32_t> cell_start_;                 // CSR offsets
  std::vector<std::pair<uint32_t, Vec2>> entries_;   // (id, position)
};

}  // namespace dapes::sim
