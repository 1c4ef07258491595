// SFC-backed spatial index: points are mapped to curve keys and stored in a
// B+-tree; box queries are decomposed into key ranges, each scanned
// sequentially. This is the data structure the paper's clustering metric is
// about — the number of ranges (seeks) per query is exactly the clustering
// number of the query box under the chosen curve.
//
// This index is purely in-memory; its persistent, file-backed twin is
// storage::SfcTable (storage/sfc_table.h), which serves the same queries
// from on-disk segments through a buffer pool and reports measured I/O.
// Both expose the same streaming Cursor interface (storage/cursor.h) —
// NewBoxCursor / NewScanCursor / Get — so the in-memory and on-disk paths
// are drop-in interchangeable; SpatialEntry itself lives in cursor.h.

#ifndef ONION_INDEX_SPATIAL_INDEX_H_
#define ONION_INDEX_SPATIAL_INDEX_H_

#include <memory>
#include <vector>

#include "index/bptree.h"
#include "index/decompose.h"
#include "sfc/curve.h"
#include "storage/cursor.h"

namespace onion {

/// Aggregate statistics of spatial queries (resettable).
struct QueryStats {
  uint64_t queries = 0;
  uint64_t ranges = 0;  ///< total key ranges scanned (== total seeks)
  TreeStats tree;       ///< physical B+-tree work

  void Reset() { *this = QueryStats{}; }
};

class SpatialIndex {
 public:
  /// Takes ownership of the curve that defines the linearization.
  explicit SpatialIndex(std::unique_ptr<SpaceFillingCurve> curve)
      : curve_(std::move(curve)) {
    ONION_CHECK(curve_ != nullptr);
  }

  const SpaceFillingCurve& curve() const { return *curve_; }
  uint64_t size() const { return tree_.size(); }

  /// Inserts a point with a payload id. The cell must lie in the universe.
  void Insert(const Cell& cell, uint64_t payload) {
    ONION_CHECK(curve_->universe().Contains(cell));
    tree_.Insert(curve_->IndexOf(cell), payload);
  }

  /// Removes one matching (cell, payload) entry; returns whether found.
  bool Erase(const Cell& cell, uint64_t payload) {
    return tree_.Erase(curve_->IndexOf(cell), payload);
  }

  /// Payloads stored exactly at `cell`.
  std::vector<uint64_t> LookupCell(const Cell& cell) const {
    return tree_.Lookup(curve_->IndexOf(cell));
  }

  /// Status-returning point lookup, interface-compatible with
  /// SfcTable::Get: OutOfRange for a cell outside the universe.
  Result<std::vector<uint64_t>> Get(const Cell& cell) const;

  /// Streams every entry inside `box` in (curve key, payload) order.
  /// Same interface as SfcTable::NewBoxCursor: an out-of-universe box
  /// arrives as a cursor whose status() is not OK, and options.limit caps
  /// delivered entries (the page/byte bounds have no meaning in memory).
  /// Updates stats(); the cursor must not outlive this index.
  std::unique_ptr<Cursor> NewBoxCursor(const Box& box,
                                       const ReadOptions& options = {}) const;

  /// Streams the whole index in (curve key, payload) order.
  std::unique_ptr<Cursor> NewScanCursor(const ReadOptions& options = {}) const;

  /// Statistics accumulated by cursor calls since the last Reset.
  const QueryStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  std::vector<SpatialEntry> Materialize(const std::vector<KeyRange>& ranges,
                                        uint64_t limit) const;

  std::unique_ptr<SpaceFillingCurve> curve_;
  BPlusTree<uint64_t> tree_;
  mutable QueryStats stats_;
};

}  // namespace onion

#endif  // ONION_INDEX_SPATIAL_INDEX_H_
