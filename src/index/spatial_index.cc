#include "index/spatial_index.h"

#include <utility>

namespace onion {

std::vector<SpatialEntry> SpatialIndex::Materialize(
    const std::vector<KeyRange>& ranges, uint64_t limit) const {
  std::vector<SpatialEntry> results;
  ++stats_.queries;
  stats_.ranges += ranges.size();
  for (const KeyRange& range : ranges) {
    if (limit != 0 && results.size() >= limit) break;
    // The cap is enforced INSIDE the callback: BPlusTree::Scan cannot
    // abort mid-range, but a limit query over one huge range must still
    // accumulate (and convert) only `limit` entries, not the whole tree.
    tree_.Scan(range.lo, range.hi,
               [&](Key key, uint64_t payload) {
                 if (limit != 0 && results.size() >= limit) return;
                 results.push_back(SpatialEntry{curve_->CellAt(key), payload});
               },
               &stats_.tree);
  }
  return results;
}

namespace {

/// One past the limit, so the VectorCursor can see whether data remains
/// beyond it and report hit_read_budget() honestly (0 stays unbounded).
uint64_t MaterializeCap(const ReadOptions& options) {
  if (options.limit == 0 || options.limit == ~0ull) return 0;
  return options.limit + 1;
}

}  // namespace

std::unique_ptr<Cursor> SpatialIndex::NewBoxCursor(
    const Box& box, const ReadOptions& options) const {
  if (!curve_->universe().Contains(box)) {
    return NewErrorCursor(Status::InvalidArgument(
        "query box outside the index's universe: " + box.ToString()));
  }
  // In memory the B+-tree scan IS the cheap path, so the cursor wraps an
  // eagerly-materialized result; the interface (and the limit bound) still
  // matches the streaming SfcTable cursor.
  return NewVectorCursor(
      Materialize(DecomposeBox(*curve_, box), MaterializeCap(options)),
      options);
}

std::unique_ptr<Cursor> SpatialIndex::NewScanCursor(
    const ReadOptions& options) const {
  const Key num_cells = curve_->universe().num_cells();
  std::vector<KeyRange> ranges;
  if (num_cells > 0) ranges.push_back(KeyRange{0, num_cells - 1});
  return NewVectorCursor(Materialize(ranges, MaterializeCap(options)),
                         options);
}

Result<std::vector<uint64_t>> SpatialIndex::Get(const Cell& cell) const {
  if (!curve_->universe().Contains(cell)) {
    return Status::OutOfRange("cell outside the index's universe: " +
                              cell.ToString());
  }
  return LookupCell(cell);
}

}  // namespace onion
