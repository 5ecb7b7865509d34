#include "core/detection_cache.h"

#include <sstream>

namespace visclean {

std::string DetectionCache::Fingerprint(const DetectionRequest& request) {
  std::ostringstream out;
  for (const std::string& col : request.blocking.key_columns) {
    out << col << '\x1f';
  }
  out << '|' << request.blocking.max_block_size << '|'
      << request.blocking.max_pairs << '|' << request.numeric_y << '|'
      << request.y_column << '|' << request.missing.k << '|'
      << request.missing.max_questions << '|' << request.outlier.k << '|'
      << request.outlier.max_questions << '|' << request.outlier.score_ratio
      << '|' << request.outlier.impute_k;
  // dirty_fallback_threshold is policy, not structure: changing it never
  // invalidates cached state.
  return out.str();
}

void DetectionCache::BeginIteration(const Table& table,
                                    const DetectionRequest& request,
                                    const KernelEnv& env) {
  const std::string fingerprint = Fingerprint(request);
  blocking_.Configure(request.blocking);
  if (request.numeric_y) {
    missing_.Configure(request.y_column, request.missing, &tokens_);
    outlier_.Configure(request.y_column, request.outlier, &tokens_);
  }

  bool full = !primed_ || fingerprint != fingerprint_;
  std::vector<size_t> dirty;
  if (primed_) {
    // Token lists and feature vectors are pure functions of the row values —
    // independent of the detection config — so even a fingerprint-forced
    // full scan only drops the dirty rows from them.
    dirty = table.MutatedRowsSince(watermark_);
    tokens_.Invalidate(dirty);
    features_.Invalidate(dirty);
    size_t live = table.num_live_rows();
    stats_.last_dirty_rows = dirty.size();
    stats_.last_dirty_fraction =
        live == 0 ? 1.0
                  : static_cast<double>(dirty.size()) / static_cast<double>(live);
    if (!full && stats_.last_dirty_fraction > request.dirty_fallback_threshold) {
      full = true;
      ++stats_.fallback_full_scans;
    }
  } else {
    tokens_.Clear();
    features_.Clear();
    stats_.last_dirty_rows = table.num_live_rows();
    stats_.last_dirty_fraction = 1.0;
  }

  if (full) {
    ++stats_.full_scans;
    blocking_.FullScan(table, env);
    if (request.numeric_y) {
      missing_.FullScan(table, env);
      outlier_.FullScan(table, env);
    }
  } else {
    ++stats_.delta_updates;
    blocking_.Update(table, dirty, env);
    if (request.numeric_y) {
      missing_.Update(table, dirty, env);
      outlier_.Update(table, dirty, env);
    }
  }

  primed_ = true;
  fingerprint_ = fingerprint;
  watermark_ = table.mutation_count();
}

void DetectionCache::ResyncRolledBack(const Table& table) {
  if (!primed_) return;
  watermark_ = table.mutation_count();
}

void DetectionCache::Clear() {
  primed_ = false;
  fingerprint_.clear();
  watermark_ = 0;
  stats_ = DetectionStats();
  tokens_.Clear();
  blocking_ = BlockingDetector();
  missing_ = MissingDetector();
  outlier_ = OutlierDetector();
  features_.Clear();
}

}  // namespace visclean
