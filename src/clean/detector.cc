#include "clean/detector.h"

#include "common/thread_pool.h"

namespace visclean {

std::string RowAsString(const Table& table, size_t row) {
  std::string out;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    if (c > 0) out += ' ';
    out += table.at(row, c).ToDisplayString();
  }
  return out;
}

void RowTokenCache::Invalidate(const std::vector<size_t>& dirty_rows) {
  for (size_t r : dirty_rows) tokens_.erase(r);
}

void RowTokenCache::Ensure(const Table& table, const std::vector<size_t>& rows,
                           const KernelEnv& env) {
  std::vector<size_t> missing;
  for (size_t r : rows) {
    if (tokens_.find(r) == tokens_.end()) missing.push_back(r);
  }
  if (missing.empty()) return;

  // Building the row strings is a pure chunk kernel with indexed writes; it
  // rides the kNN queue (same consumers, same fairness domain) when
  // batched. Interning is serial, in `rows` order.
  std::vector<std::string> strings(missing.size());
  const size_t min_parallel =
      env.pool != nullptr ? 2 * env.pool->num_threads() : 2;
  RunKernel(KernelKind::kKnnQuery, env, missing.size(), min_parallel,
            [&](size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) {
                strings[i] = RowAsString(table, missing[i]);
              }
            });
  for (size_t i = 0; i < missing.size(); ++i) {
    tokens_[missing[i]] = interner_.WordIds(strings[i]);
  }
}

}  // namespace visclean
