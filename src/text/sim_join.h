// String similarity join with prefix filtering (Jiang et al., cited as [16]
// in the paper). Used by Strategy 2 of A-question generation (Algorithm 1)
// to find synonym candidates across entity-matching clusters.
//
// Two forms:
//  * SimilarityJoin / SimilaritySelfJoin — stateless one-shot joins;
//  * IncrementalSimJoin — the journal-driven form: the token dictionary,
//    prefix inverted index, and emitted pair set stay alive across
//    iterations, and the maintainer applies insert/retract of individual
//    spellings instead of re-running the whole join. Outputs are
//    bit-identical to SimilaritySelfJoin on the current spelling set.
#ifndef VISCLEAN_TEXT_SIM_JOIN_H_
#define VISCLEAN_TEXT_SIM_JOIN_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "text/tokenize.h"

namespace visclean {

class ThreadPool;

/// \brief One output pair of a similarity join.
struct SimJoinPair {
  size_t left_index;   ///< index into the left input vector
  size_t right_index;  ///< index into the right input vector
  double similarity;   ///< Jaccard similarity over word tokens
};

/// \brief Options for SimilarityJoin.
struct SimJoinOptions {
  double threshold = 0.5;  ///< minimum Jaccard similarity to emit a pair
  bool use_qgrams = false; ///< token by 3-grams instead of words
};

/// \brief All pairs (i from `left`, j from `right`) with token-Jaccard
/// similarity >= options.threshold.
///
/// Implements prefix filtering: tokens are globally ordered by frequency
/// (rarest first); a pair can only reach threshold t if the two prefix sets
/// of length |x| - ceil(t*|x|) + 1 share a token, so candidates come from an
/// inverted index over prefixes instead of the full cross product.
///
/// Semantics note: a string whose token set is empty (no alphanumeric
/// content) never joins — it is neither indexed nor probed, because an empty
/// spelling carries no synonym signal. Every join form in this header
/// (including the naive references in the tests) shares this rule.
///
/// When `pool` is given, the probe side fans out over its workers; the final
/// (similarity desc, left, right) sort is a total order over the emitted
/// pairs, so the result is bit-identical at any thread count.
std::vector<SimJoinPair> SimilarityJoin(const std::vector<std::string>& left,
                                        const std::vector<std::string>& right,
                                        const SimJoinOptions& options = {},
                                        ThreadPool* pool = nullptr);

/// Self-join variant: all unordered pairs (i < j) within `items` meeting the
/// threshold.
std::vector<SimJoinPair> SimilaritySelfJoin(
    const std::vector<std::string>& items, const SimJoinOptions& options = {},
    ThreadPool* pool = nullptr);

/// \brief Observability counters of an IncrementalSimJoin.
struct SimJoinStats {
  size_t full_joins = 0;          ///< pooled from-scratch rebuilds (any cause)
  size_t fallback_full_joins = 0; ///< ... of which forced by the dirty fraction
  size_t delta_syncs = 0;         ///< incremental syncs (insert/retract rounds)
  size_t inserts = 0;             ///< spellings inserted incrementally
  size_t retracts = 0;            ///< spellings retracted incrementally
  size_t pairs_added = 0;         ///< result pairs emitted by inserts
  size_t pairs_removed = 0;       ///< result pairs dropped by retracts
  size_t token_appends = 0;       ///< tokens appended past the frozen order
  double last_dirty_fraction = 0.0;  ///< of the last delta sync
};

/// \brief Maintained self-join over a changing set of distinct spellings.
///
/// Replaces the old single-slot replay memo: instead of comparing the whole
/// input byte-for-byte and re-running the join on any change, the join keeps
/// its state alive and applies insert/retract of individual spellings (the
/// session derives them from the X value index the mutation journal keeps in
/// sync; see core/erg_cache.h SyncSimJoin).
///
/// State kept across iterations:
///  * the token dictionary — ids frozen in the frequency order (rarest
///    first) computed by the last Rebuild; tokens first seen by a later
///    Insert are appended with fresh (larger) ids;
///  * the prefix inverted index — token id -> spellings whose prefix
///    contains it;
///  * the emitted pair set — keyed by spelling pairs (string identity), so
///    it survives the positional shifts inserts/retracts cause.
///
/// Why appending to the frozen token order is sound (the ISSUE's "token
/// frequency reordering on insert" hard case): prefix filtering is complete
/// under ANY fixed total token order — if Jaccard(x, y) >= t, the two
/// prefixes share a token no matter how tokens are ranked — and the length
/// filter only discards pairs whose similarity is provably below t. The
/// candidate set may differ between orders, but every surviving candidate
/// is verified with an exact Jaccard computation whose value is
/// order-independent, so the emitted (pair, similarity) set is identical.
/// Frequency order is purely a pruning heuristic; a stale order (new tokens
/// ranked "most frequent" regardless of true rarity) costs extra candidate
/// checks, never correctness. Rebuild() re-freezes the optimal order.
///
/// Pairs()/items() materialize positional results lazily; the caches are
/// not synchronized, so one instance serves one reader at a time (each
/// session owns its own, inside its ErgCache).
class IncrementalSimJoin {
 public:
  /// From-scratch pooled build over `items` (must be sorted ascending and
  /// unique — the caller passes the distinct live spellings). Recomputes
  /// the frequency token order, the prefix index, and the pair set.
  /// `dirty_fallback` marks the rebuild as forced by the dirty fraction
  /// (counters only).
  void Rebuild(const std::vector<std::string>& items,
               const SimJoinOptions& options, ThreadPool* pool,
               bool dirty_fallback = false);

  /// One incremental sync: retracts then inserts, counted as a single delta
  /// round with the given dirty fraction. Requires primed().
  void ApplyDelta(const std::vector<std::string>& retracts,
                  const std::vector<std::string>& inserts,
                  double dirty_fraction);

  /// Inserts one spelling (no-op when already present). Probes the prefix
  /// index for join partners among the current spellings, then indexes the
  /// newcomer's prefix.
  void Insert(const std::string& spelling);

  /// Retracts one spelling (no-op when absent): removes its prefix index
  /// entries and every emitted pair involving it.
  void Retract(const std::string& spelling);

  /// True when the maintained state matches `options` (a mismatch requires
  /// Rebuild; the threshold shapes prefixes, so it cannot be patched).
  bool OptionsMatch(const SimJoinOptions& options) const;

  bool Contains(const std::string& spelling) const {
    return entries_.count(spelling) > 0;
  }
  size_t num_items() const { return entries_.size(); }
  bool primed() const { return primed_; }

  /// The current spelling set, sorted ascending — the `items` vector the
  /// positional Pairs() indices refer to.
  const std::vector<std::string>& items() const;

  /// The join result, bit-identical to SimilaritySelfJoin(items(), options)
  /// at any thread count: same pairs, same similarity doubles, same
  /// (similarity desc, left, right) order.
  const std::vector<SimJoinPair>& Pairs() const;

  /// Drops all state (including counters).
  void Clear();

  const SimJoinStats& stats() const { return stats_; }

 private:
  TokenIdList TokenIdsOf(const std::string& spelling);
  void IndexPrefix(const std::string& spelling, const TokenIdList& ids);
  void Materialize() const;

  bool primed_ = false;
  SimJoinOptions options_;
  SimJoinStats stats_;
  /// Frozen frequency order plus appends.
  std::unordered_map<std::string, uint32_t> token_id_;
  std::map<std::string, TokenIdList> entries_;  ///< live spelling -> ids
  std::unordered_map<uint32_t, std::set<std::string>> prefix_index_;
  std::map<std::pair<std::string, std::string>, double> pairs_;
  std::map<std::string, std::set<std::string>> partners_;  ///< for retracts

  // Lazily materialized positional view of (entries_, pairs_).
  mutable bool dirty_ = true;
  mutable std::vector<std::string> items_cache_;
  mutable std::vector<SimJoinPair> result_cache_;
};

}  // namespace visclean

#endif  // VISCLEAN_TEXT_SIM_JOIN_H_
