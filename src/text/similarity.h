// String similarity measures used for A-question generation (Section IV),
// entity-matching features (src/em), and kNN distances (Section IV, Q_M).
// All measures return a score in [0, 1]; higher means more similar.
#ifndef VISCLEAN_TEXT_SIMILARITY_H_
#define VISCLEAN_TEXT_SIMILARITY_H_

#include <set>
#include <string>
#include <string_view>

#include "text/tokenize.h"

namespace visclean {

/// Jaccard similarity of two token sets: |A∩B| / |A∪B| (1.0 when both empty).
double JaccardSimilarity(const std::set<std::string>& a,
                         const std::set<std::string>& b);

/// The same Jaccard over sorted, deduplicated id lists, by one merge. Equal
/// bit for bit to the set overload on the token sets the lists stand for.
double JaccardSimilarity(const TokenIdList& a, const TokenIdList& b);

/// Jaccard over lowercased word tokens.
double WordJaccard(std::string_view a, std::string_view b);

/// Jaccard over character q-grams (default q = 3).
double QGramJaccard(std::string_view a, std::string_view b, size_t q = 3);

/// Normalized Levenshtein similarity: 1 - edit_distance / max(|a|, |b|).
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Raw Levenshtein edit distance (insert/delete/substitute, unit costs).
/// Bit-parallel when the shorter string is at most 64 bytes, the DP
/// otherwise.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Jaro similarity (match-window transposition measure). Match marks live
/// in two 64-bit masks when both strings are at most 64 bytes.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler: Jaro boosted by common-prefix length (p = 0.1, max 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Cosine similarity over word-token multisets.
double CosineWordSimilarity(std::string_view a, std::string_view b);

/// Overlap coefficient |A∩B| / min(|A|, |B|) over word tokens.
double OverlapCoefficient(std::string_view a, std::string_view b);

}  // namespace visclean

#endif  // VISCLEAN_TEXT_SIMILARITY_H_
