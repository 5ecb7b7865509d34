// Tokenizers feeding the string-similarity measures.
#ifndef VISCLEAN_TEXT_TOKENIZE_H_
#define VISCLEAN_TEXT_TOKENIZE_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace visclean {

/// Lowercased alphanumeric word tokens ("SIGMOD Conf." -> {"sigmod","conf"}).
std::vector<std::string> WordTokens(std::string_view s);

/// Lowercased character q-grams over the whitespace-normalized string.
/// Strings shorter than q yield the whole string as a single token.
std::vector<std::string> QGrams(std::string_view s, size_t q);

/// Deduplicated token set (for Jaccard/overlap-style measures).
std::set<std::string> TokenSet(const std::vector<std::string>& tokens);

/// Sorted, deduplicated integer token ids: the stand-in for a TokenSet on
/// the hot paths. Ids come from an injective token -> id map, so two lists
/// share exactly the ids their string sets share, and set measures over
/// them (JaccardSimilarity(TokenIdList, TokenIdList)) are bit-identical.
using TokenIdList = std::vector<uint32_t>;

/// Ids of TokenSet(QGrams(s, 3)), with no dictionary: each 3-gram (or the
/// whole normalized string, when it is at most 3 bytes) packs into one
/// uint32 — its length in the top byte, its bytes below.
TokenIdList QGramIds(std::string_view s);

/// \brief Append-only dictionary from word tokens to dense uint32 ids.
///
/// Ids are handed out in first-seen order and never reused, so every id
/// list built from one interner stays comparable with every other until
/// Clear. Not thread-safe: callers intern serially.
class TokenInterner {
 public:
  /// Ids of TokenSet(WordTokens(s)), interning unseen tokens.
  TokenIdList WordIds(std::string_view s);

  /// The id of `token`, if it was interned.
  std::optional<uint32_t> Find(const std::string& token) const;

  void Clear() { ids_.clear(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

}  // namespace visclean

#endif  // VISCLEAN_TEXT_TOKENIZE_H_
