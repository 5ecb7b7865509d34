#include "text/similarity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "text/tokenize.h"

namespace visclean {

namespace {

// Edit distance by the bit-parallel algorithm of Myers (1999), in Hyyro's
// formulation: one DP column is held as vertical +1/-1 delta masks over the
// rows of `a` (|a| <= 64), and `score` follows the bottom cell.
size_t BitParallelDistance(std::string_view a, std::string_view b) {
  uint64_t peq[256] = {};
  for (size_t i = 0; i < a.size(); ++i) {
    peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
  }
  const uint64_t last = uint64_t{1} << (a.size() - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = a.size();
  for (char c : b) {
    const uint64_t eq = peq[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) {
      ++score;
    } else if (mh & last) {
      --score;
    }
    // The top row is D[0][j] = j: every column enters with a +1 step.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

double JaroFormula(size_t matches, size_t transpositions, size_t a_size,
                   size_t b_size) {
  double m = static_cast<double>(matches);
  return (m / a_size + m / b_size + (m - transpositions / 2.0) / m) / 3.0;
}

size_t JaroWindow(size_t a_size, size_t b_size) {
  return std::max(a_size, b_size) / 2 > 0 ? std::max(a_size, b_size) / 2 - 1
                                          : 0;
}

// Jaro for strings of at most 64 bytes: match marks are two 64-bit masks,
// and each a[i] takes the lowest unmatched equal position of b inside its
// window in one mask step — the position JaroSimilarity's scan finds.
double JaroWithMasks(std::string_view a, std::string_view b) {
  uint64_t peq[256] = {};
  for (size_t j = 0; j < b.size(); ++j) {
    peq[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
  }
  auto below = [](size_t n) {
    return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  };
  const size_t window = JaroWindow(a.size(), b.size());
  uint64_t a_matched = 0, b_matched = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    uint64_t free_equal = peq[static_cast<unsigned char>(a[i])] & ~b_matched &
                          below(hi) & ~below(lo);
    if (free_equal == 0) continue;
    a_matched |= uint64_t{1} << i;
    b_matched |= free_equal & (~free_equal + 1);  // lowest set bit
  }
  if (a_matched == 0) return 0.0;
  // Count transpositions: the n-th matched char of a against the n-th of b.
  const size_t matches = static_cast<size_t>(std::popcount(a_matched));
  size_t t = 0;
  while (a_matched != 0) {
    if (a[static_cast<size_t>(std::countr_zero(a_matched))] !=
        b[static_cast<size_t>(std::countr_zero(b_matched))]) {
      ++t;
    }
    a_matched &= a_matched - 1;  // clear the lowest set bit
    b_matched &= b_matched - 1;
  }
  return JaroFormula(matches, t, a.size(), b.size());
}

}  // namespace

double JaccardSimilarity(const std::set<std::string>& a,
                         const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  for (const std::string& t : a) {
    if (b.count(t)) ++inter;
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardSimilarity(const TokenIdList& a, const TokenIdList& b) {
  if (a.empty() && b.empty()) return 1.0;
  // Branch-free merge: each step advances past the smaller head (both on a
  // tie, which is one common id).
  size_t inter = 0;
  for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    const uint32_t x = a[i], y = b[j];
    inter += x == y;
    i += x <= y;
    j += y <= x;
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double WordJaccard(std::string_view a, std::string_view b) {
  return JaccardSimilarity(TokenSet(WordTokens(a)), TokenSet(WordTokens(b)));
}

double QGramJaccard(std::string_view a, std::string_view b, size_t q) {
  return JaccardSimilarity(TokenSet(QGrams(a, q)), TokenSet(QGrams(b, q)));
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  if (a.size() <= 64) return BitParallelDistance(a, b);
  std::vector<size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t d = LevenshteinDistance(a, b);
  size_t m = std::max(a.size(), b.size());
  return 1.0 - static_cast<double>(d) / static_cast<double>(m);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a.size() <= 64 && b.size() <= 64) return JaroWithMasks(a, b);
  const size_t window = JaroWindow(a.size(), b.size());
  std::vector<bool> a_matched(a.size(), false), b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t t = 0, k = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++t;
    ++k;
  }
  return JaroFormula(matches, t, a.size(), b.size());
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t max_prefix = std::min<size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + 0.1 * static_cast<double>(prefix) * (1.0 - jaro);
}

double CosineWordSimilarity(std::string_view a, std::string_view b) {
  std::map<std::string, int> fa, fb;
  for (const std::string& t : WordTokens(a)) ++fa[t];
  for (const std::string& t : WordTokens(b)) ++fb[t];
  if (fa.empty() && fb.empty()) return 1.0;
  if (fa.empty() || fb.empty()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (const auto& [t, c] : fa) {
    na += static_cast<double>(c) * c;
    auto it = fb.find(t);
    if (it != fb.end()) dot += static_cast<double>(c) * it->second;
  }
  for (const auto& [t, c] : fb) nb += static_cast<double>(c) * c;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double OverlapCoefficient(std::string_view a, std::string_view b) {
  std::set<std::string> sa = TokenSet(WordTokens(a));
  std::set<std::string> sb = TokenSet(WordTokens(b));
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  size_t inter = 0;
  for (const std::string& t : sa) {
    if (sb.count(t)) ++inter;
  }
  return static_cast<double>(inter) / std::min(sa.size(), sb.size());
}

}  // namespace visclean
