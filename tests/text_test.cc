// Unit + property tests for src/text: tokenizers, similarity measures, and
// the prefix-filtering similarity join.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "text/sim_join.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace visclean {
namespace {

// Exact bits of a double, for bit-identity assertions.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// -------------------------------------------------------------- tokenize --

TEST(TokenizeTest, WordTokensLowercaseAlnum) {
  std::vector<std::string> tokens = WordTokens("SIGMOD Conf. 2013!");
  EXPECT_EQ(tokens, (std::vector<std::string>{"sigmod", "conf", "2013"}));
}

TEST(TokenizeTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("  ... ").empty());
}

TEST(TokenizeTest, QGramsNormalizesWhitespaceAndCase) {
  std::vector<std::string> grams = QGrams("A  b", 2);
  EXPECT_EQ(grams, (std::vector<std::string>{"a ", " b"}));
}

TEST(TokenizeTest, QGramsShortString) {
  std::vector<std::string> grams = QGrams("ab", 3);
  EXPECT_EQ(grams, (std::vector<std::string>{"ab"}));
}

// ------------------------------------------------------------ similarity --

TEST(SimilarityTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(WordJaccard("SIGMOD Conf", "SIGMOD"), 0.5);
  EXPECT_DOUBLE_EQ(WordJaccard("a b", "a b"), 1.0);
  EXPECT_DOUBLE_EQ(WordJaccard("a", "b"), 0.0);
  EXPECT_DOUBLE_EQ(WordJaccard("", ""), 1.0);
}

TEST(SimilarityTest, LevenshteinDistance) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
}

TEST(SimilarityTest, LevenshteinSimilarityNormalized) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abd"), 1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
}

TEST(SimilarityTest, JaroWinklerPrefixBoost) {
  double jaro = JaroSimilarity("MARTHA", "MARHTA");
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_NEAR(jaro, 0.9444, 1e-3);
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.9611, 1e-3);
}

TEST(SimilarityTest, JaroEdgeCases) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(SimilarityTest, CosineWordSimilarity) {
  EXPECT_DOUBLE_EQ(CosineWordSimilarity("a b", "a b"), 1.0);
  EXPECT_NEAR(CosineWordSimilarity("a b", "a c"), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(CosineWordSimilarity("a", ""), 0.0);
}

TEST(SimilarityTest, OverlapCoefficient) {
  // "SIGMOD" ⊂ "ACM SIGMOD" -> overlap 1.
  EXPECT_DOUBLE_EQ(OverlapCoefficient("ACM SIGMOD", "SIGMOD"), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient("a b", "c d"), 0.0);
}

// Property sweep: every measure stays in [0,1], is symmetric, and scores
// identical strings as 1.
using SimilarityFn = double (*)(std::string_view, std::string_view);

// One measure under test. It prints as its name, so CTest discovery lists the
// case as ".../RangeSymmetryIdentity/<name>"; printing the raw tuple put
// function addresses, different in every build, into that name.
struct MeasureCase {
  const char* name;
  SimilarityFn fn;
};

void PrintTo(const MeasureCase& c, std::ostream* os) { *os << c.name; }

class SimilarityPropertyTest : public ::testing::TestWithParam<MeasureCase> {};

TEST_P(SimilarityPropertyTest, RangeSymmetryIdentity) {
  SimilarityFn fn = GetParam().fn;
  const std::vector<std::string> corpus = {
      "",          "SIGMOD",        "ACM SIGMOD",  "SIGMOD Conf.",
      "SIGMOD'13", "VLDB",          "Very Large Data Bases",
      "ICDE 2013", "IEEE ICDE Conf. 2015", "a", "ab ba",
  };
  for (const std::string& x : corpus) {
    EXPECT_DOUBLE_EQ(fn(x, x), 1.0) << x;
    for (const std::string& y : corpus) {
      double s = fn(x, y);
      EXPECT_GE(s, 0.0) << x << " vs " << y;
      EXPECT_LE(s, 1.0) << x << " vs " << y;
      EXPECT_NEAR(s, fn(y, x), 1e-12) << x << " vs " << y;
    }
  }
}

double QGramJaccard3(std::string_view a, std::string_view b) {
  return QGramJaccard(a, b, 3);
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, SimilarityPropertyTest,
    ::testing::Values(MeasureCase{"word_jaccard", &WordJaccard},
                      MeasureCase{"qgram_jaccard", &QGramJaccard3},
                      MeasureCase{"levenshtein", &LevenshteinSimilarity},
                      MeasureCase{"jaro", &JaroSimilarity},
                      MeasureCase{"jaro_winkler", &JaroWinklerSimilarity},
                      MeasureCase{"cosine", &CosineWordSimilarity},
                      MeasureCase{"overlap", &OverlapCoefficient}));

// ------------------------------------------------- fast-kernel oracles --

// Textbook oracles, copied here so the fast kernels in src/text (bit-parallel
// Levenshtein, mask Jaro, id-list Jaccard) are checked against code they do
// not share.
size_t OracleLevenshtein(std::string_view a, std::string_view b) {
  const size_t w = b.size() + 1;
  std::vector<size_t> d((a.size() + 1) * w);
  for (size_t i = 0; i <= a.size(); ++i) d[i * w] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i * w + j] =
          std::min({d[(i - 1) * w + j] + 1, d[i * w + j - 1] + 1,
                    d[(i - 1) * w + j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return d[a.size() * w + b.size()];
}

double OracleJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t window =
      std::max(a.size(), b.size()) / 2 > 0 ? std::max(a.size(), b.size()) / 2 - 1
                                           : 0;
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
  size_t t = 0, k = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++t;
    ++k;
  }
  double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - t / 2.0) / m) / 3.0;
}

double OracleJaccard(const std::set<std::string>& a,
                     const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  for (const std::string& t : a) {
    if (b.count(t)) ++inter;
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

// A random string: lengths 0-130 with mass on both sides of 64 and on the
// <= 3-byte whole-string q-gram case; a small alphabet (so matches happen)
// plus upper case, whitespace runs, punctuation and bytes >= 0x80.
std::string RandomString(Rng* rng) {
  static constexpr char kAlphabet[] = "abcdeABCDE01 \t\n\r.,'-";
  const int64_t bucket = rng->UniformInt(0, 19);
  const int64_t len = bucket < 3    ? rng->UniformInt(0, 3)
                      : bucket < 14 ? rng->UniformInt(4, 30)
                      : bucket < 18 ? rng->UniformInt(31, 80)
                                    : rng->UniformInt(81, 130);
  std::string s;
  while (s.size() < static_cast<size_t>(len)) {
    const int64_t pick = rng->UniformInt(0, 99);
    if (pick < 5) {
      s += static_cast<char>(0x80 + pick * 25);  // a byte >= 0x80
    } else if (pick < 12) {
      s.append(static_cast<size_t>(pick % 3 + 2), ' ');  // a whitespace run
    } else {
      s += kAlphabet[pick % (sizeof(kAlphabet) - 1)];
    }
  }
  s.resize(static_cast<size_t>(len));
  return s;
}

// A few random edits of `s`, so pairs with small distances are common.
std::string Mutate(std::string s, Rng* rng) {
  const int64_t edits = rng->UniformInt(0, 4);
  for (int64_t e = 0; e < edits; ++e) {
    const size_t pos =
        static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(s.size())));
    const char c = static_cast<char>(rng->UniformInt('a', 'e'));
    switch (rng->UniformInt(0, 2)) {
      case 0:
        s.insert(pos, 1, c);
        break;
      case 1:
        if (pos < s.size()) s.erase(pos, 1);
        break;
      default:
        if (pos < s.size()) s[pos] = c;
        break;
    }
  }
  return s;
}

TEST(SimilarityKernelPropertyTest, FastKernelsMatchOraclesOnRandomPairs) {
  // A pool of random strings, each next to a lightly edited sibling and
  // tokenized once both ways; 100k pairs are drawn from it, half of them
  // siblings (small distances), half unrelated.
  struct Sample {
    std::string text;
    std::set<std::string> words, grams;
    TokenIdList word_ids, gram_ids;
  };
  Rng rng(20261018);
  TokenInterner interner;
  std::vector<Sample> pool;
  for (size_t i = 0; i < 4000; ++i) {
    const std::string base = RandomString(&rng);
    for (const std::string& text : {base, Mutate(base, &rng)}) {
      pool.push_back({text, TokenSet(WordTokens(text)),
                      TokenSet(QGrams(text, 3)), interner.WordIds(text),
                      QGramIds(text)});
    }
  }
  auto draw = [&] {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
  };
  size_t crossed_64 = 0;
  for (size_t n = 0; n < 100000; ++n) {
    const size_t i = draw();
    const Sample& x = pool[i];
    const Sample& y = pool[rng.Bernoulli(0.5) ? (i ^ 1) : draw()];
    const std::string& a = x.text;
    const std::string& b = y.text;
    if (std::min(a.size(), b.size()) <= 64 &&
        std::max(a.size(), b.size()) > 64) {
      ++crossed_64;
    }

    const size_t distance = OracleLevenshtein(a, b);
    ASSERT_EQ(LevenshteinDistance(a, b), distance) << a << " | " << b;
    ASSERT_EQ(LevenshteinDistance(b, a), distance) << a << " | " << b;

    ASSERT_EQ(Bits(JaroSimilarity(a, b)), Bits(OracleJaro(a, b)))
        << a << " | " << b;
    ASSERT_EQ(Bits(JaroSimilarity(b, a)), Bits(OracleJaro(b, a)))
        << a << " | " << b;

    ASSERT_EQ(Bits(JaccardSimilarity(x.gram_ids, y.gram_ids)),
              Bits(OracleJaccard(x.grams, y.grams)))
        << a << " | " << b;
    ASSERT_EQ(Bits(JaccardSimilarity(x.word_ids, y.word_ids)),
              Bits(OracleJaccard(x.words, y.words)))
        << a << " | " << b;
  }
  EXPECT_GT(crossed_64, 1000u);  // the bit-parallel / DP boundary is hit
}

TEST(SimilarityKernelPropertyTest, QGramIdsPackShortStringsWhole) {
  // <= 3 bytes after normalization: one whole-string gram, which must equal
  // the same 3 bytes seen as an inner gram of a longer string.
  EXPECT_EQ(QGramIds("  Ab  ").size(), 1u);
  EXPECT_EQ(QGramIds("AB"), QGramIds("ab"));
  EXPECT_NE(QGramIds("ab"), QGramIds("abc"));
  EXPECT_EQ(JaccardSimilarity(QGramIds("abc"), QGramIds("abcd")),
            QGramJaccard("abc", "abcd", 3));
  EXPECT_TRUE(QGramIds(" \t ").empty());
}

// -------------------------------------------------------------- sim join --

TEST(SimJoinTest, FindsSynonymPairs) {
  std::vector<std::string> left = {"SIGMOD'13", "VLDB"};
  std::vector<std::string> right = {"SIGMOD 13", "Very Large Data Bases",
                                    "ICDE"};
  SimJoinOptions options;
  options.threshold = 0.5;
  std::vector<SimJoinPair> pairs = SimilarityJoin(left, right, options);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].left_index, 0u);
  EXPECT_EQ(pairs[0].right_index, 0u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);  // same token set
}

TEST(SimJoinTest, SelfJoinNoSelfPairs) {
  std::vector<std::string> items = {"a b c", "a b c", "x y"};
  std::vector<SimJoinPair> pairs = SimilaritySelfJoin(items, {});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].left_index, 0u);
  EXPECT_EQ(pairs[0].right_index, 1u);
}

TEST(SimJoinTest, ThresholdRespected) {
  std::vector<std::string> items = {"alpha beta gamma", "alpha beta delta",
                                    "omega"};
  SimJoinOptions options;
  options.threshold = 0.6;
  // Jaccard(0,1) = 2/4 = 0.5 < 0.6 -> excluded.
  EXPECT_TRUE(SimilaritySelfJoin(items, options).empty());
  options.threshold = 0.5;
  EXPECT_EQ(SimilaritySelfJoin(items, options).size(), 1u);
}

// Property: the prefix-filtered join returns exactly the pairs a naive
// quadratic scan finds, across thresholds.
class SimJoinEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(SimJoinEquivalenceTest, MatchesNaiveJoin) {
  double threshold = GetParam();
  Rng rng(77);
  const std::vector<std::string> vocab = {"data", "base", "query", "join",
                                          "index", "clean", "graph", "view"};
  std::vector<std::string> items;
  for (int i = 0; i < 40; ++i) {
    std::string s;
    int len = static_cast<int>(rng.UniformInt(1, 4));
    for (int w = 0; w < len; ++w) {
      if (w > 0) s += ' ';
      s += vocab[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vocab.size()) - 1))];
    }
    items.push_back(s);
  }

  SimJoinOptions options;
  options.threshold = threshold;
  std::vector<SimJoinPair> fast = SimilaritySelfJoin(items, options);

  size_t naive_count = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      if (WordJaccard(items[i], items[j]) >= threshold) ++naive_count;
    }
  }
  EXPECT_EQ(fast.size(), naive_count);
  for (const SimJoinPair& p : fast) {
    EXPECT_NEAR(p.similarity, WordJaccard(items[p.left_index], items[p.right_index]),
                1e-12);
    EXPECT_GE(p.similarity, threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SimJoinEquivalenceTest,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

// Naive O(n^2) reference self-join sharing the header's semantics: strings
// with empty token sets never join, exact set-Jaccard, the same
// (similarity desc, left, right) output order.
std::vector<SimJoinPair> NaiveSelfJoin(const std::vector<std::string>& items,
                                       const SimJoinOptions& options) {
  std::vector<std::set<std::string>> sets;
  sets.reserve(items.size());
  for (const std::string& s : items) {
    sets.push_back(TokenSet(options.use_qgrams ? QGrams(s, 3) : WordTokens(s)));
  }
  std::vector<SimJoinPair> out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (sets[i].empty()) continue;
    for (size_t j = i + 1; j < items.size(); ++j) {
      if (sets[j].empty()) continue;
      double sim = JaccardSimilarity(sets[i], sets[j]);
      if (sim >= options.threshold) out.push_back({i, j, sim});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SimJoinPair& a, const SimJoinPair& b) {
              if (a.similarity != b.similarity)
                return a.similarity > b.similarity;
              if (a.left_index != b.left_index)
                return a.left_index < b.left_index;
              return a.right_index < b.right_index;
            });
  return out;
}

// Exact bit-level equality against the reference: pair count, indices,
// similarity doubles, and output order.
void ExpectBitIdentical(const std::vector<SimJoinPair>& got,
                        const std::vector<SimJoinPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].left_index, want[i].left_index) << "pair " << i;
    EXPECT_EQ(got[i].right_index, want[i].right_index) << "pair " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "pair " << i;
  }
}

TEST(SimJoinEdgeCaseTest, QGramModeMatchesNaive) {
  std::vector<std::string> items = {"sigmod", "sigmond", "sigmod conf",
                                    "vldb",   "vldbj",   "icde 2013",
                                    "icde 13"};
  SimJoinOptions options;
  options.use_qgrams = true;
  for (double t : {0.2, 0.4, 0.6, 0.8}) {
    options.threshold = t;
    ExpectBitIdentical(SimilaritySelfJoin(items, options),
                       NaiveSelfJoin(items, options));
  }
}

TEST(SimJoinEdgeCaseTest, ThresholdOneEmitsExactDuplicatesOnly) {
  std::vector<std::string> items = {"a b c", "c b a", "a b", "x", "x!"};
  SimJoinOptions options;
  options.threshold = 1.0;
  std::vector<SimJoinPair> got = SimilaritySelfJoin(items, options);
  ExpectBitIdentical(got, NaiveSelfJoin(items, options));
  // "a b c" == "c b a" as token sets; "x" == "x!" after tokenization.
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].similarity, 1.0);
  EXPECT_EQ(got[1].similarity, 1.0);
}

TEST(SimJoinEdgeCaseTest, EmptyStringsNeverJoin) {
  // Empty and punctuation-only strings have empty token sets: by the
  // header's semantics they never pair, not even with each other.
  std::vector<std::string> items = {"", "  ", "...", "", "a b", "a b"};
  SimJoinOptions options;
  options.threshold = 0.1;
  std::vector<SimJoinPair> got = SimilaritySelfJoin(items, options);
  ExpectBitIdentical(got, NaiveSelfJoin(items, options));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].left_index, 4u);
  EXPECT_EQ(got[0].right_index, 5u);
}

TEST(SimJoinEdgeCaseTest, AllIdenticalSpellings) {
  std::vector<std::string> items(6, "acm sigmod");
  SimJoinOptions options;
  options.threshold = 0.9;
  std::vector<SimJoinPair> got = SimilaritySelfJoin(items, options);
  ExpectBitIdentical(got, NaiveSelfJoin(items, options));
  EXPECT_EQ(got.size(), 15u);  // C(6,2), all at similarity 1.0
}

TEST(SimJoinEdgeCaseTest, SingleAndEmptyInput) {
  SimJoinOptions options;
  options.threshold = 0.0;
  EXPECT_TRUE(SimilaritySelfJoin({}, options).empty());
  EXPECT_TRUE(SimilaritySelfJoin({"only one"}, options).empty());
  EXPECT_TRUE(SimilaritySelfJoin({""}, options).empty());
}

// ---------------------------------------------------- incremental join --

// The maintained join must stay bit-identical to a from-scratch
// SimilaritySelfJoin over its current item set after any sequence of
// inserts and retracts.
void ExpectMatchesScratch(const IncrementalSimJoin& join,
                          const SimJoinOptions& options) {
  std::vector<SimJoinPair> want = SimilaritySelfJoin(join.items(), options);
  ExpectBitIdentical(join.Pairs(), want);
}

TEST(IncrementalSimJoinTest, RebuildMatchesScratchJoin) {
  std::vector<std::string> items = {"acm sigmod", "icde", "sigmod conf",
                                    "vldb"};
  SimJoinOptions options;
  options.threshold = 0.3;
  IncrementalSimJoin join;
  join.Rebuild(items, options, nullptr);
  EXPECT_TRUE(join.primed());
  EXPECT_TRUE(join.OptionsMatch(options));
  EXPECT_EQ(join.items(), items);
  ExpectMatchesScratch(join, options);
  EXPECT_EQ(join.stats().full_joins, 1u);
  EXPECT_EQ(join.stats().fallback_full_joins, 0u);
}

TEST(IncrementalSimJoinTest, InsertFindsNewPartnersRetractDropsThem) {
  SimJoinOptions options;
  options.threshold = 0.4;
  IncrementalSimJoin join;
  join.Rebuild({"data cleaning", "query processing"}, options, nullptr);
  ASSERT_TRUE(join.Pairs().empty());

  // The newcomer shares one token with each resident — below threshold, so
  // still no pairs.
  join.Insert("data query");
  ExpectMatchesScratch(join, options);
  EXPECT_EQ(join.stats().inserts, 1u);
  EXPECT_TRUE(join.Pairs().empty());

  // "fresh" is unseen: it gets appended past the frozen frequency order (the
  // reordering hard case) and the join must still find its partner
  // ("fresh data query" vs "data query": 2/3 >= 0.4).
  join.Insert("fresh data query");
  ExpectMatchesScratch(join, options);
  EXPECT_GT(join.stats().token_appends, 0u);
  EXPECT_FALSE(join.Pairs().empty());

  join.Retract("fresh data query");
  join.Retract("data query");
  ExpectMatchesScratch(join, options);
  EXPECT_TRUE(join.Pairs().empty());
  EXPECT_EQ(join.stats().retracts, 2u);
  EXPECT_EQ(join.stats().pairs_removed, join.stats().pairs_added);
}

TEST(IncrementalSimJoinTest, RandomWalkStaysBitIdenticalToScratch) {
  Rng rng(123);
  const std::vector<std::string> vocab = {"data",  "base", "query", "join",
                                          "index", "clean", "graph", "view",
                                          "plan",  "cost"};
  std::vector<std::string> pool;
  for (int i = 0; i < 60; ++i) {
    std::string s;
    int len = static_cast<int>(rng.UniformInt(1, 4));
    for (int w = 0; w < len; ++w) {
      if (w > 0) s += ' ';
      s += vocab[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vocab.size()) - 1))];
    }
    pool.push_back(s);
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  SimJoinOptions options;
  options.threshold = 0.5;
  IncrementalSimJoin join;
  std::vector<std::string> seed(pool.begin(),
                                pool.begin() + static_cast<long>(pool.size() / 2));
  join.Rebuild(seed, options, nullptr);
  ExpectMatchesScratch(join, options);

  for (int step = 0; step < 80; ++step) {
    const std::string& s = pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    if (join.Contains(s)) {
      join.Retract(s);
    } else {
      join.Insert(s);
    }
    ExpectMatchesScratch(join, options);
  }
  EXPECT_GT(join.stats().inserts, 0u);
  EXPECT_GT(join.stats().retracts, 0u);
}

TEST(IncrementalSimJoinTest, ApplyDeltaCountsOneSyncAndOptionsGateRebuild) {
  SimJoinOptions options;
  options.threshold = 0.5;
  IncrementalSimJoin join;
  join.Rebuild({"a b", "a c"}, options, nullptr);

  join.ApplyDelta({"a c"}, {"a b c", "b c"}, 0.25);
  ExpectMatchesScratch(join, options);
  EXPECT_EQ(join.stats().delta_syncs, 1u);
  EXPECT_DOUBLE_EQ(join.stats().last_dirty_fraction, 0.25);

  SimJoinOptions qgrams = options;
  qgrams.use_qgrams = true;
  EXPECT_FALSE(join.OptionsMatch(qgrams));
  join.Rebuild(join.items(), qgrams, nullptr, /*dirty_fallback=*/true);
  ExpectMatchesScratch(join, qgrams);
  EXPECT_EQ(join.stats().full_joins, 2u);
  EXPECT_EQ(join.stats().fallback_full_joins, 1u);

  join.Clear();
  EXPECT_FALSE(join.primed());
  EXPECT_EQ(join.num_items(), 0u);
  EXPECT_EQ(join.stats().full_joins, 0u);
}

}  // namespace
}  // namespace visclean
