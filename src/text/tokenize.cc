#include "text/tokenize.h"

#include <algorithm>

#include "common/status.h"

namespace visclean {

namespace {

// Calls emit(token) for each lowercased alphanumeric run of `s`; emit may
// move the token out.
template <typename Emit>
void ForEachWordToken(std::string_view s, Emit&& emit) {
  std::string cur;
  for (char c : s) {
    bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9');
    if (alnum) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      cur += c;
    } else if (!cur.empty()) {
      emit(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) emit(cur);
}

// Lowercases and collapses runs of whitespace to single spaces, trimmed.
std::string NormalizeForQGrams(std::string_view s) {
  std::string norm;
  bool prev_space = true;
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      if (!prev_space) norm += ' ';
      prev_space = true;
    } else {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      norm += c;
      prev_space = false;
    }
  }
  while (!norm.empty() && norm.back() == ' ') norm.pop_back();
  return norm;
}

void SortUnique(TokenIdList* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> out;
  ForEachWordToken(s, [&](std::string& token) {
    out.push_back(std::move(token));
  });
  return out;
}

std::vector<std::string> QGrams(std::string_view s, size_t q) {
  std::string norm = NormalizeForQGrams(s);
  std::vector<std::string> out;
  if (norm.empty()) return out;
  if (norm.size() <= q) {
    out.push_back(norm);
    return out;
  }
  for (size_t i = 0; i + q <= norm.size(); ++i) {
    out.push_back(norm.substr(i, q));
  }
  return out;
}

std::set<std::string> TokenSet(const std::vector<std::string>& tokens) {
  return std::set<std::string>(tokens.begin(), tokens.end());
}

TokenIdList QGramIds(std::string_view s) {
  constexpr size_t q = 3;
  const std::string norm = NormalizeForQGrams(s);
  auto pack = [&](size_t begin, size_t len) {
    uint32_t id = static_cast<uint32_t>(len) << 24;
    for (size_t i = 0; i < len; ++i) {
      id |= static_cast<uint32_t>(static_cast<unsigned char>(norm[begin + i]))
            << (16 - 8 * i);
    }
    return id;
  };
  TokenIdList out;
  if (norm.empty()) return out;
  if (norm.size() <= q) {
    out.push_back(pack(0, norm.size()));
    return out;
  }
  out.reserve(norm.size() - q + 1);
  for (size_t i = 0; i + q <= norm.size(); ++i) out.push_back(pack(i, q));
  SortUnique(&out);
  return out;
}

TokenIdList TokenInterner::WordIds(std::string_view s) {
  TokenIdList out;
  ForEachWordToken(s, [&](const std::string& token) {
    auto it = ids_.find(token);
    if (it == ids_.end()) {
      VC_CHECK(ids_.size() < UINT32_MAX, "TokenInterner: id space exhausted");
      it = ids_.emplace(token, static_cast<uint32_t>(ids_.size())).first;
    }
    out.push_back(it->second);
  });
  SortUnique(&out);
  return out;
}

std::optional<uint32_t> TokenInterner::Find(const std::string& token) const {
  auto it = ids_.find(token);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

}  // namespace visclean
