#include "sketch/find_text.h"

#include <algorithm>
#include <cctype>
#include <regex>

#include "storage/scan.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hillview {

std::string StringFilter::ToString() const {
  std::string mode_name;
  switch (mode) {
    case Mode::kSubstring:
      mode_name = "substring";
      break;
    case Mode::kExact:
      mode_name = "exact";
      break;
    case Mode::kRegex:
      mode_name = "regex";
      break;
  }
  return mode_name + (case_sensitive ? "/cs" : "/ci") + ":" + text;
}

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

StringMatcher::StringMatcher(const StringFilter& filter) : filter_(filter) {
  if (!filter_.case_sensitive) lowered_text_ = Lower(filter_.text);
  if (filter_.mode == StringFilter::Mode::kRegex) {
    auto flags = std::regex::ECMAScript | std::regex::optimize;
    if (!filter_.case_sensitive) flags |= std::regex::icase;
    // A user-supplied pattern is untrusted input: compile failures become a
    // Status (checked by the API surfaces before scanning), never an
    // exception escaping into sketch execution.
    try {
      regex_ = std::make_shared<std::regex>(filter_.text, flags);
    } catch (const std::regex_error& e) {
      status_ = Status::InvalidArgument("invalid regex '" + filter_.text +
                                        "': " + e.what());
    }
  }
}

Status StringMatcher::Validate(const StringFilter& filter) {
  return StringMatcher(filter).status();
}

bool StringMatcher::Matches(std::string_view s) const {
  switch (filter_.mode) {
    case StringFilter::Mode::kExact:
      if (filter_.case_sensitive) return s == filter_.text;
      return Lower(s) == lowered_text_;
    case StringFilter::Mode::kSubstring:
      if (filter_.case_sensitive) {
        return s.find(filter_.text) != std::string_view::npos;
      }
      return Lower(s).find(lowered_text_) != std::string::npos;
    case StringFilter::Mode::kRegex:
      if (regex_ == nullptr) return false;  // failed compile matches nothing
      // Iterator form: mapped dictionaries hand out views into the string
      // pool, which regex_search can scan in place.
      return std::regex_search(
          s.data(), s.data() + s.size(),
          *static_cast<const std::regex*>(regex_.get()));
  }
  return false;
}

std::vector<uint8_t> MatchDictionary(const StringMatcher& matcher,
                                     const StringDictionary& dict,
                                     ThreadPool* pool) {
  const size_t n = dict.size();
  std::vector<uint8_t> match(n, 0);
  if (pool == nullptr || n < kParallelDictionaryThreshold) {
    for (size_t d = 0; d < n; ++d) {
      match[d] = matcher.Matches(dict[static_cast<uint32_t>(d)]) ? 1 : 0;
    }
    return match;
  }
  // Chunk across the pool with the caller participating (ParallelApply):
  // chunks write disjoint byte ranges of `match`, so no synchronization is
  // needed beyond the apply itself — and caller participation is what makes
  // this safe even when `pool` is the same pool running this summarize.
  // Oversplit relative to the thread count so uneven string lengths (one
  // chunk full of long log lines) still balance.
  const size_t chunks =
      std::min<size_t>(static_cast<size_t>(pool->num_threads()) * 4,
                       (n + 511) / 512);
  const size_t per_chunk = (n + chunks - 1) / chunks;
  ParallelApply(pool, static_cast<int>(chunks), [&](int c) {
    const size_t begin = static_cast<size_t>(c) * per_chunk;
    const size_t end = std::min(n, begin + per_chunk);
    for (size_t d = begin; d < end; ++d) {
      match[d] = matcher.Matches(dict[static_cast<uint32_t>(d)]) ? 1 : 0;
    }
  });
  return match;
}

void FindResult::Serialize(ByteWriter* w) const {
  w->WriteI64(match_count);
  w->WriteI64(matches_before);
  w->WriteBool(first_match.has_value());
  if (first_match.has_value()) {
    w->WriteU32(static_cast<uint32_t>(first_match->size()));
    for (const auto& v : *first_match) SerializeValue(v, w);
  }
}

Status FindResult::Deserialize(ByteReader* r, FindResult* out) {
  HV_RETURN_IF_ERROR(r->ReadI64(&out->match_count));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->matches_before));
  bool has = false;
  HV_RETURN_IF_ERROR(r->ReadBool(&has));
  if (has) {
    uint32_t n = 0;
    HV_RETURN_IF_ERROR(r->ReadCount(&n, /*min_element_bytes=*/1));
    std::vector<Value> key(n);
    for (auto& v : key) HV_RETURN_IF_ERROR(DeserializeValue(r, &v));
    out->first_match = std::move(key);
  }
  return Status::OK();
}

std::string FindTextSketch::name() const {
  return "find-text(" + filter_.ToString() + ")";
}

FindResult FindTextSketch::Summarize(const Table& table, uint64_t seed,
                                     const SketchContext& context) const {
  (void)seed;
  FindResult result;
  StringMatcher matcher(filter_);
  // Defense in depth: API surfaces validate the pattern before running the
  // sketch; a matcher that still failed to compile matches nothing.
  if (!matcher.status().ok()) return result;

  // Bind the searched string columns once.
  std::vector<const IColumn*> cols;
  for (const auto& name : columns_) {
    ColumnPtr c = table.GetColumnOrNull(name);
    if (c != nullptr && IsStringKind(c->kind())) cols.push_back(c.get());
  }
  if (cols.empty()) return result;

  // Precompute dictionary match bits per column: each distinct string is
  // tested once — chunked over the worker's auxiliary pool for huge
  // dictionaries — then rows reduce to a code lookup. The code arrays are
  // bound once too, so the row loop performs no virtual calls.
  std::vector<std::vector<uint8_t>> dict_match(cols.size());
  std::vector<const uint32_t*> codes(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    const auto& dict = cols[i]->Dictionary();
    // Only a dictionary big enough to chunk uses the pool; a smaller one
    // matches inline on the calling thread.
    ThreadPool* pool = dict.size() >= kParallelDictionaryThreshold
                           ? context.aux_pool
                           : nullptr;
    dict_match[i] = MatchDictionary(matcher, dict, pool);
    codes[i] = cols[i]->RawCodes();
  }

  std::vector<std::string> names = order_.ColumnNames();
  std::optional<uint32_t> best_row;
  RowComparator comparator(table, order_);
  std::optional<RowKeyComparator> start;
  if (start_key_.has_value()) start.emplace(table, order_, *start_key_);

  ScanRows(*table.members(), 1.0, 0, [&](uint32_t row) {
    bool matches = false;
    for (size_t i = 0; i < cols.size(); ++i) {
      uint32_t code = codes[i][row];
      // Any code past the dictionary reads as missing (matches nothing) —
      // same corrupt-tolerant rule the scan layer applies.
      if (code < dict_match[i].size() && dict_match[i][code]) {
        matches = true;
        break;
      }
    }
    if (!matches) return;
    ++result.match_count;
    if (start.has_value() && start->Compare(row) <= 0) {
      ++result.matches_before;
      return;
    }
    if (!best_row.has_value() || comparator.Less(row, *best_row)) {
      best_row = row;
    }
  });

  if (best_row.has_value()) {
    result.first_match = table.GetRow(*best_row, names);
  }
  return result;
}

FindResult FindTextSketch::Merge(const FindResult& left,
                                 const FindResult& right) const {
  FindResult out;
  out.match_count = left.match_count + right.match_count;
  out.matches_before = left.matches_before + right.matches_before;
  if (!left.first_match.has_value()) {
    out.first_match = right.first_match;
  } else if (!right.first_match.has_value()) {
    out.first_match = left.first_match;
  } else {
    out.first_match = CompareKeyCells(order_, *left.first_match,
                                      *right.first_match) <= 0
                          ? left.first_match
                          : right.first_match;
  }
  return out;
}

}  // namespace hillview
