#include "util/serialize.h"

namespace hillview {

namespace {

uint64_t Delta(uint64_t w, uint64_t prev) {
  return ZigZagEncode(static_cast<int64_t>(w - prev));
}

uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Calls fn(length, word) for each maximal run of equal words.
template <typename Fn>
void ForEachRun(std::span<const uint64_t> words, Fn fn) {
  size_t start = 0;
  for (size_t i = 1; i <= words.size(); ++i) {
    if (i == words.size() || words[i] != words[start]) {
      fn(i - start, words[start]);
      start = i;
    }
  }
}

Status RunsMismatch() {
  return Status::InvalidArgument("runs do not sum to the declared length");
}

}  // namespace

void ByteWriter::WriteWords(std::span<const uint64_t> words) {
  size_t deltas = 0, runs_bytes = 0;
  uint64_t runs = 0, prev = 0;
  for (uint64_t w : words) {
    deltas += VarintSize(Delta(w, prev));
    prev = w;
  }
  prev = 0;
  ForEachRun(words, [&](uint64_t length, uint64_t w) {
    runs_bytes += VarintSize(length) + VarintSize(Delta(w, prev));
    prev = w;
    ++runs;
  });
  runs_bytes += VarintSize(runs);
  const bool use_runs = runs_bytes <= deltas;
  uint8_t* p =
      Extend(use_runs ? CodedForm::kWordRuns : CodedForm::kWordDeltas,
             words.size(), use_runs ? runs_bytes : deltas);
  prev = 0;
  if (!use_runs) {
    for (uint64_t w : words) {
      p = PutVarint(p, Delta(w, prev));
      prev = w;
    }
    return;
  }
  p = PutVarint(p, runs);
  ForEachRun(words, [&](uint64_t length, uint64_t w) {
    p = PutVarint(p, length);
    p = PutVarint(p, Delta(w, prev));
    prev = w;
  });
}

uint8_t* ByteWriter::Extend(CodedForm form, uint64_t length, size_t body) {
  const size_t at = bytes_.size();
  bytes_.resize(at + 1 + VarintSize(length) + body);
  uint8_t* p = bytes_.data() + at;
  *p++ = static_cast<uint8_t>(form);
  return PutVarint(p, length);
}

Status ByteReader::ReadVarint(uint64_t* out) {
  Status error;
  NextVarint(out, &error);
  return error;
}

template <typename Word>
Status ByteReader::ReadWordsAs(std::vector<Word>* out) {
  CodedForm form;
  uint64_t n = 0;
  HV_RETURN_IF_ERROR(ReadFormAndLength(&form, &n));
  Status error;
  uint64_t z = 0, prev = 0;
  if (form == CodedForm::kWordDeltas) {
    if (n > Remaining()) return Truncated();  // a delta costs ≥ 1 byte
    out->resize(n);
    for (Word& w : *out) {
      if (!NextVarint(&z, &error)) return error;
      prev += static_cast<uint64_t>(ZigZagDecode(z));
      w = static_cast<Word>(prev);
    }
    return Status::OK();
  }
  if (form != CodedForm::kWordRuns) {
    return Status::InvalidArgument("unknown word-vector form");
  }
  uint64_t runs = 0;
  if (!NextVarint(&runs, &error)) return error;
  if (runs > n) return RunsMismatch();
  if (runs > Remaining() / 2) return Truncated();  // ≥ 2 bytes a run
  out->clear();
  out->reserve(n);
  for (uint64_t r = 0; r < runs; ++r) {
    uint64_t length = 0;
    if (!NextVarint(&length, &error)) return error;
    if (length == 0 || length > n - out->size()) return RunsMismatch();
    if (!NextVarint(&z, &error)) return error;
    prev += static_cast<uint64_t>(ZigZagDecode(z));
    out->insert(out->end(), length, static_cast<Word>(prev));
  }
  if (out->size() != n) return RunsMismatch();
  return Status::OK();
}

Status ByteReader::ReadWords(std::vector<uint64_t>* out) {
  return ReadWordsAs(out);
}

Status ByteReader::ReadWords(std::vector<int64_t>* out) {
  return ReadWordsAs(out);
}

bool ByteReader::NextVarint(uint64_t* out, Status* error) {
  const uint8_t* p = data_ + pos_;
  const size_t avail = size_ - pos_;
  if (avail > 0 && p[0] < 0x80) {  // one byte: cannot be overlong
    *out = p[0];
    ++pos_;
    return true;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < static_cast<size_t>(kMaxVarintBytes); ++i) {
    if (i == avail) {
      *error = Truncated();
      return false;
    }
    const uint8_t b = p[i];
    v |= uint64_t{b & 0x7Fu} << (7 * i);
    if (b < 0x80) {
      if (i == kMaxVarintBytes - 1 && b > 1) break;
      if (b == 0) {
        *error = Status::InvalidArgument("overlong varint");
        return false;
      }
      pos_ += i + 1;
      *out = v;
      return true;
    }
  }
  *error = Status::InvalidArgument("varint overflows 64 bits");
  return false;
}

Status ByteReader::ReadFormAndLength(CodedForm* form, uint64_t* n) {
  uint8_t tag = 0;
  HV_RETURN_IF_ERROR(ReadU8(&tag));
  *form = static_cast<CodedForm>(tag);
  HV_RETURN_IF_ERROR(ReadVarint(n));
  if (*n > word_budget_) {
    return Status::InvalidArgument("word vectors over the message's cap");
  }
  word_budget_ -= *n;
  return Status::OK();
}

}  // namespace hillview
