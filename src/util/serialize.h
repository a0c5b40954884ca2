#ifndef HILLVIEW_UTIL_SERIALIZE_H_
#define HILLVIEW_UTIL_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace hillview {

/// Wire codec for vizketch summaries. The simulated cluster counts these
/// bytes to reproduce the paper's root-bandwidth measurements (Fig 5
/// bottom), so the vectors that dominate a summary ship compactly:
///  - **Varints** (LEB128): seven bits per byte, low group first, at most
///    10 bytes per uint64. The decoder rejects overlong forms (a trailing
///    zero group) and forms that overflow 64 bits, so each value has one
///    encoding.
///  - **Zigzag** maps a signed delta to an unsigned varint: small
///    magnitudes of either sign take few bytes.
///  - **Word vectors** (WriteWords): 64-bit words as runs of equal words or
///    as zigzag deltas between neighbours, whichever is smaller. They carry
///    histogram and heat-map tallies (a sparse heat map's empty cells
///    collapse into runs of zeros) and the quantile summary's sorted or
///    clustered int columns and class arrays.
/// A word vector opens with a one-byte form tag and its declared length.
/// The writer's choice depends only on the content, so equal summaries
/// serialize to equal bytes. Everything else is little-endian, unaligned,
/// fixed-width words with no framing: each summary type defines its layout
/// via Serialize/Deserialize. The codec's loops live in serialize.cc:
/// inlined into a sketch's translation unit they cost its scan loop their
/// inlining (heat maps ran 0.5–1 ms slower at perfbench's shape).

/// Most words the word vectors of one message may declare, summed over
/// the message: each ByteReader holds this budget and rejects the vector
/// that would overdraw it before anything is allocated. A run of equal
/// words costs a few bytes whatever its length, so without the budget a
/// small frame of many long runs could make the root allocate gigabytes.
/// Summaries are display-sized (a 400×200 heat map has 8,778 cells, O4's
/// scroll-bar sample 20,002 keys in at most 5 columns), so 2^20 words
/// (8 MiB) is generous.
inline constexpr uint64_t kMaxMessageWords = uint64_t{1} << 20;

/// Longest LEB128 encoding of a uint64.
inline constexpr int kMaxVarintBytes = 10;

/// Bytes a varint spends on `v`.
inline size_t VarintSize(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t u) {
  return static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
}

/// Form tags of a word vector.
enum class CodedForm : uint8_t {
  kWordRuns = 0,    // r, r × (run length ≥ 1, zigzag delta of its word)
  kWordDeltas = 1,  // n × zigzag delta from the previous word
};

/// Growable byte sink used to serialize vizketch summaries for transport
/// across (simulated) machine boundaries.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, 1); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    Append(s.data(), s.size());
  }

  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU32(static_cast<uint32_t>(v.size()));
    Append(v.data(), v.size() * sizeof(T));
  }

  /// A word vector: runs of equal words, or zigzag deltas between
  /// neighbours when fewer bytes. Deltas wrap modulo 2^64, so any words
  /// round-trip; sorted or clustered ones (order keys) cost a byte or two.
  void WriteWords(std::span<const uint64_t> words);

  /// Tallies travel as their two's-complement words (an int64_t may be read
  /// through its unsigned counterpart).
  void WriteWords(const std::vector<int64_t>& counts) {
    WriteWords(std::span(reinterpret_cast<const uint64_t*>(counts.data()),
                         counts.size()));
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  /// Writes a word vector's form tag and length, makes room for its
  /// `body` bytes, and returns where the body goes.
  uint8_t* Extend(CodedForm form, uint64_t length, size_t body);

  void Append(const void* data, size_t len) {
    if (len == 0) return;  // an empty vector's data() may be null
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + len);
  }

  std::vector<uint8_t> bytes_;
};

/// Bounds-checked reader over a serialized buffer. All accessors return
/// Status so that corrupted or truncated messages surface as errors rather
/// than undefined behavior (the simulated network can inject truncation in
/// fault-injection tests).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Status ReadU8(uint8_t* out) { return Copy(out, 1); }
  Status ReadU32(uint32_t* out) { return Copy(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return Copy(out, sizeof(*out)); }
  Status ReadI32(int32_t* out) { return Copy(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return Copy(out, sizeof(*out)); }
  Status ReadDouble(double* out) { return Copy(out, sizeof(*out)); }

  Status ReadBool(bool* out) {
    uint8_t v = 0;
    HV_RETURN_IF_ERROR(ReadU8(&v));
    *out = (v != 0);
    return Status::OK();
  }

  Status ReadString(std::string* out) {
    uint32_t len = 0;
    HV_RETURN_IF_ERROR(ReadU32(&len));
    if (len > Remaining()) return Truncated();
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  /// Reads an element count (written via WriteU32) and rejects counts that
  /// cannot fit in the remaining bytes, assuming each element occupies at
  /// least `min_element_bytes` on the wire. This keeps a corrupted or
  /// bit-flipped count from driving a huge allocation before the per-element
  /// reads would fail anyway.
  Status ReadCount(uint32_t* out, size_t min_element_bytes = 1) {
    HV_RETURN_IF_ERROR(ReadU32(out));
    if (min_element_bytes == 0) min_element_bytes = 1;
    if (*out > Remaining() / min_element_bytes) return Truncated();
    return Status::OK();
  }

  template <typename T>
  Status ReadPodVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint32_t n = 0;
    HV_RETURN_IF_ERROR(ReadU32(&n));
    size_t bytes = static_cast<size_t>(n) * sizeof(T);
    if (bytes > Remaining()) return Truncated();
    out->resize(n);
    // n == 0 leaves out->data() null; memcpy with a null operand is UB even
    // for zero lengths.
    if (bytes > 0) std::memcpy(out->data(), data_ + pos_, bytes);
    pos_ += bytes;
    return Status::OK();
  }

  /// Reads a LEB128 varint, rejecting overlong and overflowing forms.
  Status ReadVarint(uint64_t* out);

  /// Reads a vector written by ByteWriter::WriteWords, drawing its length
  /// from the message's budget (kMaxMessageWords).
  Status ReadWords(std::vector<uint64_t>* out);
  Status ReadWords(std::vector<int64_t>* out);

  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  /// Decodes one varint; on a truncated, overlong or overflowing form
  /// sets `*error` and returns false. Word vectors decode element by
  /// element through here, so the common case builds no Status.
  bool NextVarint(uint64_t* out, Status* error);

  template <typename Word>
  Status ReadWordsAs(std::vector<Word>* out);

  /// A word vector's form tag and declared length; the length is drawn
  /// from the budget before the caller allocates anything.
  Status ReadFormAndLength(CodedForm* form, uint64_t* n);

  Status Copy(void* out, size_t len) {
    if (len > Remaining()) return Truncated();
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  static Status Truncated() {
    return Status::OutOfRange("truncated serialized message");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t word_budget_ = kMaxMessageWords;
};

}  // namespace hillview

#endif  // HILLVIEW_UTIL_SERIALIZE_H_
