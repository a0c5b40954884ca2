#ifndef HILLVIEW_CORE_ANY_SKETCH_H_
#define HILLVIEW_CORE_ANY_SKETCH_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sketch/morsel.h"
#include "sketch/sketch.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hillview {

/// A type-erased sketch summary. The execution tree and the simulated
/// cluster move summaries around without knowing their concrete type; typed
/// access happens only at the root (see TypedSummary below).
class AnySummary {
 public:
  AnySummary() = default;

  template <typename R>
  static AnySummary Wrap(R value) {
    AnySummary s;
    s.data_ = std::make_shared<R>(std::move(value));
    return s;
  }

  bool empty() const { return data_ == nullptr; }

  template <typename R>
  const R& As() const {
    return *static_cast<const R*>(data_.get());
  }

  template <typename R>
  const R* TryAs() const {
    return static_cast<const R*>(data_.get());
  }

 private:
  std::shared_ptr<const void> data_;
};

/// Type-erased view of a Sketch<R>: the uniform interface the engine and the
/// simulated cluster program against. Carries the summary vtable (merge,
/// serialize, deserialize) alongside the summarize function.
class AnySketch {
 public:
  AnySketch() = default;

  /// Erases a typed sketch. R must satisfy the Sketch summary contract
  /// (default-constructible, Serialize/Deserialize).
  template <typename R>
  static AnySketch Wrap(SketchPtr<R> sketch) {
    AnySketch s;
    s.impl_ = std::make_shared<Impl<R>>(std::move(sketch));
    return s;
  }

  bool valid() const { return impl_ != nullptr; }

  const std::string& name() const { return impl_->name; }

  AnySummary Zero() const { return impl_->zero(); }
  AnySummary Summarize(const Table& table, uint64_t seed,
                       const SketchContext& context = {}) const {
    return impl_->summarize(table, seed, context);
  }
  AnySummary Merge(const AnySummary& a, const AnySummary& b) const {
    return impl_->merge(a, b);
  }
  std::vector<uint8_t> Serialize(const AnySummary& s) const {
    return impl_->serialize(s);
  }
  /// Decodes a summary and checks it fits this sketch (Sketch::CheckShape).
  Result<AnySummary> Deserialize(const std::vector<uint8_t>& bytes) const {
    return impl_->deserialize(bytes);
  }

 private:
  struct ImplBase {
    std::string name;
    virtual ~ImplBase() = default;
    virtual AnySummary zero() const = 0;
    virtual AnySummary summarize(const Table& t, uint64_t seed,
                                 const SketchContext& context) const = 0;
    virtual AnySummary merge(const AnySummary& a,
                             const AnySummary& b) const = 0;
    virtual std::vector<uint8_t> serialize(const AnySummary& s) const = 0;
    virtual Result<AnySummary> deserialize(
        const std::vector<uint8_t>& bytes) const = 0;
  };

  template <typename R>
  struct Impl final : ImplBase {
    explicit Impl(SketchPtr<R> s) : sketch(std::move(s)) {
      this->name = sketch->name();
    }
    AnySummary zero() const override {
      return AnySummary::Wrap<R>(sketch->Zero());
    }
    AnySummary summarize(const Table& t, uint64_t seed,
                         const SketchContext& context) const override {
      // The morsel engine decides per (sketch, table, context) whether to
      // fan this partition across the worker's pool; sketches without exact
      // morsel merging fall straight through to the plain summarize.
      return AnySummary::Wrap<R>(SummarizeWithMorsels(*sketch, t, seed,
                                                      context));
    }
    AnySummary merge(const AnySummary& a,
                     const AnySummary& b) const override {
      return AnySummary::Wrap<R>(sketch->Merge(a.As<R>(), b.As<R>()));
    }
    std::vector<uint8_t> serialize(const AnySummary& s) const override {
      ByteWriter w;
      s.As<R>().Serialize(&w);
      return w.Take();
    }
    Result<AnySummary> deserialize(
        const std::vector<uint8_t>& bytes) const override {
      ByteReader r(bytes);
      R value;
      HV_RETURN_IF_ERROR(R::Deserialize(&r, &value));
      HV_RETURN_IF_ERROR(sketch->CheckShape(value));
      return AnySummary::Wrap<R>(std::move(value));
    }

    SketchPtr<R> sketch;
  };

  std::shared_ptr<const ImplBase> impl_;
};

}  // namespace hillview

#endif  // HILLVIEW_CORE_ANY_SKETCH_H_
