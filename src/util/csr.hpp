#pragma once

// Compressed sparse rows: variable-length rows of items in one flat array.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace slim {

/// Row r holds items[start[r], start[r + 1]).
template <typename T>
struct Csr {
  std::vector<std::uint32_t> start{0};
  std::vector<T> items;

  std::size_t rows() const { return start.size() - 1; }
  std::span<const T> row(std::size_t r) const {
    return {items.data() + start[r], items.data() + start[r + 1]};
  }
};

/// Builds `rows` rows from the (row, item) pairs that `generate(emit)`
/// passes to `emit`, by a counting sort: each row keeps its pairs in
/// emission order. `generate` runs twice (count, then fill) and must emit
/// the same pairs both times.
template <typename T, typename Generate>
Csr<T> build_csr(std::size_t rows, Generate&& generate) {
  Csr<T> csr;
  csr.start.assign(rows + 1, 0);
  generate([&](std::size_t r, const T&) { ++csr.start[r + 1]; });
  for (std::size_t r = 0; r < rows; ++r) csr.start[r + 1] += csr.start[r];
  csr.items.resize(csr.start[rows]);
  // start[r] is row r's next free slot while filling; the fill leaves it at
  // the row's end, which is the next row's start.
  generate([&](std::size_t r, const T& item) {
    csr.items[csr.start[r]++] = item;
  });
  for (std::size_t r = rows; r > 0; --r) csr.start[r] = csr.start[r - 1];
  csr.start[0] = 0;
  return csr;
}

/// Csr rows that accept appends to any row: appends go to a log, and the
/// next read folds the log into the table (a row keeps its entries in append
/// order). Reads are const but may fold, so a table must not be read from
/// two threads while it has unfolded appends.
template <typename T>
class AppendCsr {
 public:
  void reserve(std::size_t items) { log_.reserve(items); }
  void append(std::size_t r, const T& item) {
    log_.emplace_back(static_cast<std::uint32_t>(r), item);
  }

  /// Row r of the table extended to `rows` rows.
  std::span<const T> row(std::size_t r, std::size_t rows) const {
    if (!log_.empty() || table_.rows() != rows) fold(rows);
    return table_.row(r);
  }

 private:
  void fold(std::size_t rows) const {
    table_ = build_csr<T>(rows, [&](auto&& emit) {
      for (std::size_t r = 0; r < table_.rows(); ++r) {
        for (const T& item : table_.row(r)) emit(r, item);
      }
      for (const auto& [r, item] : log_) emit(r, item);
    });
    std::vector<std::pair<std::uint32_t, T>>().swap(log_);  // free the log
  }

  mutable Csr<T> table_;
  mutable std::vector<std::pair<std::uint32_t, T>> log_;
};

}  // namespace slim
