#include "check.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace perfbench {

using sirius::format::Column;
using sirius::format::Table;
using sirius::format::TypeId;

namespace {

// Three-way comparison with exact double ordering; used only to sort rows
// into one canonical order before pairing.
int CompareCell(const Column& a, size_t i, const Column& b, size_t j) {
  const bool na = a.IsNull(i);
  const bool nb = b.IsNull(j);
  if (na != nb) return na ? -1 : 1;
  if (na) return 0;
  auto cmp = [](auto x, auto y) { return x < y ? -1 : (y < x ? 1 : 0); };
  switch (a.type().id) {
    case TypeId::kBool:
      return cmp(a.data<uint8_t>()[i], b.data<uint8_t>()[j]);
    case TypeId::kInt32:
    case TypeId::kDate32:
      return cmp(a.data<int32_t>()[i], b.data<int32_t>()[j]);
    case TypeId::kInt64:
    case TypeId::kDecimal64:
      return cmp(a.data<int64_t>()[i], b.data<int64_t>()[j]);
    case TypeId::kFloat64:
      return cmp(a.data<double>()[i], b.data<double>()[j]);
    case TypeId::kString:
      return cmp(a.StringAt(i), b.StringAt(j));
    default:
      return 0;
  }
}

bool CellsAgree(const Column& a, size_t i, const Column& b, size_t j) {
  if (a.type().id == TypeId::kFloat64 && !a.IsNull(i) && !b.IsNull(j)) {
    const double x = a.data<double>()[i];
    const double y = b.data<double>()[j];
    const double eps = 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= eps;
  }
  return CompareCell(a, i, b, j) == 0;
}

std::vector<size_t> CanonicalOrder(const Table& t) {
  std::vector<size_t> idx(t.num_rows());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const int r = CompareCell(*t.column(c), x, *t.column(c), y);
      if (r != 0) return r < 0;
    }
    return false;
  });
  return idx;
}

}  // namespace

bool TablesAgree(const Table& got, const Table& want, std::string* why) {
  if (got.num_columns() != want.num_columns()) {
    *why = "column count " + std::to_string(got.num_columns()) + " vs " +
           std::to_string(want.num_columns());
    return false;
  }
  if (got.num_rows() != want.num_rows()) {
    *why = "row count " + std::to_string(got.num_rows()) + " vs " +
           std::to_string(want.num_rows());
    return false;
  }
  for (size_t c = 0; c < got.num_columns(); ++c) {
    if (got.schema().field(c).type.id != want.schema().field(c).type.id) {
      *why = "type of column " + std::to_string(c);
      return false;
    }
  }
  const std::vector<size_t> gi = CanonicalOrder(got);
  const std::vector<size_t> wi = CanonicalOrder(want);
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      if (!CellsAgree(*got.column(c), gi[r], *want.column(c), wi[r])) {
        *why = "row " + std::to_string(r) + " column " +
               got.schema().field(c).name + ": " +
               got.column(c)->GetScalar(gi[r]).ToString() + " vs " +
               want.column(c)->GetScalar(wi[r]).ToString();
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
