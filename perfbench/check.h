// Result check: a Sirius-path result against the DuckX result of the same
// plan, cell by cell in canonical row order.

#pragma once

#include <string>

#include "format/table.h"

namespace perfbench {

/// True when `got` and `want` have the same shape and agree cell by cell
/// after both are put into canonical (all-columns lexicographic) row order.
/// FLOAT64 cells agree within a relative 1e-6 (aggregation order differs
/// between the device and host paths); every other type must match exactly.
/// On a mismatch, `why` names the first differing cell.
bool TablesAgree(const sirius::format::Table& got,
                 const sirius::format::Table& want, std::string* why);

}  // namespace perfbench
