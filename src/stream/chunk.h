// The unit of work flowing through the detection loop: a run of
// consecutive per-cycle power values (Y samples) with its absolute cycle
// offset. Carrying the offset makes resume/reconnect well-defined — a
// consumer can verify it never skipped or replayed cycles, which is what
// the online detector's exactness contract depends on.
#pragma once

#include <cstddef>
#include <vector>

namespace clockmark::stream {

struct Chunk {
  std::size_t index = 0;        ///< 0-based sequence number in the stream
  std::size_t start_cycle = 0;  ///< absolute cycle offset of values[0]
  std::vector<double> values;   ///< per-cycle power (W), whole cycles

  std::size_t end_cycle() const noexcept {
    return start_cycle + values.size();
  }
};

}  // namespace clockmark::stream
