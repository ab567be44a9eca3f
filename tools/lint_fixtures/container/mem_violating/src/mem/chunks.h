#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace mem {

struct Chunks {
  std::map<std::uint64_t, std::vector<std::uint8_t>> chunks_;
};

}  // namespace mem
