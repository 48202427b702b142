// Build stamp printed with every result: which compiler, flags and ISA
// produced the numbers, on how many cores, from which commit.
#pragma once

#include <cstddef>
#include <string>

namespace netbench {

/// One JSON object (no trailing newline).
std::string build_stamp_json(std::size_t jobs, const std::string& git_sha);

}  // namespace netbench
