#include "stamp.hpp"

#include <thread>

namespace netbench {

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

#ifdef __AVX2__
constexpr bool kTuAvx2 = true;
#else
constexpr bool kTuAvx2 = false;
#endif

const char* yes_no(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string build_stamp_json(std::size_t jobs, const std::string& git_sha) {
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool avx512 = __builtin_cpu_supports("avx512f");
  std::string out = "{";
  out += "\"compiler\": \"" + std::string(kCompiler) + "\"";
  out += ", \"build_type\": \"" NETBENCH_BUILD_TYPE "\"";
  out += ", \"cxx_flags\": \"" NETBENCH_CXX_FLAGS "\"";
  out += ", \"fdb_native\": \"" NETBENCH_FDB_NATIVE "\"";
  out += ", \"host_avx2\": " + std::string(yes_no(avx2));
  out += ", \"host_avx512f\": " + std::string(yes_no(avx512));
  out += ", \"tu_avx2\": " + std::string(yes_no(kTuAvx2));
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"jobs\": " + std::to_string(jobs);
  out += ", \"git_sha\": \"" + git_sha + "\"";
  out += "}";
  return out;
}

}  // namespace netbench
