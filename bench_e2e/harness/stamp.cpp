// Program stamp and guard: a comparison between two runs is only
// meaningful when both measured the same program, so every result
// names the host, the build and the solver settings in effect, and the
// benchmark refuses to measure a non-default program at all.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "harness/bench.hpp"
#include "lp/backend.hpp"
#include "verify/verify.hpp"

#ifndef NAT_E2E_BUILD_TYPE
#define NAT_E2E_BUILD_TYPE "unknown"
#endif

namespace nat::e2e {

namespace {

std::string env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "(unset)" : v;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

std::string guard_violation() {
#ifndef NDEBUG
  return "assertions are enabled (a Debug build); build with "
         "CMAKE_BUILD_TYPE=RelWithDebInfo or Release";
#endif
  if (sanitized_build()) return "sanitizer build";
  const char* backend = std::getenv("NAT_LP_BACKEND");
  if (backend != nullptr && *backend != '\0' &&
      std::string(backend) != "sparse") {
    return "NAT_LP_BACKEND=" + std::string(backend) +
           " selects a non-default LP backend; unset it";
  }
  const char* verify = std::getenv("NAT_VERIFY");
  if (verify != nullptr && *verify != '\0' && std::string(verify) != "off") {
    return "NAT_VERIFY=" + std::string(verify) +
           " turns on in-solve verification; unset it";
  }
  return "";
}

obs::Json program_stamp() {
  obs::Json j = obs::Json::object();
  j["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  j["hardware_concurrency"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  j["daemon_pool_width"] = static_cast<std::int64_t>(kDaemonThreads);
  j["session_pool_width"] = static_cast<std::int64_t>(kSessionThreads);
  j["batch_pool_width"] = static_cast<std::int64_t>(kBatchThreads);
#if defined(__clang__)
  j["compiler"] = "clang " __VERSION__;
#elif defined(__GNUC__)
  j["compiler"] = "gcc " __VERSION__;
#else
  j["compiler"] = __VERSION__;
#endif
  j["build_type"] = NAT_E2E_BUILD_TYPE;
  j["verify_level"] = verify::to_string(
      verify::resolve_level(verify::VerifyLevel::kDefault));
  j["lp_backend"] = lp::backend_name(lp::default_backend());
  j["NAT_LP_BACKEND"] = env_or_unset("NAT_LP_BACKEND");
  j["NAT_VERIFY"] = env_or_unset("NAT_VERIFY");
  return j;
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace nat::e2e
