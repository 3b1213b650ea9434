#include "fault/fault.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace vaq {

namespace {

/// splitmix64 finaliser — the standard 64-bit avalanche mix. Three
/// rounds over (seed, site, entity, attempt) folded in sequentially give
/// the per-decision stream its independence.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double ParseRate(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double rate;
  try {
    rate = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
    rate = 0.0;
  }
  if (used != value.size() || rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("FaultSpec: '" + key +
                                "' must be a rate in [0, 1], got '" + value +
                                "'");
  }
  return rate;
}

double ParseNonNegative(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double v;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
    v = -1.0;
  }
  if (used != value.size() || v < 0.0) {
    throw std::invalid_argument("FaultSpec: '" + key +
                                "' must be a non-negative number, got '" +
                                value + "'");
  }
  return v;
}

}  // namespace

double FaultInjector::Draw(std::uint64_t seed, std::uint64_t site,
                           std::uint64_t entity, std::uint64_t attempt) {
  std::uint64_t h = Mix(seed ^ Mix(site));
  h = Mix(h ^ Mix(entity));
  h = Mix(h ^ Mix(attempt));
  // Top 53 bits -> [0, 1): the full double-precision mantissa, uniform.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double FaultInjector::BackoffMs(int attempt) const {
  if (spec_.backoff_initial_ms <= 0.0 || attempt <= 0) return 0.0;
  double ms = spec_.backoff_initial_ms;
  for (int i = 1; i < attempt && ms < spec_.backoff_max_ms; ++i) ms *= 2.0;
  return ms < spec_.backoff_max_ms ? ms : spec_.backoff_max_ms;
}

FaultSpec FaultSpec::Parse(const std::string& text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  spec.enabled = true;
  std::istringstream in(text);
  std::string field;
  while (std::getline(in, field, ',')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("FaultSpec: expected key=value, got '" +
                                  field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(
          ParseNonNegative(key, value));
    } else if (key == "read_error") {
      spec.read_error_rate = ParseRate(key, value);
    } else if (key == "corrupt") {
      spec.corrupt_rate = ParseRate(key, value);
    } else if (key == "slow") {
      spec.slow_page_rate = ParseRate(key, value);
    } else if (key == "spike_ms") {
      spec.spike_ms = ParseNonNegative(key, value);
    } else if (key == "fetch_spike") {
      spec.fetch_spike_rate = ParseRate(key, value);
    } else if (key == "retries") {
      spec.max_read_retries = static_cast<int>(ParseNonNegative(key, value));
    } else if (key == "backoff_ms") {
      spec.backoff_initial_ms = ParseNonNegative(key, value);
    } else if (key == "backoff_max_ms") {
      spec.backoff_max_ms = ParseNonNegative(key, value);
    } else {
      throw std::invalid_argument("FaultSpec: unknown key '" + key + "'");
    }
  }
  return spec;
}

FaultSpec FaultSpec::FromEnv() {
  const char* text = std::getenv("VAQ_FAULT_SPEC");
  if (text == nullptr) return FaultSpec{};
  return Parse(text);
}

}  // namespace vaq
