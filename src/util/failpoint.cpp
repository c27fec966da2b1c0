#include "util/failpoint.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <system_error>
#include <thread>
#include <unordered_map>

namespace picasso::util::failpoints {
namespace {

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Spec> sites;
  bool env_parsed = false;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Counts armed sites; sites only take the registry lock when this is > 0.
// Seeded to 1 when PICASSO_FAILPOINTS is set so the first site consult
// parses the (lazy) env spec; refresh_armed_locked then re-derives the
// true count — back to 0 (and the zero-cost fast path) if it armed nothing.
std::atomic<std::size_t> g_armed{
    std::getenv("PICASSO_FAILPOINTS") != nullptr ? std::size_t{1}
                                                 : std::size_t{0}};

// Must hold registry().mu. Re-derives g_armed from the map so arm/disarm
// paths cannot drift out of sync with it.
void refresh_armed_locked(Registry& r) {
  std::size_t n = 0;
  for (const auto& [name, spec] : r.sites) {
    if (spec.mode != Mode::Off) ++n;
  }
  g_armed.store(n, std::memory_order_relaxed);
}

// Parse one NAME=MODE[:ARG][@COUNT] entry; returns false on malformed input.
bool parse_entry(const std::string& entry, std::string& name, Spec& spec) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  name = entry.substr(0, eq);
  std::string rhs = entry.substr(eq + 1);

  spec = Spec{};
  const std::size_t at = rhs.find('@');
  if (at != std::string::npos) {
    try {
      spec.count = std::stoll(rhs.substr(at + 1));
    } catch (const std::exception&) {
      return false;
    }
    if (spec.count <= 0) return false;
    rhs = rhs.substr(0, at);
  }
  std::string arg;
  const std::size_t colon = rhs.find(':');
  if (colon != std::string::npos) {
    arg = rhs.substr(colon + 1);
    rhs = rhs.substr(0, colon);
  }
  if (rhs == "error") {
    spec.mode = Mode::Error;
  } else if (rhs == "enospc") {
    spec.mode = Mode::Enospc;
  } else if (rhs == "delay") {
    spec.mode = Mode::Delay;
  } else if (rhs == "short") {
    spec.mode = Mode::ShortIo;
  } else if (rhs == "hold") {
    spec.mode = Mode::Hold;
  } else {
    return false;
  }
  if (spec.mode == Mode::Delay || spec.mode == Mode::ShortIo) {
    if (arg.empty()) return false;
    try {
      spec.arg = std::stoull(arg);
    } catch (const std::exception&) {
      return false;
    }
  } else if (!arg.empty()) {
    return false;
  }
  // A hold ends only when the site is disarmed, so it takes no count.
  if (spec.mode == Mode::Hold && spec.count != -1) return false;
  return true;
}

// Must hold registry().mu.
bool arm_from_spec_locked(Registry& r, const std::string& spec_string) {
  std::unordered_map<std::string, Spec> parsed;
  std::size_t begin = 0;
  while (begin <= spec_string.size()) {
    std::size_t end = spec_string.find(';', begin);
    if (end == std::string::npos) end = spec_string.size();
    const std::string entry = spec_string.substr(begin, end - begin);
    if (!entry.empty()) {
      std::string name;
      Spec spec;
      if (!parse_entry(entry, name, spec)) return false;
      parsed[name] = spec;
    }
    begin = end + 1;
  }
  for (auto& [name, spec] : parsed) r.sites[name] = spec;
  refresh_armed_locked(r);
  return true;
}

// Must hold registry().mu. Lazily folds PICASSO_FAILPOINTS into the map the
// first time any site is consulted or armed, so env and programmatic arming
// compose (programmatic wins on a name collision because it arrives later).
void ensure_env_parsed_locked(Registry& r) {
  if (r.env_parsed) return;
  r.env_parsed = true;
  if (const char* env = std::getenv("PICASSO_FAILPOINTS")) {
    if (!arm_from_spec_locked(r, env)) {
      refresh_armed_locked(r);  // malformed env spec arms nothing
    }
  }
}

// Looks up `name` and consumes one trigger. Returns the armed spec via
// `out`; false when the site is not armed (or its count is exhausted). A
// Hold site keeps its count: hold() waits for it to leave the map.
bool consume(const char* name, Spec& out) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ensure_env_parsed_locked(r);
  auto it = r.sites.find(name);
  if (it == r.sites.end() || it->second.mode == Mode::Off) return false;
  out = it->second;
  if (it->second.mode != Mode::Hold && it->second.count > 0 &&
      --it->second.count == 0) {
    r.sites.erase(it);
    refresh_armed_locked(r);
  }
  return true;
}

/// Blocks while `name` stays armed in Hold mode.
void hold(const char* name) {
  Registry& r = registry();
  while (true) {
    {
      std::lock_guard<std::mutex> lock(r.mu);
      const auto it = r.sites.find(name);
      if (it == r.sites.end() || it->second.mode != Mode::Hold) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

[[noreturn]] void throw_for(const char* name, const Spec& spec) {
  if (spec.mode == Mode::Enospc) {
    throw std::system_error(ENOSPC, std::generic_category(),
                            std::string("injected ENOSPC at failpoint '") +
                                name + "'");
  }
  throw InjectedFault(name);
}

}  // namespace

void arm(const std::string& name, Spec spec) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ensure_env_parsed_locked(r);
  r.sites[name] = spec;
  refresh_armed_locked(r);
}

void disarm(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.sites.erase(name);
  refresh_armed_locked(r);
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.sites.clear();
  r.env_parsed = true;  // do not resurrect env entries after an explicit clear
  refresh_armed_locked(r);
}

bool arm_from_spec(const std::string& spec) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ensure_env_parsed_locked(r);
  return arm_from_spec_locked(r, spec);
}

std::size_t armed_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ensure_env_parsed_locked(r);
  return g_armed.load(std::memory_order_relaxed);
}

bool any_armed() noexcept {
  return g_armed.load(std::memory_order_relaxed) > 0;
}

void evaluate(const char* name) {
  Spec spec;
  if (!consume(name, spec)) return;
  switch (spec.mode) {
    case Mode::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.arg));
      return;
    case Mode::ShortIo:  // length clamping is meaningless here; ignore
      return;
    case Mode::Hold:
      hold(name);
      return;
    case Mode::Error:
    case Mode::Enospc:
      throw_for(name, spec);
    case Mode::Off:
      return;
  }
}

std::size_t evaluate_io(const char* name, std::size_t requested) {
  Spec spec;
  if (!consume(name, spec)) return requested;
  switch (spec.mode) {
    case Mode::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.arg));
      return requested;
    case Mode::ShortIo:
      return spec.arg < requested ? static_cast<std::size_t>(spec.arg)
                                  : requested;
    case Mode::Hold:
      hold(name);
      return requested;
    case Mode::Error:
    case Mode::Enospc:
      throw_for(name, spec);
    case Mode::Off:
      return requested;
  }
  return requested;
}

bool triggered(const char* name) noexcept {
  Spec spec;
  if (!consume(name, spec)) return false;
  switch (spec.mode) {
    case Mode::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.arg));
      return false;
    case Mode::Error:
    case Mode::Enospc:
      return true;
    case Mode::Hold:
      hold(name);
      return false;
    case Mode::ShortIo:
    case Mode::Off:
      return false;
  }
  return false;
}

}  // namespace picasso::util::failpoints
