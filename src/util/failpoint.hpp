#pragma once
// Fault-injection points for chaos testing.
//
// A FailPoint is a named site in production code where a test (or an
// operator, via PICASSO_FAILPOINTS) can inject a failure: an error return,
// a delay, a short write, a synthetic ENOSPC, or a hold that parks the
// calling thread until the test releases the site. Sites are evaluated with
//
//   PICASSO_FAILPOINT("spill.write");            // throws / sleeps per mode
//   std::size_t n = PICASSO_FAILPOINT_CLAMP("wire.send", want);  // short I/O
//
// With PICASSO_FAILPOINTS_ENABLED=0 both macros compile to nothing / the
// untouched byte count, so release builds carry zero cost. When compiled in
// (the default), the fast path is one relaxed atomic load of a global
// "any failpoint armed" counter — sites pay a single predictable branch
// until something is actually armed.
//
// Activation:
//   programmatic  util::failpoints::arm("spill.write", {Mode::Error});
//   environment   PICASSO_FAILPOINTS="spill.write=error;wire.send=delay:50"
//                 (parsed once, lazily, on first site evaluation)
//
// Spec grammar per entry: NAME=MODE[:ARG][@COUNT]
//   error        throw util::InjectedFault
//   enospc       throw std::system_error(ENOSPC)
//   delay:MS     sleep MS milliseconds, then continue
//   short:N      clamp the next I/O at this site to N bytes (N < requested)
//   hold         block the calling thread until the site is disarmed
//                (takes no @COUNT)
//   @COUNT       trigger only COUNT times, then disarm automatically

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#ifndef PICASSO_FAILPOINTS_ENABLED
#define PICASSO_FAILPOINTS_ENABLED 1
#endif

namespace picasso::util {

/// Thrown by sites armed in Mode::Error. Distinct from system_error so tests
/// can tell an injected logic fault from an injected errno fault.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at failpoint '" + site + "'"),
        site_(site) {}
  const std::string& site() const noexcept { return site_; }

 private:
  std::string site_;
};

namespace failpoints {

enum class Mode : std::uint8_t {
  Off = 0,
  Error,    // throw InjectedFault
  Enospc,   // throw std::system_error(ENOSPC, generic_category())
  Delay,    // sleep arg_ms, then proceed
  ShortIo,  // clamp I/O length to arg_bytes (evaluate() is a no-op)
  Hold,     // block until disarm() releases the site (count ignored)
};

struct Spec {
  Mode mode = Mode::Off;
  std::uint64_t arg = 0;     // ms for Delay, bytes for ShortIo
  std::int64_t count = -1;   // remaining triggers; -1 = unlimited
};

/// Arm `name` with `spec`. Replaces any existing arming of the same name.
void arm(const std::string& name, Spec spec);
/// Disarm one site (no-op if not armed).
void disarm(const std::string& name);
/// Disarm everything, including env-parsed entries. Tests call this in
/// teardown so an armed site never outlives its test.
void disarm_all();
/// Parse a PICASSO_FAILPOINTS-style spec string ("a=error;b=delay:50@2").
/// Returns false (arming nothing) on a malformed spec.
bool arm_from_spec(const std::string& spec);
/// Number of currently armed sites (after env parse).
std::size_t armed_count();

/// True when at least one site is armed. Relaxed single atomic load — this
/// is the only cost sites pay when nothing is armed.
bool any_armed() noexcept;

/// Slow path: look up `name`, apply its mode (throw / sleep / decrement
/// count). Called by the macros only when any_armed().
void evaluate(const char* name);
/// Slow path for I/O sites: like evaluate(), but a ShortIo arming returns
/// min(requested, arg_bytes) instead of acting. Other modes act as usual
/// and return `requested` if they continue.
std::size_t evaluate_io(const char* name, std::size_t requested);
/// Non-throwing variant for noexcept sites that report failure by return
/// value (e.g. MemoryRegistry::try_charge): Error/Enospc armings return
/// true (consuming a trigger), Delay sleeps then returns false, ShortIo
/// and unarmed sites return false.
bool triggered(const char* name) noexcept;

}  // namespace failpoints
}  // namespace picasso::util

#if PICASSO_FAILPOINTS_ENABLED
#define PICASSO_FAILPOINT(name)                               \
  do {                                                        \
    if (::picasso::util::failpoints::any_armed())             \
      ::picasso::util::failpoints::evaluate(name);            \
  } while (0)
#define PICASSO_FAILPOINT_CLAMP(name, requested)              \
  (::picasso::util::failpoints::any_armed()                   \
       ? ::picasso::util::failpoints::evaluate_io(name, (requested)) \
       : (requested))
#else
#define PICASSO_FAILPOINT(name) \
  do {                          \
  } while (0)
#define PICASSO_FAILPOINT_CLAMP(name, requested) (requested)
#endif
