// lint-fixture-path: src/sim/noisy_model.cc
// Fixture: must lint clean. The allow comments are live — the lines
// they cover really do violate nondeterminism-source and
// result-field-serialization, so each suppression is doing its
// documented job and is not stale. (pinpoint_analyze's
// stale_suppression_ok fixture carries the same
// result-field-serialization allow: both tools accept it.)
#include <ostream>

#include "sweep/driver.h"

namespace pinpoint {
namespace sim {

unsigned
jitter_seed()
{
    return rand();  // lint: allow(nondeterminism-source)
}

void
debug_peak(std::ostream &err, const sweep::ScenarioResult &r)
{
    err << r.peak_total_bytes;  // lint: allow(result-field-serialization)
}

}  // namespace sim
}  // namespace pinpoint
