#include <ostream>

namespace a {
int values[4];
int third_value = values[2];  // lint: allow(positional-strategy-index)

struct ScenarioResult {
    int peak_total_bytes = 0;
};

// A live lint suppression the linter accepts: the analyzer leaves
// `lint: allow` comments to the linter and must accept it too.
void
debug_peak(std::ostream &err, const ScenarioResult &r)
{
    err << r.peak_total_bytes;  // lint: allow(result-field-serialization)
}
}  // namespace a
