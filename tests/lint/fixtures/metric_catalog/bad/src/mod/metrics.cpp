// metric-catalog fixture: three registrations the sibling catalog
// cannot account for (lines 8, 11 and 12).
#include <string>

void register_metrics(Registry& reg, const std::string& tenant,
                      const std::string& name) {
  reg.counter("fix.listed");
  reg.counter("fix.unlisted");
  const std::string base = "fix.tenant." + tenant;
  reg.gauge(base + ".depth");
  reg.histogram(base + ".orphan_ns");
  reg.counter(name);
}
