/**
 * @file
 * Self-tests of the benchmark itself (run by ctest in the benchmark's
 * build tree): the traced pass must measure the same simulation as the
 * timed repetitions, and repetitions must be exactly repeatable.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "sim/logging.hh"
#include "workloads.hh"

namespace
{

using namespace simbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

Outcome
generated(const Workload &workload)
{
    Simulation sim(workload);
    const auto gens = makeGenerators(workload);
    std::vector<vmp::trace::RefSource *> sources;
    for (const auto &g : gens)
        sources.push_back(g.get());
    sim.run(sources);
    return sim.verify();
}

Outcome
replayed(const Workload &workload)
{
    const auto streams = materialize(workload);
    const auto replay = makeReplaySources(workload, streams);
    Simulation sim(workload);
    std::vector<vmp::trace::RefSource *> sources;
    for (const auto &r : replay)
        sources.push_back(r.get());
    sim.run(sources);
    return sim.verify();
}

void
replayMatchesGenerator(const std::string &name)
{
    const Workload workload = makeWorkload(name, kDefaultSeed);
    const Outcome a = generated(workload);
    const Outcome b = replayed(workload);
    check(a.failure.empty(), name + " generated run: " + a.failure);
    check(b.failure.empty(), name + " replayed run: " + b.failure);
    check(a.fingerprint == b.fingerprint,
          name + ": replayed " + b.fingerprint.toString() +
              " != generated " + a.fingerprint.toString());
}

void
repetitionsAreIdentical(const std::string &name)
{
    const Workload workload = makeWorkload(name, kHeldOutSeed);
    const Outcome a = generated(workload);
    const Outcome b = generated(workload);
    check(a.failure.empty() && b.failure.empty(),
          name + ": repetition failed: " + a.failure + b.failure);
    check(a.fingerprint == b.fingerprint && a.simMs == b.simMs &&
              a.missPct == b.missPct,
          name + ": " + a.fingerprint.toString() + " then " +
              b.fingerprint.toString());
    check(a.fingerprint.refs == workload.totalRefs() &&
              a.fingerprint.misses > 0 && a.simMs > 0.0,
          name + ": implausible fingerprint " + a.fingerprint.toString());
}

void
seedChangesTheInputs(const std::string &name)
{
    const Outcome a = generated(makeWorkload(name, kDefaultSeed));
    const Outcome b = generated(makeWorkload(name, kHeldOutSeed));
    check(a.fingerprint != b.fingerprint,
          name + ": seeds " + std::to_string(kDefaultSeed) + " and " +
              std::to_string(kHeldOutSeed) + " gave the same run");
}

void
allocationsCountOnlyInsideTheGuard()
{
    auto before = std::make_unique<int>(1);
    std::uint64_t counted = 0;
    {
        const CountAllocations counter;
        auto inside = std::make_unique<int>(2);
        auto more = std::make_unique<std::string>(100, 'x');
        counted = counter.count();
    }
    auto after = std::make_unique<int>(3);
    check(counted == 3, "counted " + std::to_string(counted) +
                            " allocations inside the guard, expected 3");
}

} // namespace

int
main()
{
    vmp::setInformEnabled(false);
    allocationsCountOnlyInsideTheGuard();
    for (const auto &name : workloadNames()) {
        replayMatchesGenerator(name);
        repetitionsAreIdentical(name);
        seedChangesTheInputs(name);
    }
    if (failures == 0)
        std::cout << "simbench self-tests passed\n";
    return failures == 0 ? 0 : 1;
}
