/**
 * @file
 * simbench: the simulator's end-to-end and per-layer benchmark.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--spans-out PATH]
 *
 * A run repeats one short, identical simulation of the workload until
 * S seconds have passed, checking every repetition. Host-time metrics
 * come from the fastest repetitions (see README.md for why). With
 * --trace 1 a traced pass follows and the per-layer metrics are
 * reported instead of the end-to-end ones. The last line of standard
 * output is one JSON object: correct, attempted, failed, metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "layers.hh"
#include "sim/logging.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace simbench;

/** Repetitions run even when the time budget is already spent. */
constexpr std::size_t kMinRepetitions = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

void
usage(std::ostream &os)
{
    os << "usage: simbench --workload NAME [--seed N] [--seconds S] "
          "[--trace 0|1] [--spans-out PATH]\n  workloads:";
    for (const auto &name : workloadNames())
        os << ' ' << name;
    os << "\n  default seed " << kDefaultSeed << ", held-out seed "
       << kHeldOutSeed << "\n";
}

bool
parse(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opts.workload = value;
            else if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--trace" && (value == "0" || value == "1"))
                opts.trace = value == "1";
            else if (arg == "--spans-out")
                opts.spansOut = value;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !opts.workload.empty() && opts.seconds > 0.0;
}

struct Repetition
{
    double setupS = 0.0;
    double runS = 0.0;
    bool ok = false;
};

/**
 * The smallest of @p values. The host only ever makes code slower, so
 * the fastest repetition is the steadiest estimate of the simulator's
 * own cost; a median mixes in however much of the run met the host's
 * slow states (see README.md).
 */
double
best(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values.empty() ? 0.0 : values[(values.size() - 1) / 2];
}

/** "name": {"value": v, "unit": "u"} with every digit of v. */
std::string
metricJson(const std::string &name, double value, const std::string &unit)
{
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    return "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
        unit + "\"}";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts)) {
        usage(std::cerr);
        return 2;
    }
    vmp::setInformEnabled(false);

    Workload workload;
    try {
        workload = makeWorkload(opts.workload, opts.seed);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        usage(std::cerr);
        return 2;
    }

    // --- untraced repetitions ------------------------------------------
    std::vector<Repetition> reps;
    bool have_reference = false;
    Outcome reference;
    std::uint64_t failed = 0;
    const auto start = Clock::now();
    while (reps.size() < kMinRepetitions ||
           secondsSince(start) < opts.seconds) {
        Repetition rep;
        std::string failure;
        try {
            const auto t0 = Clock::now();
            Simulation sim(workload);
            const auto gens = makeGenerators(workload);
            std::vector<vmp::trace::RefSource *> sources;
            for (const auto &g : gens)
                sources.push_back(g.get());
            const auto t1 = Clock::now();
            sim.run(sources);
            const auto t2 = Clock::now();
            rep.setupS = std::chrono::duration<double>(t1 - t0).count();
            rep.runS = std::chrono::duration<double>(t2 - t1).count();

            const Outcome outcome = sim.verify();
            failure = outcome.failure;
            if (failure.empty() && !have_reference) {
                reference = outcome;
                have_reference = true;
            } else if (failure.empty() &&
                       (outcome.fingerprint != reference.fingerprint ||
                        outcome.simMs != reference.simMs ||
                        outcome.missPct != reference.missPct)) {
                failure = "fingerprint " + outcome.fingerprint.toString() +
                    " differs from the first repetition's " +
                    reference.fingerprint.toString();
            }
        } catch (const std::exception &e) {
            failure = e.what();
        }
        rep.ok = failure.empty();
        if (!rep.ok) {
            ++failed;
            std::cerr << "repetition " << reps.size()
                      << " failed: " << failure << "\n";
        }
        reps.push_back(rep);
    }

    // The first repetition warms the allocator and the page tables;
    // host times come from the later ones.
    std::vector<double> setup_s, run_s;
    for (std::size_t i = 1; i < reps.size(); ++i) {
        if (reps[i].ok) {
            setup_s.push_back(reps[i].setupS);
            run_s.push_back(reps[i].runS);
        }
    }
    const double refs = static_cast<double>(workload.totalRefs());
    const double best_run = best(run_s);
    std::cout << "workload " << workload.name << " seed " << opts.seed
              << ": " << reps.size() << " repetitions of "
              << workload.totalRefs() << " references, " << failed
              << " failed\n";
    std::cout << "fingerprint " << reference.fingerprint.toString()
              << "\n";
    std::cout << "run time: best " << best_run << " s, median "
              << median(run_s) << " s, median/best "
              << (best_run > 0 ? median(run_s) / best_run : 0.0)
              << " (how far the host's speed moved during the run)\n";
    std::cout << "first-repetition setup " << reps.front().setupS
              << " s; reported setup_s is the later repetitions'\n";
    if (workload.kind == MachineKind::Sweep)
        std::cout << "fig4_sweep miss ratios come from a model calibrated "
                     "to the paper's Figure-4 band, not validated point "
                     "by point\n";

    std::uint64_t attempted = reps.size();
    std::vector<std::string> metrics;
    bool correct = failed == 0 && have_reference && !run_s.empty();
    if (!opts.trace) {
        metrics.push_back(metricJson(
            "refs_per_s", best_run > 0 ? refs / best_run : 0.0, "1/s"));
        metrics.push_back(
            metricJson("setup_s", best(setup_s), "s"));
        metrics.push_back(metricJson("rss_mb", peakRssMb(), "MiB"));
        metrics.push_back(metricJson("sim_ms", reference.simMs, "sim_ms"));
        metrics.push_back(
            metricJson("miss_pct", reference.missPct, "%"));
    } else {
        ++attempted;
        SpanLog spans;
        TracedPass pass;
        try {
            pass = runTracedPass(workload, reference.fingerprint, spans);
        } catch (const std::exception &e) {
            pass.failure = e.what();
        }
        if (!pass.failure.empty()) {
            ++failed;
            correct = false;
            std::cerr << "traced pass failed: " << pass.failure << "\n";
        }
        if (best_run > 0) {
            std::cout << "tracing overhead: instrumented run "
                      << pass.instrumentedRunS << " s vs fastest "
                      << "untraced " << best_run << " s ("
                      << (pass.instrumentedRunS / best_run - 1) * 100
                      << "%)\n";
        }
        if (!opts.spansOut.empty()) {
            std::ofstream file(opts.spansOut);
            spans.writeJson(file);
            if (!file)
                std::cerr << "could not write " << opts.spansOut << "\n";
        }
        for (const LayerMetric &metric : pass.metrics)
            metrics.push_back(
                metricJson(metric.name, metric.value, metric.unit));
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i == 0 ? "" : ", ") << metrics[i];
    std::cout << "}}" << std::endl;
    return 0;
}
