/**
 * @file
 * The traced run: one cell's machine assembled from the same public
 * constructors runExperiment() uses, with host-time spans recorded
 * around the benchmark's own calls into each layer, plus isolated
 * replays of a recorded demand stream through the memory layer.
 */

#ifndef PERFBENCH_TRACED_HPP
#define PERFBENCH_TRACED_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One demand access of a recorded micro-op stream. */
struct Access
{
    epf::Addr vaddr = 0;
    std::int32_t streamId = 0;
    bool isLoad = true;
};

/**
 * A span: a layer's interval, its parent and, for aggregated spans,
 * how many calls were summed into @ref busy.  Spans stay in memory and
 * are written when the benchmark ends.  Times are seconds since the
 * run's epoch.
 */
struct Span
{
    const char *name = "";
    std::size_t cell = 0;
    int parent = -1; ///< index into the cell's span list, -1 for none
    double start = 0.0;
    double end = 0.0;
    /** Time covered by this span's own calls (end - start when
     *  count == 1; the summed call durations of an aggregate). */
    double busy = 0.0;
    std::uint64_t count = 1;
};

/** Everything a traced cell measures. */
struct TracedCell
{
    epf::RunResult result;
    std::uint64_t events = 0;    ///< EventQueue::executed()
    std::uint64_t ops = 0;       ///< micro-ops pulled from the generator
    double cellS = 0.0;          ///< the whole cell
    double setupS = 0.0;         ///< makeWorkload + Workload::setup
    double compilerS = 0.0;      ///< buildIR + passes + installInto
    double drainS = 0.0;         ///< all EventQueue::run calls
    double generatorS = 0.0;     ///< generator pulls inside the drain
    double prefetcherS = 0.0;    ///< listener/source calls inside it
    std::vector<Span> spans;
    /** Demand accesses in trace order (only when recording). */
    std::vector<Access> demand;

    /** Drain time not covered by generator or prefetcher spans. */
    double drainSelfS() const { return drainS - generatorS - prefetcherS; }
};

/**
 * Run @p cell on a machine assembled like runExperiment()'s single-core,
 * fault-free machine, timing the benchmark's calls into each layer.
 * The result's digest must equal the untraced run's.  The first
 * @p record_limit demand accesses are recorded.
 */
TracedCell runTracedCell(const epf::SweepCell &cell, std::size_t index,
                         Clock::time_point epoch,
                         std::size_t record_limit = 0);

/** Host cost of the memory layer on a recorded demand stream. */
struct ReplayResult
{
    std::size_t accesses = 0;
    double portNsPerAccess = 0.0;  ///< CorePort::load/store + drain
    double tlbNsPerTranslate = 0.0; ///< Tlb::translate + drain
};

/**
 * Replay @p stream through CorePort::load/store and, separately,
 * Tlb::translate on fresh uncores (no core) over @p cell's inputs.
 * Each access completes before the next is issued.
 */
ReplayResult replayDemand(const epf::SweepCell &cell,
                          const std::vector<Access> &stream);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HPP
