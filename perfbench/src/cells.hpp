/**
 * @file
 * The benchmark's workloads (named batches of simulator cells), the
 * per-cell correctness gate and the result digest.
 */

#ifndef PERFBENCH_CELLS_HPP
#define PERFBENCH_CELLS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/passes.hpp"
#include "runner/sweep.hpp"

namespace perfbench
{

/** One named benchmark workload: a grid of simulator cells. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> workloads;
    /** Techniques per workload; the first must be Technique::kNone. */
    std::vector<epf::Technique> techniques;
    double scale = 0.0;
    /** Closed-loop pool size: a cell starts when a worker frees. */
    unsigned workers = 1;
};

/** The spec called @p name, or nullptr. */
const WorkloadSpec *findSpec(const std::string &name);

/**
 * The cells of @p spec at @p scale, row-major (all techniques of one
 * workload together, None first).  Every column of a workload carries
 * the None-derived seed of @p base_seed, so all techniques simulate
 * identical inputs, exactly as the fig7 bench seeds them.
 */
std::vector<epf::SweepCell> makeCells(const WorkloadSpec &spec,
                                      double scale,
                                      std::uint64_t base_seed);

/**
 * The order cells are handed to the worker pool: the GHB(large) cells
 * first, then the rest in cell order.  GHB(large) is the host-costliest
 * technique and the only one holding a ~72 MiB table, so starting it
 * first is longest-job-first (a short pool tail), and two such tables
 * are live at once early in every batch, so the peak resident set
 * barely moves between batches.
 */
std::vector<std::size_t> submissionOrder(
    const std::vector<epf::SweepCell> &cells);

/** Index of the None cell of the workload row that holds cell @p i. */
std::size_t noneCellOf(const WorkloadSpec &spec, std::size_t i);

/**
 * FNV-1a digest over cycles, checksum and every counter of
 * RunResult::detail (names and value bits, in name order).  A change
 * that only touches host speed must leave every digest unchanged.
 */
std::uint64_t digest(const epf::RunResult &r);

/**
 * Why cell @p i fails the correctness gate against the None cell of
 * its row, or an empty string when it passes.  A cell fails when it
 * is unavailable for a technique that applies to its workload, when
 * its checksum differs from the None cell's, or when its instruction
 * count does.  Software prefetching runs the software-prefetch variant
 * of the trace, so it must match the checksum and may only add
 * instructions.  @p corrupt flips the cell's checksum before the
 * comparison; the benchmark's self-check uses it to prove the gate
 * bites.
 */
std::string gateFailure(const std::vector<epf::SweepCell> &cells,
                        const WorkloadSpec &spec,
                        const std::vector<epf::RunResult> &results,
                        std::size_t i, bool corrupt);

/** True for the techniques whose prefetcher program the compiler
 *  passes generate. */
bool isCompiled(epf::Technique t);

/**
 * The set-up runExperiment() performs for one single-core cell, in the
 * same order and with the same early-outs, split into phases so that
 * the traced run can time each: load() builds the workload and its
 * inputs, compile() runs the compiler passes, install() programs a
 * prefetcher.  timeSetup() and the traced run both set up through it.
 */
class CellSetup
{
  public:
    /** makeWorkload; throws for an unknown workload. */
    explicit CellSetup(const epf::SweepCell &cell);

    /** Workload::setup into @p gmem.  False, with note(), when the
     *  technique does not apply to the workload. */
    bool load(epf::GuestMemory &gmem);

    /** The compiler passes of a compiled technique (no-op otherwise).
     *  False, with note(), when no loop converts. */
    bool compile();

    /** The prefetcher configuration the cell's technique runs with. */
    epf::PpfConfig ppfConfig() const;

    /** programManual, or installInto of every converted loop, then the
     *  4 KiB PPU instruction-budget check. */
    void install(epf::ProgrammablePrefetcher &ppf);

    epf::Workload &workload() { return *wl_; }
    const std::string &note() const { return note_; }
    const std::vector<std::string> &remarks() const { return remarks_; }

  private:
    const epf::SweepCell &cell_;
    std::unique_ptr<epf::Workload> wl_;
    std::vector<epf::PassResult> passes_;
    std::vector<std::string> remarks_;
    std::string note_;
};

/** Time @p cell's set-up through CellSetup: makeWorkload,
 *  Workload::setup and the kernel or compiler install.  Seconds. */
double timeSetup(const epf::SweepCell &cell);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HPP
