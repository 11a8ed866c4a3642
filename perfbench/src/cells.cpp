#include "cells.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mem/guest_memory.hpp"
#include "sim/event_queue.hpp"

namespace perfbench
{

using epf::Technique;

namespace
{

/*
 * Why these three: see NOTES.md.  In short, intsort is the densest
 * instruction stream (core, TLB and cache cost), g500list is a
 * latency-bound pointer chase whose host time goes to the event engine,
 * DRAM and the PPF fill path, and fig7grid is the figure-reproduction
 * flow users run, the only one that drives the sweep pool, the compiler
 * passes and the baseline prefetchers.
 */
const std::vector<WorkloadSpec> kSpecs = {
    {"intsort", {"IntSort"}, {Technique::kNone, Technique::kManual}, 0.05, 1},
    {"g500list",
     {"G500-List"},
     {Technique::kNone, Technique::kManual},
     0.05,
     1},
    {"fig7grid",
     {"G500-CSR", "G500-List", "HJ-2", "HJ-8", "PageRank", "RandAcc",
      "IntSort", "ConjGrad"},
     {Technique::kNone, Technique::kStride, Technique::kGhbLarge,
      Technique::kSoftware, Technique::kPragma, Technique::kConverted,
      Technique::kManual},
     0.05,
     2},
};

/** Cells the paper itself reports as impossible: PageRank has no
 *  direct address access, so neither software prefetching nor its
 *  conversion applies. */
bool
expectedUnavailable(const std::string &workload, Technique t)
{
    return workload == "PageRank" &&
           (t == Technique::kSoftware || t == Technique::kConverted);
}

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace

const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const auto &s : kSpecs)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<epf::SweepCell>
makeCells(const WorkloadSpec &spec, double scale, std::uint64_t base_seed)
{
    std::vector<epf::SweepCell> cells;
    for (const auto &w : spec.workloads) {
        const std::uint64_t seed =
            epf::deriveCellSeed(base_seed, w, Technique::kNone);
        for (Technique t : spec.techniques) {
            epf::SweepCell c;
            c.workload = w;
            c.config.technique = t;
            c.config.scale.factor = scale;
            c.config.seed = seed;
            c.seedTechnique = Technique::kNone;
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

std::vector<std::size_t>
submissionOrder(const std::vector<epf::SweepCell> &cells)
{
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        order[i] = i;
    std::stable_partition(order.begin(), order.end(), [&](std::size_t i) {
        return cells[i].config.technique == Technique::kGhbLarge;
    });
    return order;
}

std::size_t
noneCellOf(const WorkloadSpec &spec, std::size_t i)
{
    return i - i % spec.techniques.size();
}

std::uint64_t
digest(const epf::RunResult &r)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    h = fnv(h, &r.cycles, sizeof r.cycles);
    h = fnv(h, &r.checksum, sizeof r.checksum);
    for (const auto &[name, value] : r.detail.all()) {
        h = fnv(h, name.data(), name.size() + 1);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        h = fnv(h, &bits, sizeof bits);
    }
    return h;
}

std::string
gateFailure(const std::vector<epf::SweepCell> &cells,
            const WorkloadSpec &spec,
            const std::vector<epf::RunResult> &results, std::size_t i,
            bool corrupt)
{
    const epf::SweepCell &cell = cells[i];
    const epf::RunResult &r = results[i];
    const epf::RunResult &base = results[noneCellOf(spec, i)];
    const Technique t = cell.config.technique;
    if (!r.available) {
        return expectedUnavailable(cell.workload, t)
                   ? std::string()
                   : "unavailable: " + r.note;
    }
    if (expectedUnavailable(cell.workload, t))
        return "ran although the technique does not apply";
    const std::uint64_t sum = corrupt ? r.checksum ^ 1 : r.checksum;
    if (sum != base.checksum)
        return "checksum differs from the None cell";
    const bool instrs_ok = t == Technique::kSoftware
                               ? r.instrs >= base.instrs
                               : r.instrs == base.instrs;
    if (!instrs_ok)
        return "instruction count differs from the None cell";
    return {};
}

bool
isCompiled(Technique t)
{
    return t == Technique::kPragma || t == Technique::kConverted;
}

CellSetup::CellSetup(const epf::SweepCell &cell)
    : cell_(cell), wl_(epf::makeWorkload(cell.workload, cell.config.scale))
{
    if (!wl_)
        throw std::invalid_argument("unknown workload: " + cell.workload);
}

bool
CellSetup::load(epf::GuestMemory &gmem)
{
    if (cell_.config.technique == Technique::kSoftware &&
        !wl_->supportsSoftware()) {
        note_ = "no direct memory address access so software prefetch "
                "not possible";
        return false;
    }
    wl_->setup(gmem, cell_.config.seed);
    return true;
}

bool
CellSetup::compile()
{
    const Technique t = cell_.config.technique;
    if (!isCompiled(t))
        return true;
    for (const auto &loop : wl_->buildIR()) {
        epf::PassResult pr = t == Technique::kConverted
                                 ? epf::convertSoftwarePrefetches(*loop)
                                 : epf::generateFromPragma(*loop);
        for (const auto &r : pr.program.remarks)
            remarks_.push_back(r);
        if (!pr.ok) {
            remarks_.push_back("loop not converted: " + pr.failureReason);
            continue;
        }
        passes_.push_back(std::move(pr));
    }
    if (passes_.empty()) {
        note_ = "compiler pass produced no events";
        return false;
    }
    return true;
}

epf::PpfConfig
CellSetup::ppfConfig() const
{
    epf::PpfConfig pc = cell_.config.ppf;
    if (cell_.config.technique == Technique::kManualBlocked)
        pc.blocking = true;
    return pc;
}

void
CellSetup::install(epf::ProgrammablePrefetcher &ppf)
{
    if (isCompiled(cell_.config.technique)) {
        for (const auto &pr : passes_)
            pr.program.installInto(ppf);
    } else {
        wl_->programManual(ppf);
    }
    if (ppf.kernels().totalBytes() > 4096) {
        throw std::invalid_argument(
            "kernel programs of workload '" + cell_.workload +
            "' exceed the 4 KiB PPU instruction budget");
    }
}

double
timeSetup(const epf::SweepCell &cell)
{
    using Clock = std::chrono::steady_clock;

    // Declared before the clock starts so that tearing the machine down
    // stays outside the measured interval; the workload outlives the
    // guest memory, as in runExperiment().
    std::optional<CellSetup> setup;
    epf::GuestMemory gmem;
    epf::EventQueue eq;
    std::unique_ptr<epf::ProgrammablePrefetcher> ppf;

    const auto t0 = Clock::now();
    setup.emplace(cell);
    if (setup->load(gmem) && setup->compile() &&
        epf::usesPpf(cell.config.technique)) {
        ppf = std::make_unique<epf::ProgrammablePrefetcher>(
            eq, gmem, setup->ppfConfig());
        setup->install(*ppf);
    }
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace perfbench
