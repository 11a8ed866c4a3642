/**
 * @file
 * End-to-end and per-layer host-speed benchmark of the simulator.
 *
 *   perfbench_e2e --workload <intsort|g500list|fig7grid> --seed <n>
 *                 --seconds <s> --trace <0|1> [--scale <f>]
 *                 [--git-describe <text>] [--spans <path>]
 *                 [--corrupt-checksum]
 *
 * A workload is a closed-loop batch of simulator cells; the batch is
 * repeated while the time budget allows and medians are reported.
 * With --trace 0 the batch runs through SweepEngine and the end-to-end
 * metrics are printed.  With --trace 1 each repetition runs the batch
 * untraced and then through the benchmark's own traced assembly, and
 * the per-layer metrics are printed; every traced cell's digest must
 * equal the untraced one.  The last line of standard output is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cells.hpp"
#include "traced.hpp"

using namespace perfbench;
using epf::Technique;

namespace
{

/** Demand accesses recorded for the memory-layer replays. */
constexpr std::size_t kReplayAccesses = 1'000'000;

/**
 * Set-up is short and noisy, so each batch repeats it at least
 * kMinSetupReps times and until kSetupBudgetS is spent (at most
 * kMaxSetupReps times); setup_s is the median over every repetition.
 */
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupBudgetS = 0.25;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0xE7F5EED5;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0; ///< 0: the workload's own scale
    std::string gitDescribe = "unknown";
    std::string spansPath;
    bool corruptChecksum = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_e2e: " << why
              << "\nusage: perfbench_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale <f>] "
                 "[--git-describe <text>] [--spans <path>] "
                 "[--corrupt-checksum]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--corrupt-checksum") {
            a.corruptChecksum = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 0);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--scale") {
            a.scale = std::strtod(v.c_str(), &end);
        } else if (k == "--git-describe") {
            a.gitDescribe = v;
        } else if (k == "--spans") {
            a.spansPath = v;
        } else {
            usage("unknown option " + k);
        }
        if (end && (*end != '\0' || v.empty()))
            usage("malformed value for " + k + ": " + v);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0) || a.scale < 0.0)
        usage("--seconds must be positive and --scale non-negative");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Metrics in print order, each with its unit. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows_.push_back({name, value, unit});
    }

    void
    print(std::ostream &os) const
    {
        for (const auto &r : rows_)
            os << "metric " << r.name << " " << num(r.value) << " " << r.unit
               << "\n";
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            s += (i ? ", " : "") + jsonString(rows_[i].name) +
                 ": {\"value\": " + num(rows_[i].value) +
                 ", \"unit\": " + jsonString(rows_[i].unit) + "}";
        }
        return s + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/** One untraced batch through SweepEngine. */
struct Batch
{
    std::vector<epf::RunResult> results;
    std::vector<double> hostS;
    std::vector<std::string> failures; ///< empty string: cell passed
    std::vector<std::uint64_t> digests;
    double wallS = 0.0;
};

Batch
runBatch(const std::vector<epf::SweepCell> &cells, const WorkloadSpec &spec,
         const Args &args)
{
    epf::SweepEngine::Options opts;
    opts.threads = spec.workers;
    opts.baseSeed = args.seed;
    opts.deriveSeeds = false; // makeCells already carries the seeds
    epf::SweepEngine engine(opts);
    const auto order = submissionOrder(cells);
    for (std::size_t i : order) {
        const auto &c = cells[i];
        engine.add(c.workload, c.config, c.label, c.seedTechnique);
    }

    Batch b;
    const auto t0 = Clock::now();
    auto outcomes = engine.run();
    b.wallS = secondsSince(t0);
    std::vector<epf::SweepOutcome> by_cell(cells.size());
    for (std::size_t k = 0; k < order.size(); ++k)
        by_cell[order[k]] = std::move(outcomes[k]);
    for (const auto &o : by_cell) {
        b.results.push_back(o.result);
        b.hostS.push_back(o.hostSeconds);
        b.digests.push_back(o.failed ? 0 : digest(o.result));
    }
    for (std::size_t i = 0; i < by_cell.size(); ++i) {
        const bool last = i + 1 == by_cell.size();
        b.failures.push_back(
            by_cell[i].failed
                ? "threw: " + by_cell[i].error
                : gateFailure(cells, spec, b.results, i,
                              args.corruptChecksum && last));
    }
    return b;
}

/** One traced batch: the same cells over a pool of spec.workers. */
struct TracedBatch
{
    std::vector<TracedCell> cells;
    std::vector<std::string> errors;
    double wallS = 0.0;
};

TracedBatch
runTracedBatch(const std::vector<epf::SweepCell> &cells, unsigned workers,
               Clock::time_point epoch, std::size_t record_cell)
{
    TracedBatch b;
    b.cells.resize(cells.size());
    b.errors.resize(cells.size());
    const auto order = submissionOrder(cells);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= order.size())
                return;
            const std::size_t i = order[k];
            try {
                b.cells[i] = runTracedCell(
                    cells[i], i, epoch,
                    i == record_cell ? kReplayAccesses : 0);
            } catch (const std::exception &e) {
                b.errors[i] = e.what();
            }
        }
    };
    const auto t0 = Clock::now();
    {
        std::vector<std::jthread> pool;
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(work);
        work();
    }
    b.wallS = secondsSince(t0);
    return b;
}

void
printManifest(const Args &args, const WorkloadSpec &spec, double scale)
{
    std::cout << "manifest {\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"compiler\": " << jsonString(compilerName())
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"git_describe\": " << jsonString(args.gitDescribe)
              << ", \"workload\": " << jsonString(spec.name)
              << ", \"scale\": " << num(scale)
              << ", \"seed\": " << jsonString(hex(args.seed))
              << ", \"workers\": " << spec.workers
              << ", \"run_seconds\": " << num(args.seconds)
              << ", \"tracing\": " << (args.trace ? "true" : "false")
              << ", \"caches\": \"cold per cell\"}\n";
}

void
printCell(const char *tag, std::size_t i, const epf::SweepCell &c,
          const epf::RunResult &r, std::uint64_t dig, double host_s,
          const std::string &failure)
{
    std::cout << tag << " " << i << " " << c.workload << " "
              << epf::techniqueName(c.config.technique)
              << " seed=" << hex(c.config.seed);
    if (!r.available) {
        std::cout << " n/a";
    } else {
        std::cout << " cycles=" << r.cycles << " instrs=" << r.instrs
                  << " checksum=" << hex(r.checksum);
    }
    std::cout << " digest=" << hex(dig) << " host_s=" << num(host_s);
    if (!failure.empty())
        std::cout << " FAILED: " << failure;
    std::cout << "\n";
}

/** Sum of detail counter @p name over the cells @p pick selects. */
template <typename Pick>
double
sumDetail(const std::vector<epf::SweepCell> &cells,
          const std::vector<epf::RunResult> &results, const char *name,
          Pick pick)
{
    double s = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (results[i].available && pick(cells[i].config.technique))
            s += results[i].detail.get(name);
    return s;
}

bool
anyTech(Technique)
{
    return true;
}

bool
isBaselinePrefetcher(Technique t)
{
    return t == Technique::kStride || t == Technique::kGhbRegular ||
           t == Technique::kGhbLarge;
}

/** Geomean of None cycles / cell cycles over the prefetching cells. */
double
simSpeedup(const std::vector<epf::SweepCell> &cells, const WorkloadSpec &spec,
           const std::vector<epf::RunResult> &results)
{
    double log_sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        const auto &base = results[noneCellOf(spec, i)];
        if (cells[i].config.technique == Technique::kNone || !r.available ||
            r.cycles == 0)
            continue;
        log_sum += std::log(static_cast<double>(base.cycles) /
                            static_cast<double>(r.cycles));
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

/**
 * Checks a repeated batch against the first (the simulator is
 * deterministic, so a digest that moves between repetitions is a
 * failure) and prints every failed cell.  Returns how many failed.
 */
std::size_t
countFailures(const std::vector<Batch> &batches, Batch &b)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < b.failures.size(); ++i) {
        if (b.failures[i].empty() &&
            b.digests[i] != batches.front().digests[i])
            b.failures[i] = "digest differs between repetitions";
        if (!b.failures[i].empty()) {
            std::cout << "batch " << batches.size() - 1 << " cell " << i
                      << " FAILED: " << b.failures[i] << "\n";
            ++failed;
        }
    }
    return failed;
}

/**
 * True while one more batch brings the measured time closer to the
 * @p budget than stopping now: runs measure about --seconds, whatever
 * the batch length.
 */
bool
anotherBatch(Clock::time_point start, const std::vector<double> &batch_s,
             double budget)
{
    return secondsSince(start) + 0.5 * median(batch_s) < budget;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Metrics &m)
{
    m.print(std::cout);
    std::cout << "metric cells_failed " << failed << " count (of "
              << attempted << " attempted)\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": " << m.json()
              << "}" << std::endl;
}

int
runUntraced(const Args &args, const WorkloadSpec &spec,
            const std::vector<epf::SweepCell> &cells)
{
    const auto start = Clock::now();
    std::vector<Batch> batches;
    std::vector<double> setup_sums;
    std::vector<double> batch_times;
    std::size_t failed = 0;
    do {
        const auto t0 = Clock::now();
        double spent = 0.0;
        for (int rep = 0; rep < kMaxSetupReps &&
                          (rep < kMinSetupReps || spent < kSetupBudgetS);
             ++rep) {
            double s = 0.0;
            for (const auto &c : cells)
                s += timeSetup(c);
            setup_sums.push_back(s);
            spent += s;
        }
        batches.push_back(runBatch(cells, spec, args));
        failed += countFailures(batches, batches.back());
        batch_times.push_back(secondsSince(t0));
    } while (anotherBatch(start, batch_times, args.seconds));

    const Batch &first = batches.front();
    for (std::size_t i = 0; i < cells.size(); ++i)
        printCell("cell", i, cells[i], first.results[i], first.digests[i],
                  first.hostS[i], first.failures[i]);

    // Per-cell medians over batches: a batch slowed by the host counts
    // once, however long it took.
    double instrs = 0.0;
    double host = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (first.results[i].available)
            instrs += static_cast<double>(first.results[i].instrs);
        std::vector<double> cell_s;
        for (const auto &b : batches)
            cell_s.push_back(b.hostS[i]);
        host += median(cell_s);
    }
    std::vector<double> walls;
    for (const auto &b : batches) {
        walls.push_back(b.wallS);
        double batch_host = 0.0;
        for (double h : b.hostS)
            batch_host += h;
        std::cout << "batch " << walls.size() - 1 << " wall_s "
                  << num(b.wallS) << " sim_mips "
                  << num(ratio(instrs, batch_host) / 1e6) << "\n";
    }

    std::cout << "batches " << batches.size() << ", set-up repetitions "
              << setup_sums.size() << "\n";
    Metrics m;
    m.add("sim_mips", ratio(instrs, host) / 1e6, "MIPS");
    m.add("wall_s", median(walls), "s");
    m.add("setup_s", median(setup_sums), "s");
    m.add("peak_rss_mib", peakRssMib(), "MiB");
    m.add("sim_speedup", simSpeedup(cells, spec, first.results), "x");
    const std::size_t attempted = cells.size() * batches.size();
    printResult(failed == 0, attempted, failed, m);
    return 0;
}

void
writeSpans(const std::string &path, const std::vector<TracedBatch> &batches)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        for (const auto &cell : batches[b].cells) {
            for (const auto &s : cell.spans) {
                os << "{\"batch\": " << b << ", \"cell\": " << s.cell
                   << ", \"name\": " << jsonString(s.name)
                   << ", \"parent\": " << s.parent
                   << ", \"start\": " << num(s.start)
                   << ", \"end\": " << num(s.end)
                   << ", \"busy\": " << num(s.busy)
                   << ", \"count\": " << s.count << "}\n";
            }
        }
    }
}

int
runTraced(const Args &args, const WorkloadSpec &spec,
          const std::vector<epf::SweepCell> &cells)
{
    const auto start = Clock::now();
    // The replays record the first None cell's demand stream.
    const std::size_t replay_cell = 0;
    std::vector<Batch> plain;
    std::vector<TracedBatch> traced;
    std::vector<double> pair_times;
    std::size_t failed = 0;
    bool parity = true;
    do {
        const auto t0 = Clock::now();
        plain.push_back(runBatch(cells, spec, args));
        failed += countFailures(plain, plain.back());
        traced.push_back(runTracedBatch(
            cells, spec.workers, start,
            traced.empty() ? replay_cell : cells.size()));
        const Batch &p = plain.back();
        const TracedBatch &t = traced.back();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::uint64_t d =
                t.errors[i].empty() ? digest(t.cells[i].result) : 0;
            if (d != p.digests[i]) {
                parity = false;
                std::cout << "PARITY FAILED cell " << i << " ("
                          << cells[i].workload << " "
                          << epf::techniqueName(cells[i].config.technique)
                          << "): traced " << hex(d) << " vs untraced "
                          << hex(p.digests[i])
                          << (t.errors[i].empty() ? "" : " " + t.errors[i])
                          << "\n";
            }
        }
        pair_times.push_back(secondsSince(t0));
    } while (anotherBatch(start, pair_times, args.seconds));

    const Batch &first = plain.front();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        printCell("cell", i, cells[i], first.results[i], first.digests[i],
                  first.hostS[i], first.failures[i]);
        const TracedCell &tc = traced.front().cells[i];
        printCell("traced", i, cells[i], tc.result, digest(tc.result),
                  tc.cellS, traced.front().errors[i]);
    }

    const ReplayResult replay = replayDemand(
        cells[replay_cell], traced.front().cells[replay_cell].demand);

    const auto &R = first.results;
    const auto is_ppf = [](Technique t) { return epf::usesPpf(t); };
    const auto is_manual = [](Technique t) { return t == Technique::kManual; };
    const auto d = [&](const char *name, auto pick) {
        return sumDetail(cells, R, name, pick);
    };
    // Median over traced batches of a per-batch sum over selected cells.
    const auto traced_median = [&](auto field, auto pick) {
        std::vector<double> v;
        for (const auto &b : traced) {
            double s = 0.0;
            for (std::size_t i = 0; i < cells.size(); ++i)
                if (pick(cells[i].config.technique))
                    s += field(b.cells[i]);
            v.push_back(s);
        }
        return median(v);
    };
    // Median over untraced batches of the summed (cell - None) host s.
    const auto marginal = [&](auto pick) {
        std::vector<double> v;
        for (const auto &b : plain) {
            double s = 0.0;
            for (std::size_t i = 0; i < cells.size(); ++i)
                if (pick(cells[i].config.technique) && R[i].available)
                    s += b.hostS[i] - b.hostS[noneCellOf(spec, i)];
            v.push_back(s);
        }
        return median(v);
    };
    std::uint64_t events = 0;
    std::uint64_t ops = 0;
    for (const auto &tc : traced.front().cells) {
        events += tc.events;
        ops += tc.ops;
    }

    const double drain_s =
        traced_median([](const TracedCell &c) { return c.drainS; }, anyTech);
    const double drain_self_s = traced_median(
        [](const TracedCell &c) { return c.drainSelfS(); }, anyTech);
    const double instrs = d("core.instrs", anyTech);
    const double cycles = d("core.cycles", anyTech);

    double activity = 0.0;
    std::size_t ppus = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (double a : R[i].ppuActivity) {
            activity += a;
            ++ppus;
        }
    }
    const double pf_fills = d("l1.prefetchFills", is_ppf);
    const double pf_used = d("l1.pfUsed", is_ppf);
    const double ppf_marginal = marginal(is_manual);

    std::vector<double> cell_sums;
    std::vector<double> efficiency;
    std::vector<double> plain_walls;
    for (const auto &b : plain) {
        double s = 0.0;
        for (double h : b.hostS)
            s += h;
        cell_sums.push_back(s);
        efficiency.push_back(ratio(s, b.wallS * spec.workers));
        plain_walls.push_back(b.wallS);
    }
    std::vector<double> traced_walls;
    for (const auto &b : traced)
        traced_walls.push_back(b.wallS);

    Metrics m;
    m.add("sim.events", static_cast<double>(events), "count");
    m.add("sim.drain_s", drain_s, "s");
    m.add("sim.drain_self_s", drain_self_s, "s");
    m.add("sim.ns_per_event",
          ratio(drain_self_s, static_cast<double>(events)) * 1e9, "ns");

    m.add("cpu.instrs", instrs, "count");
    m.add("cpu.cycles", cycles, "cycles");
    m.add("cpu.ipc", ratio(instrs, cycles), "instr/cycle");
    m.add("cpu.loads", d("core.loads", anyTech), "count");
    m.add("cpu.stores", d("core.stores", anyTech), "count");
    m.add("cpu.commit_stall_cycles", d("core.commitStallCycles", anyTech),
          "cycles");
    m.add("cpu.rob_full_cycles", d("core.robFullCycles", anyTech), "cycles");
    m.add("cpu.ns_per_instr", ratio(drain_self_s, instrs) * 1e9, "ns");

    const double tlb_lookups = d("tlb.l1Hits", anyTech) +
                               d("tlb.l2Hits", anyTech) +
                               d("tlb.walks", anyTech);
    m.add("mem.l1.hit_rate",
          ratio(d("l1.loadHits", anyTech), d("l1.loads", anyTech)), "ratio");
    m.add("mem.l1.mshr_rejects", d("l1.mshrRejects", anyTech), "count");
    m.add("mem.load_retries", d("mem.loadRetries", anyTech), "count");
    m.add("mem.l2.hit_rate",
          ratio(d("l2.readHits", anyTech), d("l2.reads", anyTech)), "ratio");
    m.add("mem.dram.reads", d("dram.reads", anyTech), "count");
    m.add("mem.dram.row_hit_rate",
          ratio(d("dram.rowHits", anyTech),
                d("dram.rowHits", anyTech) + d("dram.rowMisses", anyTech)),
          "ratio");
    m.add("mem.tlb.l1_hit_rate", ratio(d("tlb.l1Hits", anyTech), tlb_lookups),
          "ratio");
    m.add("mem.tlb.walks", d("tlb.walks", anyTech), "count");
    m.add("mem.replay_accesses", static_cast<double>(replay.accesses),
          "count");
    m.add("mem.port_ns_per_access", replay.portNsPerAccess, "ns");
    m.add("mem.tlb_ns_per_translate", replay.tlbNsPerTranslate, "ns");

    m.add("ppf.observations", d("ppf.observations", is_ppf), "count");
    m.add("ppf.events_run", d("ppf.eventsRun", is_ppf), "count");
    m.add("ppf.prefetches_emitted", d("ppf.prefetchesEmitted", is_ppf),
          "count");
    m.add("ppf.obs_dropped", d("ppf.obsDropped", is_ppf), "count");
    m.add("ppf.req_dropped", d("ppf.reqDropped", is_ppf), "count");
    m.add("ppf.ppu_activity_mean",
          ratio(activity, static_cast<double>(ppus)), "ratio");
    m.add("ppf.fills", pf_fills, "count");
    m.add("ppf.used", pf_used, "count");
    m.add("ppf.utilisation", ratio(pf_used, pf_fills), "ratio");
    m.add("ppf.late_share", ratio(d("l1.pfUsedLate", is_ppf), pf_used),
          "ratio");
    m.add("ppf.unused_evicted_share",
          ratio(d("l1.pfUnusedEvicted", is_ppf), pf_fills), "ratio");
    m.add("ppf.listener_s",
          traced_median([](const TracedCell &c) { return c.prefetcherS; },
                        is_ppf),
          "s");
    m.add("ppf.marginal_s", ppf_marginal, "s");
    m.add("ppf.marginal_ns_per_event",
          ratio(ppf_marginal, d("ppf.eventsRun", is_manual)) * 1e9, "ns");

    m.add("prefetch.fills", d("l1.prefetchFills", isBaselinePrefetcher),
          "count");
    m.add("prefetch.listener_s",
          traced_median([](const TracedCell &c) { return c.prefetcherS; },
                        isBaselinePrefetcher),
          "s");
    m.add("prefetch.marginal_s", marginal(isBaselinePrefetcher), "s");

    m.add("compiler.pass_s",
          traced_median([](const TracedCell &c) { return c.compilerS; },
                        anyTech),
          "s");

    m.add("workloads.setup_s",
          traced_median([](const TracedCell &c) { return c.setupS; }, anyTech),
          "s");
    m.add("workloads.trace_self_s",
          traced_median([](const TracedCell &c) { return c.generatorS; },
                        anyTech),
          "s");
    m.add("workloads.ops", static_cast<double>(ops), "count");

    m.add("runner.cell_s_sum", median(cell_sums), "s");
    m.add("runner.parallel_efficiency", median(efficiency), "ratio");

    m.add("trace.wall_s", median(traced_walls), "s");
    m.add("trace.overhead", ratio(median(traced_walls), median(plain_walls)),
          "x");

    if (!args.spansPath.empty())
        writeSpans(args.spansPath, traced);
    std::cout << "batches " << plain.size() << " untraced + "
              << traced.size() << " traced; traced digests "
              << (parity ? "equal" : "DIFFER from") << " untraced\n";
    const std::size_t attempted = cells.size() * plain.size();
    printResult(failed == 0 && parity, attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = findSpec(args.workload);
    if (!spec)
        usage("unknown workload " + args.workload);
    const double scale = args.scale > 0.0 ? args.scale : spec->scale;
    const auto cells = makeCells(*spec, scale, args.seed);
    printManifest(args, *spec, scale);
    try {
        return args.trace ? runTraced(args, *spec, cells)
                          : runUntraced(args, *spec, cells);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_e2e: " << e.what() << "\n";
        return 1;
    }
}
