#include "traced.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "cells.hpp"
#include "cpu/core.hpp"
#include "mem/core_port.hpp"
#include "mem/guest_memory.hpp"
#include "mem/uncore.hpp"
#include "sim/event_queue.hpp"

namespace perfbench
{

using epf::Technique;

namespace
{

double
since(Clock::time_point epoch, Clock::time_point t)
{
    return std::chrono::duration<double>(t - epoch).count();
}

/**
 * Per-cell span state.  Generator pulls and prefetcher calls are far
 * too frequent to keep one record each, so they are summed per drain
 * call; the outermost call is timed and nested calls (the PPF kicking
 * the port, which polls the source again) fold into it.
 */
struct Probe
{
    Clock::time_point epoch;
    std::size_t cell = 0;
    std::vector<Span> spans;
    bool inChild = false;
    double generatorBusy = 0.0;
    std::uint64_t generatorCalls = 0;
    double prefetcherBusy = 0.0;
    std::uint64_t prefetcherCalls = 0;

    int
    open(const char *name, int parent)
    {
        Span s;
        s.name = name;
        s.cell = cell;
        s.parent = parent;
        s.start = since(epoch, Clock::now());
        spans.push_back(s);
        return static_cast<int>(spans.size()) - 1;
    }

    double
    close(int idx)
    {
        Span &s = spans[static_cast<std::size_t>(idx)];
        s.end = since(epoch, Clock::now());
        s.busy = s.end - s.start;
        return s.busy;
    }

    /** Emit the per-call aggregates accumulated under drain span @p d. */
    void
    flushChildren(int d)
    {
        const Span drain = spans[static_cast<std::size_t>(d)];
        const auto emit = [&](const char *name, double &busy,
                              std::uint64_t &calls) {
            if (calls == 0)
                return;
            Span s = drain;
            s.name = name;
            s.parent = d;
            s.busy = busy;
            s.count = calls;
            spans.push_back(s);
            busy = 0.0;
            calls = 0;
        };
        emit("workloads.pull", generatorBusy, generatorCalls);
        emit("prefetcher.call", prefetcherBusy, prefetcherCalls);
    }
};

/** Times the outermost of any nested child calls. */
class ChildSpan
{
  public:
    ChildSpan(Probe &p, double &busy, std::uint64_t &calls)
        : p_(p), busy_(busy)
    {
        if (!p_.inChild) {
            p_.inChild = true;
            active_ = true;
            ++calls;
            t0_ = Clock::now();
        }
    }

    ~ChildSpan()
    {
        if (active_) {
            busy_ += std::chrono::duration<double>(Clock::now() - t0_)
                         .count();
            p_.inChild = false;
        }
    }

    ChildSpan(const ChildSpan &) = delete;
    ChildSpan &operator=(const ChildSpan &) = delete;

  private:
    Probe &p_;
    double &busy_;
    bool active_ = false;
    Clock::time_point t0_;
};

/**
 * Forwards every listener and prefetch-source call to the attached
 * prefetcher, timing each.  Behaviour-neutral: the port sees the same
 * calls in the same order, so the simulated results stay identical.
 */
class TimedPrefetcher final : public epf::MemoryListener,
                              public epf::PrefetchSource
{
  public:
    TimedPrefetcher(epf::MemoryListener &l, epf::PrefetchSource &s,
                    Probe &p)
        : l_(l), s_(s), p_(p)
    {
    }

    void
    notifyDemand(epf::Addr vaddr, bool is_load, bool hit,
                 int stream_id) override
    {
        ChildSpan span(p_, p_.prefetcherBusy, p_.prefetcherCalls);
        l_.notifyDemand(vaddr, is_load, hit, stream_id);
    }

    void
    notifyPrefetchFill(const epf::LineRequest &req) override
    {
        ChildSpan span(p_, p_.prefetcherBusy, p_.prefetcherCalls);
        l_.notifyPrefetchFill(req);
    }

    void
    notifyPrefetchDropped(const epf::LineRequest &req) override
    {
        ChildSpan span(p_, p_.prefetcherBusy, p_.prefetcherCalls);
        l_.notifyPrefetchDropped(req);
    }

    bool
    hasRequest() const override
    {
        ChildSpan span(p_, p_.prefetcherBusy, p_.prefetcherCalls);
        return s_.hasRequest();
    }

    epf::LineRequest
    popRequest() override
    {
        ChildSpan span(p_, p_.prefetcherBusy, p_.prefetcherCalls);
        return s_.popRequest();
    }

  private:
    epf::MemoryListener &l_;
    epf::PrefetchSource &s_;
    Probe &p_;
};

/** Times each pull of @p inner and records its demand accesses. */
epf::Generator<epf::MicroOp>
timedTrace(epf::Generator<epf::MicroOp> inner, Probe &p,
           std::uint64_t &ops, std::vector<Access> &demand,
           std::size_t record_limit)
{
    for (;;) {
        bool more = false;
        {
            ChildSpan span(p, p.generatorBusy, p.generatorCalls);
            more = inner.next();
        }
        if (!more)
            co_return;
        ++ops;
        epf::MicroOp &op = inner.value();
        const bool is_load = op.kind == epf::MicroOp::Kind::Load;
        if ((is_load || op.kind == epf::MicroOp::Kind::Store) &&
            demand.size() < record_limit) {
            demand.push_back({op.vaddr, op.streamId, is_load});
        }
        co_yield std::move(op);
    }
}

/**
 * Publish the counters runExperiment() publishes for a single-core,
 * fault-free run, under the same names and conditions.  Any drift
 * between the two shows as a digest mismatch in the parity check.
 */
void
collect(epf::RunResult &res, epf::EventQueue &eq, epf::Uncore &uncore,
        epf::CorePort &port, epf::Core &cpu,
        const epf::ProgrammablePrefetcher *ppf)
{
    res.ticks = eq.now();
    const auto &c = cpu.stats();
    res.cycles = c.cycles;
    res.instrs = c.instrs;

    const auto &l1 = port.l1().stats();
    res.l1ReadHitRate = l1.loads > 0 ? static_cast<double>(l1.loadHits) /
                                           static_cast<double>(l1.loads)
                                     : 0.0;
    const epf::Cache::Stats l2 = uncore.l2Stats();
    res.l2HitRate = l2.lowerReads > 0
                        ? static_cast<double>(l2.lowerReadHits) /
                              static_cast<double>(l2.lowerReads)
                        : 0.0;
    res.l1PrefetchFills = l1.prefetchFills;
    res.pfUtilisation = l1.prefetchFills > 0
                            ? static_cast<double>(l1.pfUsed) /
                                  static_cast<double>(l1.prefetchFills)
                            : 0.0;
    res.dramReads = uncore.dram().stats().reads;
    res.dramWrites = uncore.dram().stats().writes;
    if (ppf) {
        const epf::Tick total = res.ticks > 0 ? res.ticks : 1;
        for (const auto &ps : ppf->ppuStats()) {
            res.ppuActivity.push_back(static_cast<double>(ps.busyTicks) /
                                      static_cast<double>(total));
        }
        res.ppfEventsRun = ppf->stats().eventsRun;
        res.ppfObservations = ppf->stats().observations;
    }

    auto &d = res.detail;
    const auto set = [&d](const std::string &name, double v) {
        d.setUnique(name, v);
    };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    set("core.cycles", u(c.cycles));
    set("core.instrs", u(c.instrs));
    set("core.loads", u(c.loads));
    set("core.stores", u(c.stores));
    set("core.swPrefetches", u(c.swPrefetches));
    set("core.commitStallCycles", u(c.commitStallCycles));
    set("core.robFullCycles", u(c.robFullCycles));

    set("l1.loads", u(l1.loads));
    set("l1.loadHits", u(l1.loadHits));
    set("l1.demandMerges", u(l1.demandMerges));
    set("l1.mshrRejects", u(l1.mshrRejects));
    set("l1.prefetchFills", u(l1.prefetchFills));
    set("l1.pfUsed", u(l1.pfUsed));
    set("l1.pfUsedLate", u(l1.pfUsedLate));
    set("l1.pfUnusedEvicted", u(l1.pfUnusedEvicted));
    set("l1.pfDropPresent", u(l1.pfDropPresent));
    set("l1.writebacks", u(l1.writebacks));

    const auto &hs = port.stats();
    if (hs.pfSkidDropped > 0)
        set("mem.pfSkidDropped", u(hs.pfSkidDropped));
    set("mem.loadRetries", u(hs.loadRetries));
    set("mem.storeRetries", u(hs.storeRetries));
    set("mem.swPrefetchDrops", u(hs.swPrefetchDrops));
    set("mem.pfIssued", u(hs.pfIssued));
    set("mem.pfDropPresent", u(hs.pfDropPresent));
    set("mem.pfDropMerged", u(hs.pfDropMerged));
    set("mem.pfDropFault", u(hs.pfDropFault));

    const auto &ts = port.tlb().stats();
    set("tlb.l1Hits", u(ts.l1Hits));
    set("tlb.l2Hits", u(ts.l2Hits));
    set("tlb.walks", u(ts.walks));
    set("tlb.faults", u(ts.faults));

    if (ppf) {
        const auto &ps = ppf->stats();
        set("ppf.observations", u(ps.observations));
        set("ppf.obsDropped", u(ps.obsDropped));
        set("ppf.obsNoData", u(ps.obsNoData));
        set("ppf.eventsRun", u(ps.eventsRun));
        set("ppf.traps", u(ps.traps));
        set("ppf.prefetchesEmitted", u(ps.prefetchesEmitted));
        set("ppf.reqDropped", u(ps.reqDropped));
        set("ppf.chainSamples", u(ps.chainSamples));
        set("ppf.blockedStalls", u(ps.blockedStalls));
        set("ppf.lookahead0", u(ppf->lookaheadOf(0)));
        const epf::PpfConfig &pc = ppf->config();
        if (ps.localDropped > 0)
            set("ppf.localDropped", u(ps.localDropped));
        if (pc.stormWindowTicks > 0) {
            set("ppf.throttleDropped", u(ps.throttleDropped));
            set("ppf.throttleEntries", u(ps.throttleEntries));
        }
        if (pc.quarantineThreshold > 0) {
            set("ppf.quarantineKills", u(ps.quarantineKills));
            set("ppf.quarantineReenables", u(ps.quarantineReenables));
            set("ppf.quarantineSkips", u(ps.quarantineSkips));
            set("ppf.quarantineLogHash", u(ppf->quarantineLogHash() >> 11));
        }
    }

    set("l2.reads", u(l2.lowerReads));
    set("l2.readHits", u(l2.lowerReadHits));
    const auto &ds = uncore.dram().stats();
    set("dram.reads", u(ds.reads));
    set("dram.writes", u(ds.writes));
    set("dram.rowHits", u(ds.rowHits));
    set("dram.rowMisses", u(ds.rowMisses));
    set("dram.prefetchReads", u(ds.prefetchReads));
    if (ds.reads > 0) {
        set("dram.avgReadLatencyNs", static_cast<double>(ds.totalReadLatency) /
                                         static_cast<double>(ds.reads) /
                                         epf::kTicksPerNs);
    }
}

} // namespace

TracedCell
runTracedCell(const epf::SweepCell &cell, std::size_t index,
              Clock::time_point epoch, std::size_t record_limit)
{
    const epf::RunConfig &cfg = cell.config;
    if (cfg.cores != 1 || cfg.faults.enabled || !cfg.tracePath.empty())
        throw std::invalid_argument(
            "the traced assembly models the single-core, fault-free, "
            "capture-free machine only");

    TracedCell out;
    Probe probe;
    probe.epoch = epoch;
    probe.cell = index;
    const int cell_span = probe.open("cell", -1);

    // An early-out publishes the note runExperiment() gives.
    const auto unavailable = [&](const CellSetup &setup) {
        out.result.available = false;
        out.result.note = setup.note();
        out.result.remarks = setup.remarks();
        out.cellS = probe.close(cell_span);
        out.spans = std::move(probe.spans);
        return std::move(out);
    };

    int s = probe.open("workloads.setup", cell_span);
    CellSetup setup(cell);
    epf::EventQueue eq;
    epf::GuestMemory gmem;
    const bool loaded = setup.load(gmem);
    out.setupS = probe.close(s);
    if (!loaded)
        return unavailable(setup);

    epf::Uncore uncore(eq, gmem, cfg.mem, 1);
    epf::CorePort port(eq, gmem, uncore, cfg.mem, 0);
    epf::Core cpu(eq, cfg.core, port, 0);

    const Technique t = cfg.technique;
    if (isCompiled(t)) {
        s = probe.open("compiler.pass", cell_span);
        const bool compiled = setup.compile();
        out.compilerS += probe.close(s);
        out.result.remarks = setup.remarks();
        if (!compiled)
            return unavailable(setup);
    }

    std::unique_ptr<epf::StridePrefetcher> stride;
    std::unique_ptr<epf::GhbPrefetcher> ghb;
    std::unique_ptr<epf::ProgrammablePrefetcher> ppf;
    epf::MemoryListener *listener = nullptr;
    epf::PrefetchSource *source = nullptr;
    switch (t) {
      case Technique::kNone:
      case Technique::kSoftware:
        break;
      case Technique::kStride:
        stride = std::make_unique<epf::StridePrefetcher>(cfg.stride);
        listener = stride.get();
        source = stride.get();
        break;
      case Technique::kGhbRegular:
      case Technique::kGhbLarge:
        ghb = std::make_unique<epf::GhbPrefetcher>(
            t == Technique::kGhbLarge ? cfg.ghbLarge : cfg.ghbRegular);
        listener = ghb.get();
        source = ghb.get();
        break;
      case Technique::kPragma:
      case Technique::kConverted:
      case Technique::kManual:
      case Technique::kManualBlocked: {
        ppf = std::make_unique<epf::ProgrammablePrefetcher>(
            eq, gmem, setup.ppfConfig());
        s = probe.open(isCompiled(t) ? "compiler.install" : "ppf.install",
                       cell_span);
        setup.install(*ppf);
        const double install_s = probe.close(s);
        if (isCompiled(t))
            out.compilerS += install_s;
        listener = ppf.get();
        source = ppf.get();
        ppf->setKick([&port] { port.kickPrefetcher(); });
        break;
      }
    }
    std::unique_ptr<TimedPrefetcher> adapter;
    if (listener) {
        adapter = std::make_unique<TimedPrefetcher>(*listener, *source,
                                                    probe);
        port.setListener(adapter.get());
        port.setPrefetchSource(adapter.get());
    }

    bool done = false;
    cpu.run(timedTrace(setup.workload().trace(t == Technique::kSoftware),
                       probe, out.ops, out.demand, record_limit),
            [&done] { done = true; });
    while (!eq.empty()) {
        const int d = probe.open("sim.drain", cell_span);
        eq.run(1'000'000);
        out.drainS += probe.close(d);
        out.generatorS += probe.generatorBusy;
        out.prefetcherS += probe.prefetcherBusy;
        probe.flushChildren(d);
    }
    if (!done)
        throw std::logic_error("core did not finish: " + cell.workload);
    out.events = eq.executed();

    collect(out.result, eq, uncore, port, cpu, ppf.get());
    out.result.checksum = setup.workload().checksum();
    out.cellS = probe.close(cell_span);
    out.spans = std::move(probe.spans);
    return out;
}

ReplayResult
replayDemand(const epf::SweepCell &cell, const std::vector<Access> &stream)
{
    const epf::RunConfig &cfg = cell.config;
    ReplayResult out;
    out.accesses = stream.size();
    if (stream.empty())
        return out;

    // Each replay gets its own machine over the cell's inputs (the page
    // table maps only registered guest regions), with cold caches and
    // TLB, and no core: the access loop drives the port directly.
    const auto replay = [&](bool through_port) {
        CellSetup setup(cell);
        epf::EventQueue eq;
        epf::GuestMemory gmem;
        if (!setup.load(gmem))
            throw std::logic_error("demand replay of an unavailable cell");
        epf::Uncore uncore(eq, gmem, cfg.mem, 1);
        epf::CorePort port(eq, gmem, uncore, cfg.mem, 0);
        std::size_t completed = 0;
        const auto t0 = Clock::now();
        for (const Access &a : stream) {
            if (!through_port) {
                port.tlb().translate(a.vaddr, [&completed](epf::Addr, bool) {
                    ++completed;
                });
            } else if (a.isLoad) {
                port.load(a.vaddr, a.streamId, [&completed] { ++completed; });
            } else {
                port.store(a.vaddr, a.streamId, [&completed] { ++completed; });
            }
            while (!eq.empty())
                eq.run();
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (completed != stream.size())
            throw std::logic_error("demand replay lost completions");
        return secs * 1e9 / static_cast<double>(stream.size());
    };
    out.portNsPerAccess = replay(true);
    out.tlbNsPerTranslate = replay(false);
    return out;
}

} // namespace perfbench
