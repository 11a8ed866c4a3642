/**
 * @file
 * Golden-stats differential regression suite (tier 2).
 *
 * Each workload x technique cell runs at the default seed and
 * kGoldenScale, serializes its full stats block (minus hostSeconds) and
 * diffs it against the checked-in file under tests/goldens/.  A
 * mismatch means simulated timing or accounting changed: if that was
 * intentional, regenerate with ./build/update_goldens and commit the
 * golden diff alongside the code; if not, this suite just caught a
 * regression no directional test would see.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "runner/golden.hpp"
#include "workloads/workload.hpp"

#ifndef EPF_GOLDEN_DIR
#define EPF_GOLDEN_DIR "tests/goldens"
#endif

namespace epf
{
namespace
{

std::string
goldenDir()
{
    if (const char *d = std::getenv("EPF_GOLDEN_DIR"))
        return d;
    return EPF_GOLDEN_DIR;
}

class GoldenMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, Technique>>
{
};

TEST_P(GoldenMatrix, StatsMatchGolden)
{
    const GoldenCell cell{std::get<0>(GetParam()), std::get<1>(GetParam())};
    const std::string file = goldenDir() + "/" + goldenFileName(cell);

    std::ifstream is(file, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden " << file
                    << " — run ./build/update_goldens and commit the "
                       "generated files";
    std::ostringstream want;
    want << is.rdbuf();

    const RunResult res = runExperiment(cell.workload,
                                        goldenConfig(cell.technique));
    const std::string got = goldenStatsJson(cell, res);

    EXPECT_EQ(want.str(), got)
        << cell.workload << " / " << techniqueName(cell.technique)
        << ": stats diverged from " << file << " at line "
        << firstDifferingLine(want.str(), got)
        << ".\nIf this change is intentional, regenerate with "
           "./build/update_goldens and commit the golden diff.";
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, GoldenMatrix,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::ValuesIn(goldenTechniques())),
    [](const auto &info) {
        std::string n = std::get<0>(info.param) + "_" +
                        techniqueName(std::get<1>(info.param));
        std::string out;
        for (char c : n)
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out;
    });

/**
 * Every cell of the full matrix re-run with the fault injector armed
 * but silent (master switch on, no site enabled) must reproduce its
 * golden byte-for-byte, apart from the all-zero `fault.*` counters an
 * armed run publishes.  Same-tick work is delivered per event — one
 * scheduled event per MSHR fill waiter, one front-door enqueue per
 * filter match — and with the injector armed every such delivery
 * visits its fault sites, so this pins that visiting a site which does
 * not fire costs no simulated tick.  (The suite keeps the name it had
 * when it compared per-event delivery against a batched carrier.)
 */
class BatchParity
    : public ::testing::TestWithParam<std::tuple<std::string, Technique>>
{
};

/** @p json without its `fault.*` detail lines (never the block's last
 *  line: the keys are sorted and `l1.*` always follows). */
std::string
withoutFaultCounters(const std::string &json)
{
    std::istringstream in(json);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.rfind("    \"fault.", 0) != 0)
            out += line + "\n";
    }
    return out;
}

TEST_P(BatchParity, PerEventDeliveryMatchesGolden)
{
    const GoldenCell cell{std::get<0>(GetParam()), std::get<1>(GetParam())};
    const std::string file = goldenDir() + "/" + goldenFileName(cell);

    std::ifstream is(file, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden " << file;
    std::ostringstream want;
    want << is.rdbuf();

    RunConfig cfg = goldenConfig(cell.technique);
    cfg.faults.enabled = true; // every site consulted, none fires
    const RunResult res = runExperiment(cell.workload, cfg);
    EXPECT_EQ(res.faultsInjected, 0u);
    const std::string got =
        withoutFaultCounters(goldenStatsJson(cell, res));

    EXPECT_EQ(want.str(), got)
        << cell.workload << " / " << techniqueName(cell.technique)
        << ": an armed but silent fault injector changed the simulated "
           "stats (first divergence at line "
        << firstDifferingLine(want.str(), got) << ").";
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, BatchParity,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::ValuesIn(goldenTechniques())),
    [](const auto &info) {
        std::string n = std::get<0>(info.param) + "_" +
                        techniqueName(std::get<1>(info.param));
        std::string out;
        for (char c : n)
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out;
    });

} // namespace
} // namespace epf
