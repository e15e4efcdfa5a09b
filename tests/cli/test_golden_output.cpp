/**
 * @file
 * Byte-identity of the registry-based CLI against the pre-refactor
 * monolithic pinpoint_cli. The fixtures under tests/cli/golden/
 * were captured from the old binary (PR 3 state) on fixed
 * workloads; the rebuilt commands — now thin projections of an
 * api::Study — must reproduce them exactly, proving the API
 * redesign changed structure and cost, not results.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/commands.h"

namespace pinpoint {
namespace cli {
namespace {

std::string
read_file(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
golden(const std::string &name)
{
    return read_file(std::string(PINPOINT_SOURCE_DIR) +
                     "/tests/cli/golden/" + name);
}

/** Runs the registry CLI; returns captured stdout-equivalent. */
std::string
run_out(const std::vector<std::string> &args, int expect_code = 0)
{
    const CommandRegistry registry = make_default_registry();
    std::ostringstream out;
    std::ostringstream err;
    CommandIo io{out, err};
    EXPECT_EQ(run_cli(registry, args, io), expect_code) << err.str();
    return out.str();
}

TEST(GoldenOutput, CharacterizeMatchesThePreRefactorCli)
{
    EXPECT_EQ(run_out({"characterize", "--model", "mlp", "--batch",
                       "64", "--iterations", "2"}),
              golden("characterize_mlp_b64_i2.txt"));
}

TEST(GoldenOutput, SwapValidateMatchesThePreRefactorCli)
{
    EXPECT_EQ(run_out({"swap", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2", "--validate"}),
              golden("swap_resnet18_b16_i2_validate.txt"));
}

TEST(GoldenOutput, ReliefMatchesThePreRefactorCli)
{
    EXPECT_EQ(run_out({"relief", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2", "--budget-ms",
                       "50"}),
              golden("relief_resnet18_b16_i2_budget50.txt"));
}

/** @return @p text without its "wrote ... to <path>" lines, whose
 * temp paths differ per run. */
std::string
without_wrote_lines(const std::string &text)
{
    std::istringstream in(text);
    std::string out;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("wrote ", 0) != 0)
            out += line + "\n";
    return out;
}

TEST(GoldenOutput, SwapValidateExportsMatchTheFixture)
{
    const std::string csv =
        testing::TempDir() + "pinpoint_golden_swap.csv";
    const std::string json =
        testing::TempDir() + "pinpoint_golden_swap.json";
    const std::string out =
        run_out({"swap", "--model", "resnet18", "--batch", "16",
                 "--iterations", "2", "--validate", "--csv", csv,
                 "--json", json});
    EXPECT_EQ(without_wrote_lines(out),
              golden("swap_resnet18_b16_i2_validate.txt"));
    EXPECT_EQ(read_file(csv),
              golden("swap_resnet18_b16_i2_validate.csv"));
    EXPECT_EQ(read_file(json),
              golden("swap_resnet18_b16_i2_validate.json"));
    std::remove(csv.c_str());
    std::remove(json.c_str());
}

TEST(GoldenOutput, PeerReliefExportsMatchTheFixture)
{
    // Two nvlink replicas: the peer-only plan's legs run on the
    // interconnect's executor, the host link stays idle.
    const std::string csv =
        testing::TempDir() + "pinpoint_golden_peer_relief.csv";
    const std::string json =
        testing::TempDir() + "pinpoint_golden_peer_relief.json";
    const std::string out = run_out(
        {"relief", "--model", "resnet18", "--batch", "16",
         "--iterations", "2", "--devices", "2", "--topology",
         "nvlink", "--strategy", "peer", "--csv", csv, "--json",
         json});
    EXPECT_EQ(without_wrote_lines(out),
              golden("relief_resnet18_b16_i2_dp2_nvlink_peer.txt"));
    EXPECT_EQ(read_file(csv),
              golden("relief_resnet18_b16_i2_dp2_nvlink_peer.csv"));
    EXPECT_EQ(read_file(json),
              golden("relief_resnet18_b16_i2_dp2_nvlink_peer.json"));
    std::remove(csv.c_str());
    std::remove(json.c_str());
}

TEST(GoldenOutput, ServingReliefExportMatchesTheFixture)
{
    // A serving study plans against its p50 request latency as the
    // per-decision SLO.
    const std::string json =
        testing::TempDir() + "pinpoint_golden_infer_relief.json";
    const std::string out =
        run_out({"relief", "--mode", "infer", "--model", "mlp",
                 "--batch", "8", "--requests", "8", "--strategy",
                 "hybrid", "--json", json});
    EXPECT_EQ(without_wrote_lines(out),
              golden("relief_mlp_b8_infer_r8_hybrid.txt"));
    EXPECT_EQ(read_file(json),
              golden("relief_mlp_b8_infer_r8_hybrid.json"));
    std::remove(json.c_str());
}

TEST(GoldenOutput, SweepCsvMatchesThePreRefactorCli)
{
    const std::string path =
        testing::TempDir() + "pinpoint_golden_sweep.csv";
    const std::string json =
        testing::TempDir() + "pinpoint_golden_sweep.json";
    run_out({"sweep", "--models", "mlp,resnet18", "--batches", "16",
             "--allocators", "caching,direct", "--iterations", "2",
             "--jobs", "2", "--quiet", "--csv", path, "--json", json});
    EXPECT_EQ(read_file(path), golden("sweep_small.csv"));
    EXPECT_EQ(read_file(json), golden("sweep_small.json"));
    std::remove(path.c_str());
    std::remove(json.c_str());
}

TEST(GoldenOutput, DataParallelBuddySweepCsvMatchesTheFixture)
{
    // The buddy allocator and 2-device rows: the relief columns of a
    // dp2 row run the peer-leg plan execution and the combined
    // what-if occupancy peak.
    const std::string path =
        testing::TempDir() + "pinpoint_golden_dp_buddy_sweep.csv";
    const std::string json =
        testing::TempDir() + "pinpoint_golden_dp_buddy_sweep.json";
    run_out({"sweep", "--models", "resnet18,mlp", "--batches", "16",
             "--allocators", "caching,buddy", "--devices", "1,2",
             "--iterations", "2", "--jobs", "2", "--quiet", "--csv",
             path, "--json", json});
    EXPECT_EQ(read_file(path), golden("sweep_dp_buddy_small.csv"));
    EXPECT_EQ(read_file(json), golden("sweep_dp_buddy_small.json"));
    std::remove(path.c_str());
    std::remove(json.c_str());
}

TEST(GoldenOutput, InferCharacterizeMatchesTheFixture)
{
    // The serving report is seeded by the spec id, so the same
    // invocation replays the same traffic — fixture bytes included.
    EXPECT_EQ(run_out({"characterize", "--model", "mlp", "--batch",
                       "8", "--mode", "infer", "--requests", "12"}),
              golden("characterize_mlp_b8_infer_r12.txt"));
}

TEST(GoldenOutput, ServingSweepCsvMatchesTheFixture)
{
    const std::string path =
        testing::TempDir() + "pinpoint_golden_serving_sweep.csv";
    const std::string json =
        testing::TempDir() + "pinpoint_golden_serving_sweep.json";
    run_out({"sweep", "--models", "mlp", "--batches", "8",
             "--allocators", "caching", "--modes", "train,infer",
             "--dtypes", "f32,f16", "--requests", "6",
             "--iterations", "2", "--jobs", "4", "--quiet", "--csv",
             path, "--json", json});
    EXPECT_EQ(read_file(path), golden("sweep_serving_small.csv"));
    EXPECT_EQ(read_file(json), golden("sweep_serving_small.json"));
    std::remove(path.c_str());
    std::remove(json.c_str());
}

TEST(GoldenOutput, RepeatedRunsAreByteIdenticalThroughTheSharedView)
{
    // PR 5 re-verification: with every command routed through one
    // shared TraceView per run, a repeated invocation must still
    // reproduce the fixture bytes — the shared snapshot carries no
    // state between runs.
    const std::vector<std::string> args = {
        "characterize", "--model", "mlp",
        "--batch",      "64",      "--iterations",
        "2"};
    const std::string first = run_out(args);
    EXPECT_EQ(first, golden("characterize_mlp_b64_i2.txt"));
    EXPECT_EQ(first, run_out(args));
}

TEST(GoldenOutput, SwapPlanAliasMatchesTheNewSpelling)
{
    const std::vector<std::string> tail = {
        "--model", "mlp", "--batch", "16", "--iterations", "2"};
    std::vector<std::string> as_swap = {"swap"};
    std::vector<std::string> as_alias = {"swap-plan"};
    as_swap.insert(as_swap.end(), tail.begin(), tail.end());
    as_alias.insert(as_alias.end(), tail.begin(), tail.end());
    EXPECT_EQ(run_out(as_swap), run_out(as_alias));
}

}  // namespace
}  // namespace cli
}  // namespace pinpoint
