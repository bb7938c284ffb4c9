/**
 * @file
 * Process-level fault injection against the sharded runtime: the
 * broker's handshake/liveness deadlines fail cleanly and within
 * bound, SIGKILL/SIGSTOP mid-run triggers the epoch-fenced
 * recovery, and the survivors' post-recovery trajectory is
 * bitwise-equal to a single-process allocator that suffers the
 * identical surgery at the identical round boundary
 * (applyShardRecovery).  Every recovered trajectory is
 * InvariantChecker-audited round by round, so cap conservation on
 * the survivor partition is machine-checked, not eyeballed.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <sys/wait.h>

#include "cluster/shard.hh"
#include "fault/invariant_checker.hh"
#include "fault/shard_fault.hh"
#include "graph/topologies.hh"
#include "net/socket_transport.hh"
#include "net/transport.hh"
#include "tests/alloc/test_problems.hh"

namespace dpc {
namespace {

using cluster::ShardPlan;
using cluster::ShardRunOptions;
using cluster::ShardRunResult;
using cluster::applyShardRecovery;
using cluster::makeShardPlan;
using cluster::runShardedDiba;

double
elapsedSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
expectBitwiseEqual(const std::vector<double> &a,
                   const std::vector<double> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i], b[i]) << what << " index " << i;
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << what << " bit pattern differs at index " << i;
    }
}

/** Single-process reference trajectory over the identity
 * loopback (pinned bitwise to plain iterate()). */
DibaAllocator
referenceRun(const AllocationProblem &prob, const Graph &topo,
             const DibaAllocator::Config &cfg, std::size_t rounds)
{
    DibaAllocator alloc(topo, cfg);
    alloc.reset(prob);
    net::LoopbackTransport loopback;
    for (std::size_t r = 0; r < rounds; ++r)
        alloc.stepWithTransport(loopback);
    return alloc;
}

/**
 * The survivors' predicted trajectory: run single-process to the
 * resume round the broker reported, apply the identical recovery
 * surgery (fail the dead blocks, re-federate the folded held
 * budget), then run the remaining rounds -- auditing the safety
 * invariants after every post-recovery round.
 */
DibaAllocator
recoveredReference(const AllocationProblem &prob, const Graph &topo,
                   const DibaAllocator::Config &cfg,
                   const ShardRunResult &res, std::size_t rounds)
{
    DibaAllocator alloc(topo, cfg);
    alloc.reset(prob);
    net::LoopbackTransport loopback;
    for (std::uint64_t r = 0; r < res.recovery_round; ++r)
        alloc.stepWithTransport(loopback);
    applyShardRecovery(alloc, res.plan, res.dead_mask, res.epoch);
    InvariantChecker checker;
    checker.check(alloc);
    for (std::size_t r = res.recovery_round; r < rounds; ++r) {
        alloc.stepWithTransport(loopback);
        checker.check(alloc);
    }
    return alloc;
}

/** Compare the survivor-owned entries of the sharded result
 * against the reference, bitwise. */
void
expectSurvivorsBitwise(const ShardRunResult &res,
                       const DibaAllocator &ref)
{
    const std::vector<double> &rp = ref.power();
    const std::vector<double> &re = ref.estimates();
    ASSERT_EQ(res.power.size(), rp.size());
    ASSERT_EQ(res.estimates.size(), re.size());
    for (std::size_t i = 0; i < rp.size(); ++i) {
        if ((res.dead_mask >> res.plan.owner_of[i]) & 1)
            continue; // dead block: zeroed by the surgery
        EXPECT_EQ(std::memcmp(&res.power[i], &rp[i],
                              sizeof(double)),
                  0)
            << "survivor power bit pattern differs at node " << i;
        EXPECT_EQ(std::memcmp(&res.estimates[i], &re[i],
                              sizeof(double)),
                  0)
            << "survivor estimate bit pattern differs at node "
            << i;
    }
}

bool
killedBySignal(int status, int sig)
{
    return status >= 0 && WIFSIGNALED(status) &&
           WTERMSIG(status) == sig;
}

// ---- broker handshake deadlines (no hangs, clean errors) -------

TEST(ShardFaultTest, NeverSaysHelloFailsWithinDeadline)
{
    const auto prob = test::npbProblem(32, 170.0, 11);
    Rng topo_rng(11);
    const auto topo = makeChordalRing(32, 4, topo_rng);

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = 10;
    opt.handshake_deadline_ms = 500;
    opt.faults.handshakeDelay(1, 60000);

    const auto t0 = std::chrono::steady_clock::now();
    const auto res =
        runShardedDiba(prob, topo, DibaAllocator::Config{}, opt);
    EXPECT_LT(elapsedSeconds(t0), 10.0)
        << "a silent shard must not hang the parent";

    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("Hello"), std::string::npos)
        << res.error;
    // No zombies: every shard reaped, the sleeper killed.
    ASSERT_EQ(res.shard_status.size(), 2u);
    EXPECT_TRUE(killedBySignal(res.shard_status[1], SIGKILL))
        << "status " << res.shard_status[1];
}

TEST(ShardFaultTest, DeathBetweenHelloAndWelcomeFailsCleanly)
{
    const auto prob = test::npbProblem(32, 170.0, 11);
    Rng topo_rng(11);
    const auto topo = makeChordalRing(32, 4, topo_rng);

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = 10;
    opt.faults.exitAfterHello(1);

    const auto t0 = std::chrono::steady_clock::now();
    const auto res =
        runShardedDiba(prob, topo, DibaAllocator::Config{}, opt);
    EXPECT_LT(elapsedSeconds(t0), 10.0);

    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("shard 1"), std::string::npos)
        << res.error;
    ASSERT_EQ(res.shard_status.size(), 2u);
    EXPECT_TRUE(res.shard_status[1] >= 0 &&
                WIFEXITED(res.shard_status[1]))
        << "status " << res.shard_status[1];
}

TEST(ShardFaultTest, ResultNeverArrivesFailsWithinDeadline)
{
    const auto prob = test::npbProblem(32, 170.0, 11);
    Rng topo_rng(11);
    const auto topo = makeChordalRing(32, 4, topo_rng);

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = 10;
    opt.deadline_ms = 400;
    // Hang (not die) immediately after the handshake: only the
    // heartbeat deadline can notice this one.
    opt.faults.stallAt(1, 0, 60000);

    const auto t0 = std::chrono::steady_clock::now();
    const auto res =
        runShardedDiba(prob, topo, DibaAllocator::Config{}, opt);
    EXPECT_LT(elapsedSeconds(t0), 10.0)
        << "a hung shard must not hang the parent";

    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("hung past deadline"),
              std::string::npos)
        << res.error;
    ASSERT_EQ(res.shard_status.size(), 2u);
    EXPECT_TRUE(killedBySignal(res.shard_status[1], SIGKILL))
        << "status " << res.shard_status[1];
}

// ---- clean-run exit-status reporting ---------------------------

TEST(ShardFaultTest, CleanRunReportsZeroExitStatuses)
{
    const auto prob = test::npbProblem(32, 170.0, 11);
    Rng topo_rng(11);
    const auto topo = makeChordalRing(32, 4, topo_rng);

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = 10;

    const auto res =
        runShardedDiba(prob, topo, DibaAllocator::Config{}, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.epoch, 0u);
    EXPECT_EQ(res.dead_mask, 0u);
    EXPECT_EQ(res.recoveries, 0u);
    ASSERT_EQ(res.shard_status.size(), 2u);
    for (const int st : res.shard_status) {
        EXPECT_TRUE(st >= 0 && WIFEXITED(st) &&
                    WEXITSTATUS(st) == 0)
            << "status " << st;
    }
}

// ---- SIGKILL mid-run: epoch-fenced recovery, bitwise -----------

void
runKillRecoveryCase(net::SocketTransport::Proto proto)
{
    const std::size_t n = 64;
    const std::size_t rounds = 40;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.proto = proto;
    opt.recover = true;
    opt.deadline_ms = 800;
    opt.faults.killAt(1, 20);

    const auto res = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.rounds_run, rounds);
    EXPECT_EQ(res.recoveries, 1u);
    EXPECT_EQ(res.dead_mask, 1ull << 1);
    EXPECT_GE(res.epoch, 1u);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);
    // The victim dies at the top of round 20 and the survivor
    // cannot outrun it past its checkpoint window.
    EXPECT_LE(res.recovery_round, 24u);
    EXPECT_GE(res.quiesce_round, res.recovery_round);
    ASSERT_EQ(res.shard_status.size(), 2u);
    EXPECT_TRUE(killedBySignal(res.shard_status[1], SIGKILL))
        << "status " << res.shard_status[1];

    const auto ref =
        recoveredReference(prob, topo, cfg, res, rounds);
    expectSurvivorsBitwise(res, ref);
}

TEST(ShardFaultTest, TwoShardUdpKillRecoversBitwise)
{
    runKillRecoveryCase(net::SocketTransport::Proto::Udp);
}

TEST(ShardFaultTest, TwoShardTcpKillRecoversBitwise)
{
    runKillRecoveryCase(net::SocketTransport::Proto::Tcp);
}

TEST(ShardFaultTest, FourShardKillRecoversBitwise)
{
    const std::size_t n = 48;
    const std::size_t rounds = 25;
    const auto prob = test::npbProblem(n, 170.0, 7);
    Rng topo_rng(3);
    const auto topo = makeChordalRing(n, 6, topo_rng);
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 4;
    opt.rounds = rounds;
    opt.recover = true;
    opt.deadline_ms = 800;
    opt.faults.killAt(2, 12);

    const auto res = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.rounds_run, rounds);
    EXPECT_EQ(res.recoveries, 1u);
    EXPECT_EQ(res.dead_mask, 1ull << 2);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);
    ASSERT_EQ(res.shard_status.size(), 4u);
    EXPECT_TRUE(killedBySignal(res.shard_status[2], SIGKILL))
        << "status " << res.shard_status[2];
    for (const std::uint32_t s : {0u, 1u, 3u})
        EXPECT_TRUE(res.shard_status[s] >= 0 &&
                    WIFEXITED(res.shard_status[s]) &&
                    WEXITSTATUS(res.shard_status[s]) == 0)
            << "survivor " << s << " status "
            << res.shard_status[s];

    const auto ref =
        recoveredReference(prob, topo, cfg, res, rounds);
    expectSurvivorsBitwise(res, ref);
}

TEST(ShardFaultTest, FourShardKillSplittingTheOverlaySeedsEachComponent)
{
    // On a path the dead block 1 leaves two live components: shard
    // 0's block alone, and blocks 2 and 3 together.  Each survivor
    // seeds both components from the utilities, the membership and
    // the broker's folded shares, so the shards sharing a component
    // land on the same bits as the single-process surgery, and the
    // survivors re-cap in the confirmation rounds.
    const std::size_t n = 48;
    const std::size_t rounds = 25;
    const auto prob = test::npbProblem(n, 170.0, 7);
    Graph::Builder path(n);
    for (std::size_t i = 0; i + 1 < n; ++i)
        path.addEdge(i, i + 1);
    const Graph topo = path.build();
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 4;
    opt.rounds = rounds;
    opt.recover = true;
    opt.deadline_ms = 800;
    opt.faults.killAt(1, 12);

    const auto res = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.recoveries, 1u);
    EXPECT_EQ(res.dead_mask, 1ull << 1);
    ASSERT_LE(res.recovery_round + cfg.quiet_rounds, rounds);

    const auto ref =
        recoveredReference(prob, topo, cfg, res, rounds);
    std::vector<std::uint32_t> label;
    ASSERT_EQ(ref.liveComponents(label), 2u);
    EXPECT_NE(label[res.plan.block_begin[2]], label[0]);
    EXPECT_EQ(label[res.plan.block_begin[2]],
              label[res.plan.block_end[3] - 1]);
    EXPECT_TRUE(ref.federationActive());
    EXPECT_TRUE(ref.converged());
    expectSurvivorsBitwise(res, ref);
}

// ---- SIGKILL mid-steady-state: recovery x suppression ----------

TEST(ShardFaultTest, KillDuringSteadyStateSuppressionRecoversBitwise)
{
    // The recovery fence vs the v4 value caches: survivors hold
    // the dead peer's last delivered cut values and their own
    // last-sent XOR bases, and the epoch bump must invalidate
    // both, or the post-rollback rounds would replay stale bits.
    // A warm-start re-seed at step_round forces the suppressed
    // steady state (zero-record frames on the wire), the kill
    // lands mid-suppression, and the survivors must land bitwise
    // on the applyShardRecovery reference -- which runs dense
    // post-surgery exactly like the shards do (failed nodes
    // disable the sparse engine on both sides).
    const std::size_t n = 64;
    const std::size_t rounds = 60;
    const std::size_t step_round = 10;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    DibaAllocator::Config cfg;
    cfg.active_threshold = 0.25 * cfg.tolerance;
    const double delta = 0.2 * prob.budget;

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.recover = true;
    opt.deadline_ms = 800;
    opt.budget_steps.push_back({step_round, delta});
    opt.faults.killAt(1, 35);

    const auto res = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.rounds_run, rounds);
    EXPECT_EQ(res.recoveries, 1u);
    EXPECT_EQ(res.dead_mask, 1ull << 1);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);
    ASSERT_EQ(res.shard_status.size(), 2u);
    EXPECT_TRUE(killedBySignal(res.shard_status[1], SIGKILL))
        << "status " << res.shard_status[1];
    // The kill must land inside the suppressed steady state the
    // re-seed produces (checkpoints save every round, so the
    // rollback cannot reach back past the step).
    EXPECT_GT(res.suppressed_frames, 0u);
    EXPECT_GT(res.recovery_round, step_round);

    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    for (std::uint64_t r = 0; r < res.recovery_round; ++r) {
        if (r == step_round)
            ref.warmStart(ref.result(), delta);
        ref.iterate();
    }
    applyShardRecovery(ref, res.plan, res.dead_mask, res.epoch);
    InvariantChecker checker;
    checker.check(ref);
    for (std::size_t r = res.recovery_round; r < rounds; ++r) {
        ref.iterate();
        checker.check(ref);
    }
    expectSurvivorsBitwise(res, ref);
}

// ---- SIGSTOP: slow vs hung --------------------------------------

TEST(ShardFaultTest, StallUnderDeadlineIsBitwiseInvisible)
{
    const std::size_t n = 32;
    const std::size_t rounds = 20;
    const auto prob = test::npbProblem(n, 170.0, 13);
    Rng topo_rng(13);
    const auto topo = makeChordalRing(n, 4, topo_rng);
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.recover = true;
    opt.deadline_ms = 5000;
    opt.faults.stallAt(1, 8, 250);

    const auto res = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(res.ok) << res.error;
    // Merely slow: no death, no epoch change, exact trajectory.
    EXPECT_EQ(res.recoveries, 0u);
    EXPECT_EQ(res.dead_mask, 0u);
    EXPECT_EQ(res.epoch, 0u);

    const auto ref = referenceRun(prob, topo, cfg, rounds);
    expectBitwiseEqual(res.power, ref.power(), "stalled power");
    expectBitwiseEqual(res.estimates, ref.estimates(),
                       "stalled estimates");
}

TEST(ShardFaultTest, StallPastDeadlineRecoversLikeAKill)
{
    const std::size_t n = 32;
    const std::size_t rounds = 20;
    const auto prob = test::npbProblem(n, 170.0, 13);
    Rng topo_rng(13);
    const auto topo = makeChordalRing(n, 4, topo_rng);
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.recover = true;
    opt.deadline_ms = 500;
    opt.faults.stallAt(1, 8, 60000);

    const auto t0 = std::chrono::steady_clock::now();
    const auto res = runShardedDiba(prob, topo, cfg, opt);
    EXPECT_LT(elapsedSeconds(t0), 20.0);

    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.recoveries, 1u);
    EXPECT_EQ(res.dead_mask, 1ull << 1);
    EXPECT_DOUBLE_EQ(res.availability, 1.0);
    ASSERT_EQ(res.shard_status.size(), 2u);
    EXPECT_TRUE(killedBySignal(res.shard_status[1], SIGKILL))
        << "status " << res.shard_status[1];

    const auto ref =
        recoveredReference(prob, topo, cfg, res, rounds);
    expectSurvivorsBitwise(res, ref);
}

// ---- blackhole: retransmits heal it, stats record it -----------

TEST(ShardFaultTest, BlackholeHealsViaRetransmitsBitwise)
{
    const std::size_t n = 32;
    const std::size_t rounds = 20;
    const auto prob = test::npbProblem(n, 170.0, 17);
    Rng topo_rng(17);
    const auto topo = makeChordalRing(n, 4, topo_rng);
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.retrans_ms = 5;
    opt.deadline_ms = 5000;
    opt.faults.blackholeAt(0, 1, 5, 150);

    const auto res = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.recoveries, 0u);
    EXPECT_EQ(res.dead_mask, 0u);
    EXPECT_GT(res.gaveup_frames, 0u)
        << "the blackhole must have eaten at least one send";

    const auto ref = referenceRun(prob, topo, cfg, rounds);
    expectBitwiseEqual(res.power, ref.power(),
                       "blackholed power");
    expectBitwiseEqual(res.estimates, ref.estimates(),
                       "blackholed estimates");
}

// ---- SocketTransport construction validation -------------------

net::SocketTransport::Config
tinyTransportConfig()
{
    net::SocketTransport::Config cfg;
    cfg.shard_id = 0;
    cfg.num_shards = 1;
    cfg.owner_of = {0};
    return cfg;
}

TEST(ShardFaultDeathTest, RejectsNonPositiveRetransTick)
{
    auto cfg = tinyTransportConfig();
    cfg.retrans_ms = 0;
    EXPECT_DEATH(net::SocketTransport t(std::move(cfg)),
                 "retrans_ms");
}

TEST(ShardFaultDeathTest, RejectsUselesslySmallDatagramBudget)
{
    auto cfg = tinyTransportConfig();
    cfg.datagram_budget = net::kMinFrameSize - 1;
    EXPECT_DEATH(net::SocketTransport t(std::move(cfg)),
                 "datagram_budget");
}

} // namespace
} // namespace dpc
