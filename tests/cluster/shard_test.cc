#include <gtest/gtest.h>

#include <cstring>

#include "cluster/shard.hh"
#include "graph/topologies.hh"
#include "net/transport.hh"
#include "tests/alloc/test_problems.hh"

namespace dpc {
namespace {

using cluster::ShardRunOptions;
using cluster::makeShardPlan;
using cluster::runShardedDiba;

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

/** Single-process reference trajectory: the identical rounds over
 * the identity loopback (pinned bitwise to plain iterate()). */
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

TEST(ShardPlanTest, BlocksPartitionAndCutsAreCounted)
{
    Rng topo_rng(5);
    const auto topo = makeChordalRing(64, 8, topo_rng);
    DibaAllocator alloc(topo, DibaAllocator::Config{});

    const auto plan = makeShardPlan(alloc, 4);
    ASSERT_EQ(plan.num_shards, 4u);
    ASSERT_EQ(plan.block_begin.size(), 4u);
    ASSERT_EQ(plan.block_end.size(), 4u);
    EXPECT_EQ(plan.block_begin[0], 0u);
    EXPECT_EQ(plan.block_end[3], 64u);
    for (std::size_t s = 1; s < 4; ++s)
        EXPECT_EQ(plan.block_begin[s], plan.block_end[s - 1]);
    ASSERT_EQ(plan.owner_of.size(), 64u);
    // Every node owned by exactly one shard; block sizes add up.
    std::vector<std::size_t> owned(4, 0);
    for (const auto s : plan.owner_of) {
        ASSERT_LT(s, 4u);
        ++owned[s];
    }
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(owned[s], plan.block_end[s] - plan.block_begin[s]);
    // A connected overlay split 4 ways must cut something, but the
    // ring's contiguous blocks keep it well below all of it.
    EXPECT_GT(plan.cut_edges, 0u);
    EXPECT_LT(plan.cut_edges, plan.total_edges);
    EXPECT_GT(plan.cutFraction(), 0.0);

    // Deterministic: a second allocator from the same inputs plans
    // identically (parent and forked children rely on this).
    DibaAllocator twin(topo, DibaAllocator::Config{});
    const auto replay = makeShardPlan(twin, 4);
    EXPECT_EQ(replay.owner_of, plan.owner_of);
    EXPECT_EQ(replay.cut_edges, plan.cut_edges);
}

TEST(ShardPlanTest, HeldBudgetsIsTheOneShardFold)
{
    // In-process recovery and the sharded broker fold held budgets
    // through the same code: heldBudgets() must equal the one-shard
    // owned partial + fold the broker runs, bitwise, also after
    // churn and a link cut.
    const std::size_t n = 64;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    DibaAllocator::Config cfg;
    DibaAllocator alloc(topo, cfg);
    alloc.reset(prob);
    for (std::size_t r = 0; r < 20; ++r)
        alloc.iterate();
    alloc.failNode(3);
    alloc.failNode(40);
    const auto &[cu, cv] = alloc.overlayEdges()[7];
    alloc.setEdgeEnabled(cu, cv, false);
    for (std::size_t r = 0; r < 10; ++r)
        alloc.iterate();
    alloc.joinNode(3);
    for (std::size_t r = 0; r < 10; ++r)
        alloc.iterate();

    std::vector<std::uint32_t> label;
    const std::size_t k = alloc.liveComponents(label);
    const auto plan = makeShardPlan(alloc, 1);
    std::vector<std::vector<double>> sum_p(1), sum_e(1);
    alloc.heldPartials(label, k, plan.owner_of.data(), 0, sum_p[0],
                       sum_e[0]);
    const auto folded = foldHeldPartials(sum_p, sum_e);
    ASSERT_EQ(folded.size(), k);
    expectBitwiseEqual(alloc.heldBudgets(label, k), folded, "held");
}

TEST(ShardProcessTest, TwoShardUdpMatchesSingleProcessBitwise)
{
    // From the seeded cold start (every shard seeds it on its full
    // mirror) and from the paper's uniform one; 1 and 4 shards ride
    // along.
    const std::size_t n = 64, rounds = 40;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    for (const bool seeded : {true, false}) {
        SCOPED_TRACE(seeded);
        DibaAllocator::Config cfg;
        cfg.seed_cold_start = seeded;
        const auto ref = referenceRun(prob, topo, cfg, rounds);
        for (const std::uint32_t shards : {2u, 1u, 4u}) {
            SCOPED_TRACE(shards);
            ShardRunOptions opt;
            opt.num_shards = shards;
            opt.rounds = rounds;
            opt.proto = net::SocketTransport::Proto::Udp;
            const auto sharded = runShardedDiba(prob, topo, cfg, opt);
            ASSERT_TRUE(sharded.ok) << sharded.error;
            EXPECT_EQ(sharded.rounds_run, rounds);
            if (shards > 1) {
                EXPECT_GT(sharded.wire_frames, 0u);
                EXPECT_GT(sharded.wire_bytes, 0u);
            }
            expectBitwiseEqual(ref.power(), sharded.power, "power");
            expectBitwiseEqual(ref.estimates(), sharded.estimates,
                               "estimate");
        }
    }
}

TEST(ShardProcessTest, DeadbandGatesEveryRoundPathAlike)
{
    // A positive deadband gates each pair on the snapshot both
    // halves read, and every round path must apply the same gate:
    // plain iterate(), the identity loopback transport and a
    // 2-shard run land on the same bits.
    const std::size_t n = 64, rounds = 40;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    DibaAllocator::Config cfg;
    cfg.deadband = 0.05;

    DibaAllocator plain(topo, cfg);
    plain.reset(prob);
    for (std::size_t r = 0; r < rounds; ++r)
        plain.iterate();
    // The gate must actually bite, or the pins below are vacuous.
    const auto ungated =
        referenceRun(prob, topo, DibaAllocator::Config{}, rounds);
    EXPECT_NE(plain.estimates(), ungated.estimates());

    const auto loop = referenceRun(prob, topo, cfg, rounds);
    expectBitwiseEqual(plain.power(), loop.power(), "loopback power");
    expectBitwiseEqual(plain.estimates(), loop.estimates(),
                       "loopback estimate");

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Udp;
    const auto sharded = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    expectBitwiseEqual(plain.power(), sharded.power, "sharded power");
    expectBitwiseEqual(plain.estimates(), sharded.estimates,
                       "sharded estimate");
}

TEST(ShardProcessTest, FourShardTcpMatchesSingleProcessBitwise)
{
    const std::size_t n = 48, rounds = 25;
    const auto prob = test::npbProblem(n, 170.0, 7);
    Rng topo_rng(3);
    const auto topo = makeChordalRing(n, 6, topo_rng);
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 4;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Tcp;
    const auto sharded = runShardedDiba(prob, topo, cfg, opt);
    EXPECT_EQ(sharded.rounds_run, rounds);
    // TCP is reliable: a clean loopback run never retransmits.
    EXPECT_EQ(sharded.retransmits, 0u);

    const auto ref = referenceRun(prob, topo, cfg, rounds);
    expectBitwiseEqual(ref.power(), sharded.power, "power");
    expectBitwiseEqual(ref.estimates(), sharded.estimates,
                       "estimate");
}

TEST(ShardProcessTest, TinyDatagramBudgetSplitsBatchesBitwise)
{
    // A 64-byte budget forces every round's cut traffic into many
    // partial batches (the fixed seq-0 part alone exceeds it, and
    // every follow-up batch carries a single record); parity must
    // survive the splits and the frame count must show them.
    const std::size_t n = 64, rounds = 30;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    const DibaAllocator::Config cfg{};

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Udp;
    opt.datagram_budget = 64;
    const auto split = runShardedDiba(prob, topo, cfg, opt);

    opt.datagram_budget = 1400;
    const auto whole = runShardedDiba(prob, topo, cfg, opt);
    EXPECT_GT(split.wire_frames, whole.wire_frames);

    const auto ref = referenceRun(prob, topo, cfg, rounds);
    expectBitwiseEqual(ref.power(), split.power, "power");
    expectBitwiseEqual(ref.estimates(), split.estimates,
                       "estimate");
}

TEST(ShardSparseTest, ActiveSetTwoShardUdpMatchesIterateBitwise)
{
    // The steady-state tentpole's central pin: a positive
    // active_threshold routes the sharded rounds through the
    // sparse transport round (delta-suppressed frames + the wake
    // channel), and the result must equal the single-process
    // active-set engine -- plain iterate() -- bit for bit, round
    // for round, including long-quiesced stretches.
    const std::size_t n = 96, rounds = 400;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    DibaAllocator::Config cfg;
    cfg.active_threshold = 0.25 * cfg.tolerance;
    // The uniform cold solve: the narrowing frontier is the regime
    // under test.
    cfg.seed_cold_start = false;

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Udp;
    const auto sharded = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(sharded.ok) << sharded.error;

    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    ASSERT_TRUE(ref.sparseEngineActive());
    for (std::size_t r = 0; r < rounds; ++r)
        ref.iterate();

    expectBitwiseEqual(ref.power(), sharded.power, "power");
    expectBitwiseEqual(ref.estimates(), sharded.estimates,
                       "estimate");
    // A quarter-tolerance threshold keeps a sub-tolerance residual
    // tail oscillating for thousands of rounds -- the demanding
    // parity regime -- so full suppression is not expected here
    // (see FullyQuiescedBoundaryShipsSuppressedFrames); but the
    // delta path and the wake channel must both have carried real
    // traffic while the frontier narrowed.
    EXPECT_GT(sharded.delta_frames, 0u);
    EXPECT_GT(sharded.wake_messages, 0u);
}

TEST(ShardSparseTest, FullyQuiescedBoundaryShipsSuppressedFrames)
{
    // At 4x tolerance the frontier fully drains (empirically round
    // ~1700 on this problem); from there every sparse round's cut
    // values are bit-identical, so every peer-round must collapse
    // to one suppressed seq-0 frame -- and the trajectory still
    // pins the single-process active-set engine bitwise.
    const std::size_t n = 96, rounds = 2000;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    DibaAllocator::Config cfg;
    cfg.active_threshold = 4.0 * cfg.tolerance;
    // The uniform cold solve: the frontier drains from all-hot.
    cfg.seed_cold_start = false;

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Udp;
    const auto sharded = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(sharded.ok) << sharded.error;

    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    for (std::size_t r = 0; r < rounds; ++r)
        ref.iterate();
    ASSERT_EQ(ref.frontierHotCount(), 0u)
        << "reference never quiesced: the suppression assertions "
           "below would be vacuous";

    expectBitwiseEqual(ref.power(), sharded.power, "power");
    expectBitwiseEqual(ref.estimates(), sharded.estimates,
                       "estimate");
    EXPECT_GT(sharded.suppressed_frames, 0u);
    EXPECT_GT(sharded.delta_frames, 0u);
    EXPECT_GT(sharded.wake_messages, 0u);
}

TEST(ShardSparseTest, ThresholdZeroKeepsTheDenseShardedPath)
{
    // Structural pin: active_threshold == 0 must leave the sharded
    // rounds on the dense transport path (the sparse round is
    // gated on a STRICTLY positive threshold), bitwise equal to
    // the dense loopback reference, with the wire's delta framing
    // applied to the dense rounds.
    const std::size_t n = 64, rounds = 40;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    DibaAllocator::Config cfg;
    cfg.active_threshold = 0.0;

    const auto ref = referenceRun(prob, topo, cfg, rounds);
    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Udp;
    const auto sharded = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    expectBitwiseEqual(ref.power(), sharded.power, "power");
    expectBitwiseEqual(ref.estimates(), sharded.estimates, "estimate");
}

TEST(ShardSparseTest, WarmStartedBudgetStepMatchesSingleProcess)
{
    // Warm-started sharded steps: every shard applies the same
    // warmStart(result(), delta) at the same round boundary; on a
    // quadratic cluster the re-seed is per-node static arithmetic,
    // so the sharded trajectory through converge -> step ->
    // reconverge must equal the single-process active-set run
    // given the identical warmStart at the identical round.
    const std::size_t n = 96, rounds = 400, step_round = 200;
    const auto prob = test::npbProblem(n, 170.0, 5);
    Rng topo_rng(9);
    const auto topo = makeChordalRing(n, 8, topo_rng);
    DibaAllocator::Config cfg;
    cfg.active_threshold = 0.25 * cfg.tolerance;
    const double delta = 0.2 * prob.budget;

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.proto = net::SocketTransport::Proto::Udp;
    opt.budget_steps.push_back({step_round, delta});
    const auto sharded = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(sharded.ok) << sharded.error;

    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    for (std::size_t r = 0; r < rounds; ++r) {
        if (r == step_round)
            ref.warmStart(ref.result(), delta);
        ref.iterate();
    }

    expectBitwiseEqual(ref.power(), sharded.power, "power");
    expectBitwiseEqual(ref.estimates(), sharded.estimates,
                       "estimate");
    EXPECT_GT(sharded.suppressed_frames, 0u);
}

TEST(ShardSparseTest, SparseTcpAndFourShardsStayBitwise)
{
    // The sparse transport round must not depend on the datagram
    // framing or the shard count: TCP streams and a 4-way split
    // pin the same single-process active-set trajectory.
    const std::size_t n = 96, rounds = 150;
    const auto prob = test::npbProblem(n, 170.0, 7);
    Rng topo_rng(3);
    const auto topo = makeChordalRing(n, 6, topo_rng);
    DibaAllocator::Config cfg;
    cfg.active_threshold = 0.25 * cfg.tolerance;

    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    for (std::size_t r = 0; r < rounds; ++r)
        ref.iterate();

    for (const auto proto : {net::SocketTransport::Proto::Tcp,
                             net::SocketTransport::Proto::Udp}) {
        ShardRunOptions opt;
        opt.num_shards =
            proto == net::SocketTransport::Proto::Tcp ? 2u : 4u;
        opt.rounds = rounds;
        opt.proto = proto;
        const auto sharded = runShardedDiba(prob, topo, cfg, opt);
        ASSERT_TRUE(sharded.ok) << sharded.error;
        expectBitwiseEqual(ref.power(), sharded.power, "power");
        expectBitwiseEqual(ref.estimates(), sharded.estimates,
                           "estimate");
    }
}

TEST(ShardProcessTest, LossyShardsMatchLossyLoopbackBitwise)
{
    // Fault-model parity: every shard draws its fates from a
    // SAME-SEED LossyChannel, so the replicas agree on every fate
    // with zero coordination -- and the whole sharded run stays
    // bitwise equal to the single-process lossy round with that
    // seed.
    const std::size_t n = 48, rounds = 30;
    const auto prob = test::npbProblem(n, 170.0, 11);
    Rng topo_rng(4);
    const auto topo = makeChordalRing(n, 6, topo_rng);
    const DibaAllocator::Config cfg{};

    LossyChannel::Config loss;
    loss.drop_rate = 0.15;
    loss.delay_rate = 0.1;
    loss.max_lag = 2;

    DibaAllocator ref(topo, cfg);
    ref.reset(prob);
    net::LoopbackTransport loopback;
    LossyChannel chan(loss, 99);
    for (std::size_t r = 0; r < rounds; ++r)
        ref.stepWithTransport(loopback, &chan);

    ShardRunOptions opt;
    opt.num_shards = 2;
    opt.rounds = rounds;
    opt.lossy = true;
    opt.loss = loss;
    opt.loss_seed = 99;
    const auto sharded = runShardedDiba(prob, topo, cfg, opt);
    ASSERT_TRUE(sharded.ok) << sharded.error;
    expectBitwiseEqual(ref.power(), sharded.power, "power");
    expectBitwiseEqual(ref.estimates(), sharded.estimates, "estimate");
}

TEST(ShardProcessDeathTest, RecoverRefusesLossy)
{
    // The one configuration the sharded runner still refuses: the
    // assert fires before any shard is forked.
    const std::size_t n = 16;
    const auto prob = test::npbProblem(n, 170.0, 11);
    const auto topo = makeRing(n);
    ShardRunOptions opt;
    opt.recover = true;
    opt.lossy = true;
    EXPECT_DEATH(runShardedDiba(prob, topo, DibaAllocator::Config{},
                                opt),
                 "recover requires !lossy");
}

} // namespace
} // namespace dpc
