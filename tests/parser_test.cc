#include <gtest/gtest.h>

#include <random>

#include "hlo/builder.h"
#include "hlo/parser.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "passes/async.h"
#include "passes/decompose.h"

namespace overlap {
namespace {

TEST(ParserTest, OpcodeNamesRoundTrip)
{
    for (int op = 0; op <= static_cast<int>(HloOpcode::kTuple); ++op) {
        HloOpcode opcode = static_cast<HloOpcode>(op);
        auto parsed = HloOpcodeFromName(HloOpcodeName(opcode));
        ASSERT_TRUE(parsed.ok()) << HloOpcodeName(opcode);
        EXPECT_EQ(parsed.value(), opcode);
    }
    EXPECT_FALSE(HloOpcodeFromName("frobnicate").ok());
}

TEST(ParserTest, ParsesHandWrittenModule)
{
    const char* text = R"(
module tiny mesh[4]
computation main {
  %x = f32[2,4] parameter(), index=0
  %w = f32[4,8] parameter(), index=1
  %g = f32[8,4] all-gather(%x), dim=0, groups={size=4,stride=1}
  ROOT %y = f32[8,8] einsum(%g, %w), spec=bf,fh->bh
}
)";
    auto module = ParseHloModule(text);
    ASSERT_TRUE(module.ok()) << module.status().ToString();
    EXPECT_EQ((*module)->name(), "tiny");
    ASSERT_TRUE((*module)->mesh().has_value());
    EXPECT_EQ((*module)->mesh()->num_devices(), 4);
    HloComputation* comp = (*module)->entry();
    EXPECT_EQ(comp->instruction_count(), 4);
    EXPECT_EQ(comp->root()->opcode(), HloOpcode::kEinsum);
    EXPECT_EQ(comp->root()->attrs().einsum_spec, "bf,fh->bh");
    EXPECT_EQ(comp->root()->operand(0)->attrs().groups,
              Mesh(4).AxisGroups(0));
}

TEST(ParserTest, RoundTripsBuilderModule)
{
    HloModule module("roundtrip");
    module.set_mesh(Mesh(2, 2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4, 8}), "acts");
    auto* w = b.Parameter(1, Shape(DType::kBF16, {8, 4}));
    auto* ag = b.AllGather(p, 0, Mesh(2, 2).AxisGroups(1));
    auto* e = b.Einsum(ag, w, "bf,fh->bh");
    auto* rs = b.ReduceScatter(e, 1, Mesh(2, 2).AxisGroups(0));
    auto* idx = b.Multiply(b.AxisIndex(0), b.ConstantIndex(2));
    auto* sliced = b.DynamicSliceOnDim(rs, 0, idx, 2);
    comp->set_root(b.Pad(sliced, {1, 0}, {0, 1}, -1.5f));

    std::string text = module.ToString();
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString()
                             << "\ntext was:\n"
                             << text;
    // Printing the parsed module reproduces the text exactly.
    EXPECT_EQ((*parsed)->ToString(), text);
}

TEST(ParserTest, RoundTripPreservesSemantics)
{
    HloModule module("sem");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 2}));
    auto* c = b.Constant(Tensor(Shape({2, 2}), {1, 2, 3, 4}));
    comp->set_root(b.Einsum(b.Add(p, c), c, "mk,kn->mn"));

    auto parsed = ParseHloModule(module.ToString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    SpmdEvaluator eval((Mesh(2)));
    Tensor input = Tensor::Random(Shape({2, 2}), 3);
    auto original = eval.Evaluate(*comp, {{input}});
    auto reparsed = eval.Evaluate(*(*parsed)->entry(), {{input}});
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(reparsed.ok());
    for (int d = 0; d < 2; ++d) {
        EXPECT_TRUE((*reparsed)[d].AllClose((*original)[d], 1e-5f));
    }
}

TEST(ParserTest, RoundTripsDecomposedLoop)
{
    // The acid test: a full unrolled CollectiveEinsum loop with async
    // permutes, fusion groups, loop groups and index arithmetic.
    HloModule module("loop");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {8, 16}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {16, 8}));
    auto* ag = b.AllGather(p, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    ASSERT_TRUE(decomposer.Run(comp).ok());
    ASSERT_TRUE(CreateAsyncCollectivePermutes(comp).ok());

    std::string text = module.ToString();
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
    EXPECT_TRUE(VerifyModule(**parsed).ok());
}

TEST(ParserTest, RoundTripsDecomposedAllToAllLoop)
{
    // The §18 form: a ring-decomposed MoE dispatch whose chunk permutes
    // carry `chunk=` attributes (which peer offset each exchange
    // serves), then the async split's channel ids on top.
    HloModule module("a2a_loop");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* tokens = b.Parameter(0, Shape(DType::kBF16, {8, 16}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {16, 8}));
    auto* a2a = b.AllToAll(tokens, 0, mesh.AxisGroups(0));
    comp->set_root(b.Einsum(a2a, w, "td,dh->th"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->all_to_all_sites, 1);
    ASSERT_TRUE(CreateAsyncCollectivePermutes(comp).ok());

    std::string text = module.ToString();
    EXPECT_NE(text.find("chunk="), std::string::npos) << text;
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
    EXPECT_TRUE(VerifyModule(**parsed).ok());
}

TEST(ParserTest, RoundTripsAsyncAllToAllPair)
{
    // The §18 micro-batch pipelined form: a blocking exchange split
    // into an AllToAllStart/Done pair sharing a channel.
    HloModule module("a2a_async");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {8, 16}));
    auto* start = b.AllToAllStart(p, 0, mesh.AxisGroups(0));
    start->UpdateAttrs([&](InstrAttrs& a) {
        a.channel_id = comp->NextChannelId();
    });
    auto* done = b.AllToAllDone(start);
    comp->set_root(done);
    ASSERT_TRUE(VerifyModule(module).ok());

    std::string text = module.ToString();
    EXPECT_NE(text.find("all-to-all-start"), std::string::npos) << text;
    EXPECT_NE(text.find("all-to-all-done"), std::string::npos) << text;
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
    EXPECT_TRUE(VerifyModule(**parsed).ok());
}

TEST(ParserTest, RoundTripsChannelIds)
{
    HloModule module("chan");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 4}));
    auto* start = b.CollectivePermuteStart(p, mesh.RingShift(0, 1));
    auto* done = b.CollectivePermuteDone(start);
    start->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = 7; });
    done->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = 7; });
    auto* ag = b.AllGather(done, 0, mesh.AxisGroups(0));
    ag->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = 8; });
    comp->set_root(ag);

    std::string text = module.ToString();
    EXPECT_NE(text.find("channel=7"), std::string::npos);
    EXPECT_NE(text.find("channel=8"), std::string::npos);
    auto parsed = ParseHloModule(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
}

TEST(ParserTest, VerifierRejectsMismatchedStartDoneChannels)
{
    HloModule module("chan");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* start = b.CollectivePermuteStart(p, mesh.RingShift(0, 1));
    auto* done = b.CollectivePermuteDone(start);
    start->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = 3; });
    done->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = 4; });
    comp->set_root(done);
    EXPECT_FALSE(VerifyModule(module).ok());
    done->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = 3; });
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(ParserTest, FuzzRoundTripsCollectiveAttributes)
{
    // Randomized modules exercising every attribute the difftest repro
    // files can emit — group descriptors along either mesh axis, ring
    // shifts of either sign, channel ids, dims — must print/parse/print
    // to the identical text.
    std::mt19937_64 rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
        int64_t n = 2 + static_cast<int64_t>(rng() % 4);  // ring 2-5
        Mesh mesh = rng() % 2 == 0 ? Mesh(n) : Mesh(2, n);
        // The all-to-all cases need the size-n axis; the rest roam.
        const int64_t last = mesh.num_axes() - 1;
        HloModule module("fuzz");
        module.set_mesh(mesh);
        HloComputation* comp = module.AddEntryComputation("main");
        HloBuilder b(comp);
        auto* p = b.Parameter(0, Shape({2, n}));
        HloInstruction* value = p;
        int64_t ops = 1 + static_cast<int64_t>(rng() % 4);
        for (int64_t i = 0; i < ops; ++i) {
            const int64_t axis =
                static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                                  mesh.num_axes()));
            const int64_t size = mesh.axis_size(axis);
            switch (rng() % 9) {
              case 0: {
                  auto* ag = b.AllGather(value, 0, mesh.AxisGroups(axis));
                  if (rng() % 2 == 0) {
                      ag->UpdateAttrs([&](InstrAttrs& a) {
                          a.channel_id = static_cast<int64_t>(rng() % 100);
                      });
                  }
                  // Keep shapes stable: scatter straight back.
                  value = b.ReduceScatter(ag, 0, mesh.AxisGroups(axis));
                  break;
              }
              case 1: {
                  int64_t step =
                      1 + static_cast<int64_t>(rng() % (size - 1));
                  value = b.CollectivePermute(
                      value, mesh.RingShift(axis, step));
                  if (rng() % 2 == 0) {
                      value->UpdateAttrs([&](InstrAttrs& a) {
                          a.channel_id = static_cast<int64_t>(rng() % 100);
                      });
                  }
                  break;
              }
              case 2: {
                  int64_t step =
                      1 + static_cast<int64_t>(rng() % (size - 1));
                  auto* start = b.CollectivePermuteStart(
                      value, mesh.RingShift(axis, step));
                  auto* done = b.CollectivePermuteDone(start);
                  int64_t channel = static_cast<int64_t>(rng() % 100);
                  start->UpdateAttrs([&](InstrAttrs& a) {
                      a.channel_id = channel;
                  });
                  done->UpdateAttrs([&](InstrAttrs& a) {
                      a.channel_id = channel;
                  });
                  value = done;
                  break;
              }
              case 3: {
                  auto* ar = b.AllReduce(value, mesh.AxisGroups(axis));
                  if (rng() % 2 == 0) {
                      ar->UpdateAttrs([&](InstrAttrs& a) {
                          a.channel_id = static_cast<int64_t>(rng() % 100);
                      });
                  }
                  value = ar;
                  break;
              }
              case 4: {
                  // Blocking MoE exchange (§18); dim 1 has extent n, so
                  // the per-peer chunks always split evenly.
                  auto* a2a = b.AllToAll(value, 1, mesh.AxisGroups(last));
                  if (rng() % 2 == 0) {
                      a2a->UpdateAttrs([&](InstrAttrs& a) {
                          a.channel_id = static_cast<int64_t>(rng() % 100);
                      });
                  }
                  value = a2a;
                  break;
              }
              case 5: {
                  auto* start = b.AllToAllStart(value, 1,
                                                mesh.AxisGroups(last));
                  auto* done = b.AllToAllDone(start);
                  int64_t channel = static_cast<int64_t>(rng() % 100);
                  start->UpdateAttrs([&](InstrAttrs& a) {
                      a.channel_id = channel;
                  });
                  done->UpdateAttrs([&](InstrAttrs& a) {
                      a.channel_id = channel;
                  });
                  value = done;
                  break;
              }
              case 6: {
                  // A §18 ring-loop chunk permute: step-k shift tagged
                  // with the peer offset it serves.
                  int64_t k = 1 + static_cast<int64_t>(rng() % (n - 1));
                  value = b.CollectivePermute(
                      value, mesh.RingShift(last, k));
                  value->UpdateAttrs([&](InstrAttrs& a) { a.a2a_chunk = k; });
                  break;
              }
              case 7: {
                  // A hand-set shift outside [1, size): negative or
                  // beyond one lap, as text may carry it.
                  DeviceGroups ring = mesh.AxisGroups(axis);
                  ring.shift = (rng() % 2 == 0 ? -1 : 1) *
                               (1 + static_cast<int64_t>(
                                        rng() % static_cast<uint64_t>(
                                                    3 * size)));
                  if (ring.shift % size == 0) ring.shift += 1;
                  value = b.CollectivePermute(value, ring);
                  break;
              }
              case 8:
                  // Whole-mesh groups: a valid descriptor along no
                  // single axis of a 2-D mesh.
                  value = b.AllReduce(
                      value, DeviceGroups{.size = mesh.num_devices(),
                                          .stride = 1});
                  break;
              default:
                  value = b.Negate(value);
                  break;
            }
        }
        comp->set_root(value);
        ASSERT_TRUE(VerifyModule(module).ok()) << module.ToString();

        std::string text = module.ToString();
        auto parsed = ParseHloModule(text);
        ASSERT_TRUE(parsed.ok())
            << parsed.status().ToString() << "\ntext was:\n" << text;
        EXPECT_EQ((*parsed)->ToString(), text) << "trial " << trial;
        // Channel bookkeeping survives the trip.
        EXPECT_EQ((*parsed)->entry()->NextChannelId(),
                  comp->NextChannelId());
    }
}

TEST(ParserTest, RejectsMalformedInput)
{
    EXPECT_FALSE(ParseHloModule("nonsense").ok());
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n").ok());
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n"
                                "  %a = f32[2] negate(%missing)\n}\n")
                     .ok());
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n"
                                "  %a = f32[2] frobnicate()\n}\n")
                     .ok());
    // Shape mismatch caught by the verifier.
    EXPECT_FALSE(ParseHloModule("module m\ncomputation c {\n"
                                "  %a = f32[2] parameter(), index=0\n"
                                "  ROOT %b = f32[3] negate(%a)\n}\n")
                     .ok());
}

/** Parses a mesh[4] module around one instruction line. */
Status
ParseOneInstruction(const std::string& line)
{
    return ParseHloModule("module m mesh[4]\ncomputation c {\n"
                          "  %x = f32[8,4] parameter(), index=0\n  " +
                          line + "\n}\n")
        .status();
}

TEST(ParserTest, RejectsMalformedIntegers)
{
    // Each of these used to parse a prefix ("2x" as 2, "abc" as 0) and
    // then pass the verifier.
    EXPECT_TRUE(ParseOneInstruction("ROOT %g = f32[8,4] all-gather(%x), "
                                    "dim=0, groups={size=1,stride=1}")
                    .ok());
    EXPECT_FALSE(ParseOneInstruction("ROOT %g = f32[8,4] all-gather(%x), "
                                     "dim=abc, groups={size=1,stride=1}")
                     .ok());
    EXPECT_FALSE(ParseOneInstruction("ROOT %g = f32[8,4] all-gather(%x), "
                                     "dim=0, groups={size=2x,stride=1}")
                     .ok());
    EXPECT_FALSE(ParseOneInstruction("ROOT %g = f32[8,4] all-gather(%x), "
                                     "dim=0, groups={size=1,stride=}")
                     .ok());
    EXPECT_FALSE(ParseOneInstruction("ROOT %p = f32[2] parameter(), "
                                     "index=0junk")
                     .ok());
    EXPECT_FALSE(ParseOneInstruction("ROOT %s = f32[2,4] slice(%x), "
                                     "starts={0,0}, sizes={2x,4}")
                     .ok());
    EXPECT_FALSE(ParseOneInstruction("ROOT %n = f32[8,4x] negate(%x)")
                     .ok());
    EXPECT_FALSE(ParseHloModule("module m mesh[4x]\ncomputation c {\n"
                                "  ROOT %x = f32[2] parameter(), "
                                "index=0\n}\n")
                     .ok());
}

TEST(ParserTest, RejectsMalformedGroupDescriptors)
{
    const std::string ag = "ROOT %g = f32[16,4] all-gather(%x), dim=0, ";
    const std::string cp = "ROOT %p = f32[8,4] collective-permute(%x), ";
    EXPECT_TRUE(ParseOneInstruction(ag + "groups={size=2,stride=2}").ok());
    EXPECT_TRUE(
        ParseOneInstruction(cp + "groups={size=4,stride=1,shift=-1}").ok());
    // Every malformed descriptor is a Status, never an abort.
    for (const std::string& bad : {
             ag + "groups={size=0,stride=1}",
             ag + "groups={size=2,stride=0}",
             ag + "groups={size=2,stride=-2}",
             ag + "groups={size=2,stride=3}",          // 6 does not divide 4
             ag + "groups={size=2,stride=1,shift=1}",  // shift off a permute
             ag + "groups={size=2,stride=1,ring=1}",   // unknown field
             ag + "groups={0,1,2,3}",                  // explicit devices
             ag + "groups={size=2,stride=1}{size=2,stride=1}",
             cp + "groups={size=4,stride=1}",           // no shift
             cp + "groups={size=4,stride=1,shift=8}",   // identity shift
             cp + "groups={size=8,stride=1,shift=1}",   // beyond the mesh
             cp + "pairs={0,1}{1,2}{2,3}{3,0}",         // explicit pairs
         }) {
        Status status;
        EXPECT_NO_THROW(status = ParseOneInstruction(bad));
        EXPECT_FALSE(status.ok()) << bad;
    }
}

}  // namespace
}  // namespace overlap
