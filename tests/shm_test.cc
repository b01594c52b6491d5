#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/shm/astack.h"
#include "src/shm/segment.h"
#include "src/sim/machine.h"

namespace lrpc {
namespace {

constexpr DomainId kClient = 1;
constexpr DomainId kServer = 2;
constexpr DomainId kThirdParty = 3;

// --- SharedSegment: the pair-wise protection story of Section 3.5. ---

TEST(SegmentTest, PairWiseMappingGrantsAccess) {
  SharedSegment seg(128);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.GrantMapping(kServer, MapRights::kReadWrite);

  const std::uint32_t value = 0xdeadbeef;
  ASSERT_TRUE(seg.WriteValue(kClient, 0, value).ok());
  std::uint32_t readback = 0;
  ASSERT_TRUE(seg.ReadValue(kServer, 0, &readback).ok());
  EXPECT_EQ(readback, value);
}

TEST(SegmentTest, ThirdPartyDomainIsLockedOut) {
  SharedSegment seg(128);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.GrantMapping(kServer, MapRights::kReadWrite);

  std::uint8_t buf[4] = {};
  EXPECT_EQ(seg.Read(kThirdParty, 0, buf, 4).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(seg.Write(kThirdParty, 0, buf, 4).code(),
            ErrorCode::kPermissionDenied);
}

TEST(SegmentTest, ReadOnlyMappingRejectsWrites) {
  SharedSegment seg(64);
  seg.GrantMapping(kClient, MapRights::kRead);
  std::uint8_t b = 1;
  EXPECT_EQ(seg.Write(kClient, 0, &b, 1).code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(seg.Read(kClient, 0, &b, 1).ok());
}

TEST(SegmentTest, RevokeMappingCutsOffAccess) {
  SharedSegment seg(64);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.RevokeMapping(kClient);
  std::uint8_t b = 0;
  EXPECT_EQ(seg.Read(kClient, 0, &b, 1).code(), ErrorCode::kPermissionDenied);
}

TEST(SegmentTest, BoundsChecked) {
  SharedSegment seg(16);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  std::uint8_t buf[8] = {};
  EXPECT_EQ(seg.Write(kClient, 12, buf, 8).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(seg.Read(kClient, 17, buf, 1).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(seg.Write(kClient, 8, buf, 8).ok());
}

TEST(SegmentTest, SharedBytesAreReallyShared) {
  // A write by the client is immediately visible to the server: the
  // asynchronous-change hazard the paper accepts for mutable parameters.
  SharedSegment seg(32);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.GrantMapping(kServer, MapRights::kReadWrite);
  std::uint32_t v = 1;
  ASSERT_TRUE(seg.WriteValue(kClient, 0, v).ok());
  v = 2;
  ASSERT_TRUE(seg.WriteValue(kClient, 0, v).ok());  // Mid-call mutation.
  std::uint32_t seen = 0;
  ASSERT_TRUE(seg.ReadValue(kServer, 0, &seen).ok());
  EXPECT_EQ(seen, 2u);
}

// --- AStackRegion ---

// --- AStackArena: regions carved from memory the caller provides. ---

TEST(AStackArenaTest, CarvesUntilFullAndNeverOverlaps) {
  std::vector<std::uint8_t> memory(4096);
  AStackArena arena(memory, /*max_astack_size=*/1024);
  EXPECT_TRUE(arena.Hosts(1024));
  EXPECT_FALSE(arena.Hosts(1025));
  std::vector<std::unique_ptr<AStackRegion>> regions;
  for (int i = 0; i < 4; ++i) {
    regions.push_back(
        AStackRegion::InArena(arena, kClient, kServer, 512, 2, false));
    ASSERT_NE(regions.back(), nullptr) << i;
    EXPECT_EQ(regions.back()->arena(), &arena);
    const std::uint8_t* data = regions.back()->segment().DataUnchecked();
    EXPECT_GE(data, memory.data());
    EXPECT_LE(data + 1024, memory.data() + memory.size());
  }
  // Full: the region is refused outright, not placed anywhere else.
  EXPECT_EQ(AStackRegion::InArena(arena, kClient, kServer, 64, 1, false),
            nullptr);
  // The four regions tile the arena without overlapping.
  ASSERT_TRUE(regions[0]->segment().Write(kClient, 0, "a", 1).ok());
  ASSERT_TRUE(regions[1]->segment().Write(kClient, 1023, "b", 1).ok());
  EXPECT_EQ(regions[1]->segment().DataUnchecked() -
                regions[0]->segment().DataUnchecked(),
            1024);
}

TEST(AStackArenaTest, FreedRegionsCoalesceBackIntoOneRun) {
  std::vector<std::uint8_t> memory(4096);
  AStackArena arena(memory, 4096);
  auto a = AStackRegion::InArena(arena, kClient, kServer, 1024, 1, false);
  auto b = AStackRegion::InArena(arena, kClient, kServer, 1024, 1, false);
  auto c = AStackRegion::InArena(arena, kClient, kServer, 1024, 1, false);
  auto d = AStackRegion::InArena(arena, kClient, kServer, 1024, 1, false);
  ASSERT_NE(d, nullptr);
  // Give back the two in the middle, in either order: one 2 KB run.
  c.reset();
  b.reset();
  auto middle = AStackRegion::InArena(arena, kClient, kServer, 2048, 1, false);
  ASSERT_NE(middle, nullptr);
  EXPECT_EQ(middle->segment().DataUnchecked(), memory.data() + 1024);
  // Everything back: the whole arena is one run again.
  a.reset();
  middle.reset();
  d.reset();
  EXPECT_NE(AStackRegion::InArena(arena, kClient, kServer, 4096, 1, false),
            nullptr);
}

TEST(AStackArenaTest, RegionsKeepTheirBytesWhenTheArenaGoes) {
  std::vector<std::uint8_t> memory(1024);
  auto arena = std::make_unique<AStackArena>(memory, 1024);
  auto region = AStackRegion::InArena(*arena, kClient, kServer, 256, 2, false);
  ASSERT_NE(region, nullptr);
  const std::uint32_t result = 0xfeedface;
  ASSERT_TRUE(region->segment().WriteValue(kServer, 256, result).ok());

  arena.reset();
  std::fill(memory.begin(), memory.end(), 0);  // The arena's memory is gone.
  EXPECT_EQ(region->arena(), nullptr);
  std::uint32_t read = 0;
  ASSERT_TRUE(region->segment().ReadValue(kClient, 256, &read).ok());
  EXPECT_EQ(read, result);
  EXPECT_TRUE(region->segment().Write(kClient, 0, &read, sizeof(read)).ok());
}

TEST(AStackRegionTest, PairWiseMappingIsAutomatic) {
  AStackRegion region(kClient, kServer, 256, 5, /*secondary=*/false);
  EXPECT_TRUE(region.segment().CanWrite(kClient));
  EXPECT_TRUE(region.segment().CanWrite(kServer));
  EXPECT_FALSE(region.segment().CanRead(kThirdParty));
}

TEST(AStackRegionTest, ValidateOffsetAcceptsBases) {
  AStackRegion region(kClient, kServer, 256, 5, false);
  for (int i = 0; i < 5; ++i) {
    Result<int> idx = region.ValidateOffset(region.OffsetOf(i));
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, i);
  }
}

TEST(AStackRegionTest, ValidateOffsetRejectsMisaligned) {
  AStackRegion region(kClient, kServer, 256, 5, false);
  EXPECT_EQ(region.ValidateOffset(100).code(), ErrorCode::kInvalidAStack);
}

TEST(AStackRegionTest, ValidateOffsetRejectsOutOfRange) {
  AStackRegion region(kClient, kServer, 256, 5, false);
  EXPECT_EQ(region.ValidateOffset(256 * 5).code(), ErrorCode::kInvalidAStack);
  EXPECT_EQ(region.ValidateOffset(256 * 7).code(), ErrorCode::kInvalidAStack);
}

TEST(AStackRegionTest, LinkageLocatableFromAStack) {
  AStackRegion region(kClient, kServer, 128, 3, false);
  region.linkage(1).caller_thread = 42;
  AStackRef ref{&region, 1};
  EXPECT_EQ(ref.linkage().caller_thread, 42);
}

TEST(AStackRegionTest, InvalidateAllLinkages) {
  AStackRegion region(kClient, kServer, 128, 3, false);
  region.InvalidateAllLinkages();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(region.linkage(i).valid);
  }
}

TEST(AStackRegionTest, EStackAssociationPersists) {
  AStackRegion region(kClient, kServer, 128, 2, false);
  EXPECT_EQ(region.estack_of(0), -1);
  region.set_estack(0, 7);
  EXPECT_EQ(region.estack_of(0), 7);
}

// --- AStackQueue ---

class AStackQueueTest : public ::testing::Test {
 protected:
  AStackQueueTest()
      : machine_(MachineModel::CVaxFirefly(), 1),
        region_(kClient, kServer, 128, 5, false),
        queue_("test") {}

  Machine machine_;
  AStackRegion region_;
  AStackQueue queue_;
};

TEST_F(AStackQueueTest, LifoOrder) {
  Processor& cpu = machine_.processor(0);
  queue_.Push(cpu, {&region_, 0});
  queue_.Push(cpu, {&region_, 1});
  queue_.Push(cpu, {&region_, 2});
  // "The stub manages the A-stacks ... as a LIFO queue" (Section 3.2):
  // the most recently pushed comes back first (it is the one whose E-stack
  // association and cache lines are warm).
  EXPECT_EQ(queue_.Pop(cpu)->index, 2);
  EXPECT_EQ(queue_.Pop(cpu)->index, 1);
  EXPECT_EQ(queue_.Pop(cpu)->index, 0);
}

TEST_F(AStackQueueTest, EmptyPopReportsExhaustion) {
  Processor& cpu = machine_.processor(0);
  EXPECT_EQ(queue_.Pop(cpu).code(), ErrorCode::kAStacksExhausted);
}

TEST_F(AStackQueueTest, HeldChargeDefinesLockHoldTime) {
  Processor& cpu = machine_.processor(0);
  queue_.Push(cpu, {&region_, 0}, Micros(1.5));
  ASSERT_TRUE(queue_.Pop(cpu, Micros(1.5)).ok());
  EXPECT_EQ(queue_.lock().total_hold(), Micros(3));
}

}  // namespace
}  // namespace lrpc
