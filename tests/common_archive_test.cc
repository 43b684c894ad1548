/**
 * @file
 * Tests for common/archive.h's write side.
 *
 * `Archive` hashes on demand: writes only append bytes, and digest()
 * folds in whatever was written since its last call. These tests pin
 * the contract that makes that safe to rely on:
 *
 *   - digest() is byte-for-byte FNV-1a 64 of bytes(), however the
 *     writes and digest() calls interleave;
 *   - Append()ing per-part archives yields the same bytes and digest as
 *     writing the fields into one archive directly (the parallel
 *     checkpoint merge rests on this);
 *   - a moved-from archive, and one whose bytes were taken, is empty
 *     and behaves exactly like a freshly constructed one.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/archive.h"
#include "common/rng.h"

namespace dynamo {
namespace {

/** Write one random field (of a random kind) into `ar`. */
void WriteRandomField(Rng& rng, Archive& ar)
{
    switch (rng.NextU64() % 7) {
      case 0: ar.U8(static_cast<std::uint8_t>(rng.NextU64())); break;
      case 1: ar.U32(static_cast<std::uint32_t>(rng.NextU64())); break;
      case 2: ar.U64(rng.NextU64()); break;
      case 3: ar.I64(static_cast<std::int64_t>(rng.NextU64())); break;
      case 4: ar.Bool(rng.NextU64() % 2 == 0); break;
      case 5: ar.F64(static_cast<double>(rng.NextU64() % 100000) / 7.0); break;
      default: {
          std::string s(rng.NextU64() % 40, '\0');
          for (char& c : s) c = static_cast<char>(rng.NextU64() & 0xff);
          ar.Str(s);
          break;
      }
    }
}

TEST(Archive, EmptyDigestIsTheFnvOffsetBasis)
{
    const Archive ar;
    EXPECT_EQ(ar.size(), 0u);
    EXPECT_EQ(ar.digest(), kFnvOffset);
    EXPECT_EQ(ar.digest(), Fnv1a64(""));
}

TEST(Archive, DigestIsFnvOfBytesForRandomFieldSequences)
{
    Rng rng = Rng::ForStream(2026, "archive-digest");
    for (int round = 0; round < 200; ++round) {
        Archive ar;
        const int fields = static_cast<int>(rng.NextU64() % 64);
        for (int f = 0; f < fields; ++f) WriteRandomField(rng, ar);
        SCOPED_TRACE("round " + std::to_string(round));
        EXPECT_EQ(ar.digest(), Fnv1a64(ar.bytes()));
        // Asking again hashes nothing new and gives the same value.
        EXPECT_EQ(ar.digest(), Fnv1a64(ar.bytes()));
    }
}

TEST(Archive, DigestMidStreamThenMoreWritesStaysExact)
{
    Rng rng = Rng::ForStream(2026, "archive-digest-midstream");
    for (int round = 0; round < 200; ++round) {
        Archive ar;
        const int fields = 1 + static_cast<int>(rng.NextU64() % 64);
        for (int f = 0; f < fields; ++f) {
            WriteRandomField(rng, ar);
            if (rng.NextU64() % 3 == 0) {
                ASSERT_EQ(ar.digest(), Fnv1a64(ar.bytes()))
                    << "round " << round << ", field " << f;
            }
        }
        EXPECT_EQ(ar.digest(), Fnv1a64(ar.bytes())) << "round " << round;
    }
}

TEST(Archive, ExtendChainsLikeOneHashOfTheConcatenation)
{
    const std::string a = "sharded-fleet-";
    const std::string b = "checkpoint";
    EXPECT_EQ(Fnv1a64Extend(Fnv1a64(a), b), Fnv1a64(a + b));
    EXPECT_EQ(Fnv1a64Extend(kFnvOffset, ""), kFnvOffset);
}

TEST(Archive, AppendOfPartsEqualsDirectWrites)
{
    Rng rng = Rng::ForStream(2026, "archive-append");
    for (int round = 0; round < 50; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        // Draw each part's fields once, replaying the same draws into
        // the direct archive and into the per-part archive.
        const std::uint64_t seed = rng.NextU64();
        const int parts = 1 + static_cast<int>(rng.NextU64() % 6);

        Archive direct;
        direct.Str("header");
        Rng direct_rng(seed);
        for (int p = 0; p < parts; ++p) {
            for (int f = 0; f < 10 + p; ++f) WriteRandomField(direct_rng, direct);
        }

        Archive merged;
        merged.Str("header");
        // A digest taken before the merge must not disturb it.
        if (round % 2 == 0) (void)merged.digest();
        Rng part_rng(seed);
        std::vector<Archive> pieces(static_cast<std::size_t>(parts));
        for (int p = 0; p < parts; ++p) {
            for (int f = 0; f < 10 + p; ++f) {
                WriteRandomField(part_rng, pieces[static_cast<std::size_t>(p)]);
            }
        }
        // Some parts have been hashed on their own; that must not leak
        // into the merged digest either.
        if (round % 3 == 0) (void)pieces.front().digest();
        std::size_t total = merged.size();
        for (const Archive& piece : pieces) total += piece.size();
        merged.Reserve(total);
        for (const Archive& piece : pieces) merged.Append(piece);

        EXPECT_EQ(merged.bytes(), direct.bytes());
        EXPECT_EQ(merged.size(), total);
        EXPECT_EQ(merged.digest(), direct.digest());
        EXPECT_EQ(merged.digest(), Fnv1a64(merged.bytes()));
    }
}

TEST(Archive, TakeBytesMovesOutAndLeavesAFreshArchive)
{
    Archive ar;
    ar.Str("checkpoint");
    ar.U64(42);
    const std::string expected = ar.bytes();
    const std::uint64_t digest = ar.digest();

    const std::string taken = ar.TakeBytes();
    EXPECT_EQ(taken, expected);
    EXPECT_EQ(Fnv1a64(taken), digest);

    // Empty, as if freshly constructed...
    EXPECT_EQ(ar.size(), 0u);
    EXPECT_TRUE(ar.bytes().empty());
    EXPECT_EQ(ar.digest(), kFnvOffset);

    // ...and reusable: new writes hash from the offset basis.
    Archive fresh;
    ar.U32(7);
    fresh.U32(7);
    EXPECT_EQ(ar.bytes(), fresh.bytes());
    EXPECT_EQ(ar.digest(), fresh.digest());
}

TEST(Archive, TakeBytesBeforeAnyDigestStillLeavesItFresh)
{
    Archive ar;
    ar.U64(1);
    (void)ar.digest();
    ar.U64(2);  // written after the last digest: not yet hashed
    EXPECT_EQ(ar.TakeBytes().size(), 16u);
    EXPECT_EQ(ar.digest(), kFnvOffset);
}

TEST(Archive, MovedFromArchiveIsEmptyAndTargetKeepsState)
{
    Archive source;
    source.Str("part");
    (void)source.digest();  // half the state hashed...
    source.F64(1.5);        // ...half not
    const std::string bytes = source.bytes();

    Archive target(std::move(source));
    EXPECT_EQ(target.bytes(), bytes);
    EXPECT_EQ(target.digest(), Fnv1a64(bytes));
    EXPECT_EQ(source.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.digest(), kFnvOffset);

    Archive assigned;
    assigned.U8(9);
    assigned = std::move(target);
    EXPECT_EQ(assigned.bytes(), bytes);
    EXPECT_EQ(assigned.digest(), Fnv1a64(bytes));
    EXPECT_EQ(target.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(target.digest(), kFnvOffset);

    // A moved-from archive writes like a fresh one.
    source.U8(3);
    EXPECT_EQ(source.digest(), Fnv1a64(std::string(1, '\3')));
}

TEST(Archive, CopyCarriesBytesAndDigestState)
{
    Archive ar;
    ar.Str("x");
    (void)ar.digest();
    ar.U32(5);
    Archive copy = ar;
    copy.U8(1);
    ar.U8(1);
    EXPECT_EQ(copy.bytes(), ar.bytes());
    EXPECT_EQ(copy.digest(), ar.digest());
    EXPECT_EQ(copy.digest(), Fnv1a64(copy.bytes()));
}

}  // namespace
}  // namespace dynamo
