// Unit tests for src/util: bits, hash, rng, stats, cli, table.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/bits.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace ft::util {
namespace {

// --- bits ---------------------------------------------------------------------

TEST(Bits, F64RoundTrip) {
  for (const double v : {0.0, 1.0, -1.5, 3.141592653589793, 1e300, -1e-300}) {
    EXPECT_EQ(bits_to_f64(f64_to_bits(v)), v);
  }
}

TEST(Bits, F32RoundTrip) {
  for (const float v : {0.0f, 1.0f, -2.5f, 3.14f}) {
    EXPECT_EQ(bits_to_f32(f32_to_bits(v)), v);
  }
}

TEST(Bits, FlipBitChangesExactlyOneBit) {
  const std::uint64_t v = 0xDEADBEEFCAFEF00Dull;
  for (unsigned b = 0; b < 64; ++b) {
    const auto flipped = flip_bit(v, b);
    EXPECT_TRUE(differs_by_one_bit(v, flipped));
    EXPECT_EQ(flip_bit(flipped, b), v);  // involution
  }
}

TEST(Bits, TruncateTo) {
  EXPECT_EQ(truncate_to(0xFFFFFFFFFFFFFFFFull, 32), 0xFFFFFFFFull);
  EXPECT_EQ(truncate_to(0x1234ull, 64), 0x1234ull);
  EXPECT_EQ(truncate_to(0xFFull, 1), 1ull);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0x80000000ull, 32), -2147483648ll);
  EXPECT_EQ(sign_extend(0x7FFFFFFFull, 32), 2147483647ll);
  EXPECT_EQ(sign_extend(0x1ull, 1), -1ll);
  EXPECT_EQ(sign_extend(0x0ull, 1), 0ll);
}

// --- hash ---------------------------------------------------------------------

TEST(Hash64, MatchesPublishedFnv1aVectors) {
  // Reference vectors from the FNV spec (64-bit FNV-1a over raw bytes).
  EXPECT_EQ(Hash64{}.digest(), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash_bytes("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash_bytes("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hash_bytes("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Hash64, StreamingEqualsOneShot) {
  const char text[] = "foobar";
  Hash64 h;
  for (const char c : {'f', 'o', 'o', 'b', 'a', 'r'}) {
    h.byte(static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(h.digest(), hash_bytes(text, 6));
  Hash64 split;
  split.bytes(text, 3).bytes(text + 3, 3);
  EXPECT_EQ(split.digest(), hash_bytes(text, 6));
}

TEST(Hash64, IntegersArePinnedLittleEndianFirst) {
  // A multi-byte integer must hash exactly like its LSB-first byte
  // sequence, on every host — the stability contract of the store keys.
  const std::uint8_t le_bytes[] = {0xEF, 0xBE, 0xAD, 0xDE};
  EXPECT_EQ(Hash64{}.u32(0xDEADBEEFu).digest(),
            hash_bytes(le_bytes, sizeof(le_bytes)));
  const std::uint8_t le64[] = {1, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(Hash64{}.u64(1).digest(), hash_bytes(le64, sizeof(le64)));
  EXPECT_NE(Hash64{}.u32(1).digest(), Hash64{}.u64(1).digest());
}

TEST(Hash64, FloatsHashTheirBitPattern) {
  EXPECT_EQ(Hash64{}.f64(1.5).digest(),
            Hash64{}.u64(f64_to_bits(1.5)).digest());
  EXPECT_NE(Hash64{}.f64(0.0).digest(), Hash64{}.f64(-0.0).digest());
}

TEST(Hash64, LengthPrefixPreventsConcatenationCollisions) {
  EXPECT_NE(Hash64{}.str("ab").str("c").digest(),
            Hash64{}.str("a").str("bc").digest());
  EXPECT_NE(Hash64{}.str("").str("x").digest(),
            Hash64{}.str("x").str("").digest());
}

TEST(Hash64, DomainTagsSeparateStreams) {
  EXPECT_NE(Hash64("ft.key.trace.v1").u64(7).digest(),
            Hash64("ft.key.golden.v1").u64(7).digest());
  // A tagged stream equals hashing the tag first, then the input.
  EXPECT_EQ(Hash64("tag").u64(7).digest(),
            Hash64{}.str("tag").u64(7).digest());
  // The section-summary domains must be mutually distinct — a summary blob
  // key may never collide with a window or entry-state digest built from
  // the same words.
  EXPECT_NE(Hash64("ft.section.v1").u64(7).digest(),
            Hash64("ft.section.window.v1").u64(7).digest());
  EXPECT_NE(Hash64("ft.section.v1").u64(7).digest(),
            Hash64("ft.key.summary.v1").u64(7).digest());
}

TEST(Hash64, CountPrefixSeparatesAdjacentLists) {
  // Two (count, items...) encodings whose flattened words agree but whose
  // split differs must hash apart — the framing hash_section and the
  // window digests rely on to keep adjacent variable-length lists from
  // colliding.
  EXPECT_NE(Hash64{}.u64(2).u32(1).u32(2).u64(1).u32(3).digest(),
            Hash64{}.u64(1).u32(1).u64(2).u32(2).u32(3).digest());
}

// --- rng ----------------------------------------------------------------------

TEST(HashWords, EveryByteAndTheLengthCount) {
  // The store's column checksum: a flip of any single bit of a buffer
  // whose length is not a multiple of the 32-byte stride (so the 8-byte
  // and zero-padded tail paths run too) changes the digest, and so does
  // the length alone (a trailing zero byte).
  std::vector<std::uint8_t> buf(45);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const auto base = util::hash_words(buf.data(), buf.size());
  EXPECT_EQ(base, util::hash_words(buf.data(), buf.size()));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(util::hash_words(buf.data(), buf.size()), base) << i << ":" << bit;
      buf[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  buf.push_back(0);
  EXPECT_NE(util::hash_words(buf.data(), buf.size()), base);
  EXPECT_NE(util::hash_words(nullptr, 0), base);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(13), 13u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  EXPECT_NE(a(), child());
}

TEST(Randlc, MatchesNasFirstDraw) {
  // With the NAS defaults, the first randlc draw is a known constant.
  Randlc r;
  const double first = r.next();
  EXPECT_GT(first, 0.0);
  EXPECT_LT(first, 1.0);
  Randlc r2;
  EXPECT_EQ(r2.next(), first);  // deterministic
}

TEST(Randlc, StreamStaysInUnitInterval) {
  Randlc r(12345.0);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next();
    ASSERT_GT(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, MeanAndStdev) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stdev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 5.0);
}

TEST(Stats, EmptyInputsAreSafe) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stdev({}), 0.0);
}

TEST(Stats, ZScores) {
  EXPECT_NEAR(z_for_confidence(0.95), 1.96, 1e-3);
  EXPECT_NEAR(z_for_confidence(0.99), 2.5758, 1e-3);
  EXPECT_NEAR(z_for_confidence(0.90), 1.6449, 1e-3);
}

TEST(Stats, LeveugleSampleSizeMatchesPaperPresets) {
  // For large populations, 95%/3% -> ~1067 trials; 99%/1% -> ~16587.
  EXPECT_NEAR(static_cast<double>(
                  fault_injection_sample_size(100000000, 0.95, 0.03)),
              1067.0, 2.0);
  EXPECT_NEAR(static_cast<double>(
                  fault_injection_sample_size(100000000, 0.99, 0.01)),
              16587.0, 30.0);
}

TEST(Stats, SampleSizeNeverExceedsPopulation) {
  EXPECT_EQ(fault_injection_sample_size(10, 0.95, 0.03), 10u);
  EXPECT_EQ(fault_injection_sample_size(0, 0.95, 0.03), 0u);
  EXPECT_EQ(fault_injection_sample_size(1, 0.95, 0.03), 1u);
}

class SampleSizeMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SampleSizeMonotone, GrowsWithPopulation) {
  const auto n = GetParam();
  EXPECT_LE(fault_injection_sample_size(n, 0.95, 0.03),
            fault_injection_sample_size(n * 2, 0.95, 0.03));
  EXPECT_LE(fault_injection_sample_size(n, 0.95, 0.03), n);
}

INSTANTIATE_TEST_SUITE_P(Populations, SampleSizeMonotone,
                         ::testing::Values(1, 10, 100, 1000, 10000, 1000000));

// --- cli -----------------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--trials=50", "--full", "pos1",
                        "--name=cg"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("trials", 0), 50);
  EXPECT_TRUE(cli.get_bool("full", false));
  EXPECT_EQ(cli.get("name"), "cg");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_FALSE(cli.has("absent"));
  EXPECT_EQ(cli.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("absent", 0.5), 0.5);
  EXPECT_FALSE(cli.get_bool("off", true) == false);
}

// --- table ----------------------------------------------------------------------------

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.millis(), 0.0);
}

}  // namespace
}  // namespace ft::util
