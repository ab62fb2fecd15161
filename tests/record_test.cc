#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "crypto/chacha20.h"
#include "record/dataset.h"
#include "record/parser.h"
#include "record/record.h"
#include "record/schema.h"
#include "record/secure_codec.h"
#include "record/value.h"

namespace fresque {
namespace record {
namespace {

Schema TestSchema() {
  auto s = Schema::Create(
      {
          {"id", ValueType::kInt64},
          {"score", ValueType::kDouble},
          {"name", ValueType::kString},
      },
      "score");
  return std::move(s).ValueOrDie();
}

// ------------------------------------------------------------------ Value

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(2.5);
  Value s(std::string("hi"));
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_EQ(d.AsDouble(), 2.5);
  EXPECT_EQ(s.AsString(), "hi");
  EXPECT_EQ(*i.AsNumeric(), 42.0);
  EXPECT_EQ(*d.AsNumeric(), 2.5);
  EXPECT_FALSE(s.AsNumeric().ok());
}

// ----------------------------------------------------------------- Schema

TEST(SchemaTest, IndexedFieldMustBeNumeric) {
  auto bad = Schema::Create({{"a", ValueType::kString}}, "a");
  EXPECT_FALSE(bad.ok());
  auto missing = Schema::Create({{"a", ValueType::kInt64}}, "b");
  EXPECT_FALSE(missing.ok());
  auto empty = Schema::Create({}, "a");
  EXPECT_FALSE(empty.ok());
}

TEST(SchemaTest, FieldLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.FieldIndex("name"), 2u);
  EXPECT_FALSE(s.FieldIndex("ghost").ok());
  EXPECT_EQ(s.indexed_field_index(), 1u);
  EXPECT_EQ(s.indexed_field().name, "score");
}

// ------------------------------------------------------------ RecordCodec

TEST(RecordCodecTest, RoundTrip) {
  Schema s = TestSchema();
  RecordCodec codec(&s);
  Record rec({Value(int64_t{7}), Value(1.5), Value(std::string("abc"))});
  auto bytes = codec.Serialize(rec);
  ASSERT_TRUE(bytes.ok());
  auto back = codec.Deserialize(*bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rec);
}

TEST(RecordCodecTest, RejectsArityMismatch) {
  Schema s = TestSchema();
  RecordCodec codec(&s);
  Record too_short({Value(int64_t{1})});
  EXPECT_FALSE(codec.Serialize(too_short).ok());
}

TEST(RecordCodecTest, RejectsTypeMismatch) {
  Schema s = TestSchema();
  RecordCodec codec(&s);
  Record wrong({Value(1.0), Value(1.5), Value(std::string("x"))});
  EXPECT_FALSE(codec.Serialize(wrong).ok());
}

TEST(RecordCodecTest, RejectsTrailingGarbage) {
  Schema s = TestSchema();
  RecordCodec codec(&s);
  Record rec({Value(int64_t{7}), Value(1.5), Value(std::string("abc"))});
  auto bytes = codec.Serialize(rec);
  bytes->push_back(0xFF);
  EXPECT_FALSE(codec.Deserialize(*bytes).ok());
}

// Property: random records survive the codec.
TEST(RecordCodecTest, PropertyRandomRoundTrips) {
  Schema s = TestSchema();
  RecordCodec codec(&s);
  Xoshiro256 rng(55);
  for (int trial = 0; trial < 500; ++trial) {
    std::string name;
    size_t len = rng.NextBounded(40);
    for (size_t i = 0; i < len; ++i) {
      name.push_back(static_cast<char>('a' + rng.NextBounded(26)));
    }
    Record rec({Value(static_cast<int64_t>(rng.Next())),
                Value(rng.NextDouble() * 1e6), Value(std::move(name))});
    auto bytes = codec.Serialize(rec);
    ASSERT_TRUE(bytes.ok());
    auto back = codec.Deserialize(*bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, rec);
  }
}

// --------------------------------------------------------- ApacheLogParser

TEST(ApacheLogParserTest, ParsesCanonicalLine) {
  auto parser = ApacheLogParser::Create();
  ASSERT_TRUE(parser.ok());
  auto rec = (*parser)->Parse(
      "piweba3y.prodigy.com - - [05/Jul/1995:12:30:45 -0400] "
      "\"GET /shuttle/countdown/ HTTP/1.0\" 200 4324");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->value(0).AsString(), "piweba3y.prodigy.com");
  EXPECT_EQ(rec->value(2).AsString(), "GET /shuttle/countdown/ HTTP/1.0");
  EXPECT_EQ(rec->value(3).AsInt64(), 200);
  EXPECT_EQ(rec->value(4).AsInt64(), 4324);
  // Indexed attribute = bytes.
  EXPECT_EQ(*rec->IndexedValue((*parser)->schema()), 4324.0);
}

TEST(ApacheLogParserTest, DashBytesMeansZero) {
  auto parser = ApacheLogParser::Create();
  auto rec = (*parser)->Parse(
      "host - - [01/Jan/1995:00:00:00 -0400] \"GET / HTTP/1.0\" 304 -");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->value(4).AsInt64(), 0);
}

TEST(ApacheLogParserTest, MalformedLinesFail) {
  auto parser = ApacheLogParser::Create();
  EXPECT_FALSE((*parser)->Parse("").ok());
  EXPECT_FALSE((*parser)->Parse("just words").ok());
  EXPECT_FALSE((*parser)->Parse("host - - [notadate] \"GET /\" 200 1").ok());
  EXPECT_FALSE(
      (*parser)
          ->Parse("host - - [01/Jan/1995:00:00:00 -0400] no quotes 200 5")
          .ok());
  EXPECT_FALSE(
      (*parser)
          ->Parse(
              "host - - [01/Jan/1995:00:00:00 -0400] \"GET /\" twohundred 5")
          .ok());
}

// ---------------------------------------------------------------- CsvParser

TEST(CsvParserTest, ParsesTypedCells) {
  CsvParser parser(TestSchema());
  auto rec = parser.Parse("12,3.5,bob");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->value(0).AsInt64(), 12);
  EXPECT_EQ(rec->value(1).AsDouble(), 3.5);
  EXPECT_EQ(rec->value(2).AsString(), "bob");
}

TEST(CsvParserTest, CellCountMustMatch) {
  CsvParser parser(TestSchema());
  EXPECT_FALSE(parser.Parse("12,3.5").ok());
  EXPECT_FALSE(parser.Parse("12,3.5,bob,extra").ok());
  EXPECT_FALSE(parser.Parse("notanint,3.5,bob").ok());
}

// ---------------------------------------------------------------- Datasets

TEST(DatasetTest, NasaSpecMatchesPaperParameters) {
  auto spec = NasaDataset();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->num_bins(), 3421u);        // paper §7.1
  EXPECT_EQ(spec->bin_width, 1024.0);        // 1 KB bins
  EXPECT_EQ(spec->parser->schema().num_fields(), 5u);  // five attributes
}

TEST(DatasetTest, GowallaSpecMatchesPaperParameters) {
  auto spec = GowallaDataset();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->num_bins(), 626u);         // paper §7.1
  EXPECT_EQ(spec->bin_width, 3600.0);        // one-hour bins
  EXPECT_EQ(spec->parser->schema().num_fields(), 3u);  // three attributes
}

class GeneratorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorTest, EveryGeneratedLineParsesInDomain) {
  auto spec = std::string(GetParam()) == "nasa" ? NasaDataset()
                                                : GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto gen = MakeGenerator(*spec, 99);
  ASSERT_TRUE(gen.ok());
  for (int i = 0; i < 5000; ++i) {
    std::string line = (*gen)->NextLine();
    auto rec = spec->parser->Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    auto v = rec->IndexedValue(spec->parser->schema());
    ASSERT_TRUE(v.ok());
    EXPECT_GE(*v, spec->domain_min) << line;
    EXPECT_LT(*v, spec->domain_max) << line;
  }
}

TEST_P(GeneratorTest, DeterministicGivenSeed) {
  auto spec = std::string(GetParam()) == "nasa" ? NasaDataset()
                                                : GowallaDataset();
  auto a = MakeGenerator(*spec, 123);
  auto b = MakeGenerator(*spec, 123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ((*a)->NextLine(), (*b)->NextLine());
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, GeneratorTest,
                         ::testing::Values("nasa", "gowalla"));

TEST(DatasetTest, UnknownGeneratorFails) {
  DatasetSpec spec;
  spec.name = "mystery";
  EXPECT_FALSE(MakeGenerator(spec, 1).ok());
}

TEST(DatasetTest, GowallaCheckinsAreDiurnal) {
  auto spec = GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto gen = MakeGenerator(*spec, 77);
  CsvParser& parser = *const_cast<CsvParser*>(
      static_cast<const CsvParser*>(spec->parser.get()));
  int by_hour[24] = {};
  for (int i = 0; i < 20000; ++i) {
    auto rec = parser.Parse((*gen)->NextLine());
    ASSERT_TRUE(rec.ok());
    int64_t t = rec->value(1).AsInt64() -
                static_cast<int64_t>(spec->domain_min);
    ++by_hour[(t / 3600) % 24];
  }
  // Evening (18:00) must clearly beat the small hours (06:00).
  EXPECT_GT(by_hour[18], by_hour[6] * 2);
}

TEST(DatasetTest, GowallaLocationsAreHeavyTailed) {
  auto spec = GowallaDataset();
  auto gen = MakeGenerator(*spec, 78);
  CsvParser parser(std::move(*Schema::Create(
      {{"user", ValueType::kInt64},
       {"checkin_time", ValueType::kInt64},
       {"location", ValueType::kInt64}},
      "checkin_time")));
  int small_ids = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    auto rec = parser.Parse((*gen)->NextLine());
    ASSERT_TRUE(rec.ok());
    if (rec->value(2).AsInt64() < 130000) ++small_ids;  // bottom 10% of ids
  }
  // Under uniformity 10% of check-ins would land there; the power-law
  // skew concentrates far more.
  EXPECT_GT(small_ids, kSamples / 4);
}

TEST(DatasetTest, NasaHeadRequestsHaveNoBody) {
  auto spec = NasaDataset();
  auto gen = MakeGenerator(*spec, 79);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string line = (*gen)->NextLine();
    auto rec = spec->parser->Parse(line);
    ASSERT_TRUE(rec.ok());
    if (rec->value(2).AsString().rfind("HEAD ", 0) == 0) {
      ++heads;
      EXPECT_EQ(rec->value(4).AsInt64(), 0) << line;
    }
  }
  EXPECT_GT(heads, 100);  // ~2% of 20k
}

// ------------------------------------------------------- SecureRecordCodec

TEST(SecureCodecTest, RealRecordRoundTrip) {
  Schema s = TestSchema();
  crypto::SecureRandom rng(4);
  auto codec = SecureRecordCodec::Create(Bytes(32, 0x99), &s, &rng);
  ASSERT_TRUE(codec.ok());
  Record rec({Value(int64_t{1}), Value(9.5), Value(std::string("z"))});
  auto ct = codec->EncryptRecord(rec);
  ASSERT_TRUE(ct.ok());
  auto opened = codec->Decrypt(*ct);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened->is_dummy);
  EXPECT_EQ(opened->rec, rec);
}

TEST(SecureCodecTest, DummyIsRecognized) {
  Schema s = TestSchema();
  crypto::SecureRandom rng(4);
  auto codec = SecureRecordCodec::Create(Bytes(32, 0x99), &s, &rng);
  auto ct = codec->EncryptDummy(40);
  ASSERT_TRUE(ct.ok());
  auto opened = codec->Decrypt(*ct);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->is_dummy);
}

TEST(SecureCodecTest, DummyAndRealCiphertextsSameSizeClass) {
  Schema s = TestSchema();
  crypto::SecureRandom rng(4);
  auto codec = SecureRecordCodec::Create(Bytes(32, 0x99), &s, &rng);
  Record rec({Value(int64_t{1}), Value(9.5), Value(std::string("hello"))});
  auto body = RecordCodec(&s).Serialize(rec);
  auto real_ct = codec->EncryptRecord(rec);
  auto dummy_ct = codec->EncryptDummy(body->size());
  ASSERT_TRUE(real_ct.ok() && dummy_ct.ok());
  EXPECT_EQ(real_ct->size(), dummy_ct->size());
}

TEST(SecureCodecTest, WrongKeyFailsOrGarbles) {
  Schema s = TestSchema();
  crypto::SecureRandom rng(4);
  auto enc = SecureRecordCodec::Create(Bytes(32, 0x01), &s, &rng);
  auto dec = SecureRecordCodec::Create(Bytes(32, 0x02), &s, &rng);
  Record rec({Value(int64_t{1}), Value(9.5), Value(std::string("z"))});
  auto ct = enc->EncryptRecord(rec);
  auto opened = dec->Decrypt(*ct);
  // Wrong key: padding check fails almost surely; if it "succeeds", the
  // content must be wrong.
  if (opened.ok() && !opened->is_dummy) {
    EXPECT_NE(opened->rec, rec);
  }
}

TEST(SecureCodecTest, EncryptSerializedMatchesEncryptRecord) {
  Schema s = TestSchema();
  crypto::SecureRandom rng(4);
  auto codec = SecureRecordCodec::Create(Bytes(32, 0x99), &s, &rng);
  Record rec({Value(int64_t{1}), Value(9.5), Value(std::string("z"))});
  auto body = RecordCodec(&s).Serialize(rec);
  auto ct = codec->EncryptSerializedRecord(*body);
  ASSERT_TRUE(ct.ok());
  auto opened = codec->Decrypt(*ct);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->rec, rec);
}

}  // namespace
}  // namespace record
}  // namespace fresque
