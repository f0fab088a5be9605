// Unit tests for UCR-format and CSV I/O (src/io).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "datagen/registry.hpp"
#include "io/csv.hpp"
#include "io/ucr_io.hpp"

namespace uts::io {
namespace {

TEST(UcrReadTest, ParsesCommaSeparated) {
  std::istringstream in("1,0.5,1.5,2.5\n2,3.5,4.5,5.5\n");
  auto d = ReadUcrStream(in, "t");
  ASSERT_TRUE(d.ok()) << d.status();
  const ts::Dataset& dataset = d.ValueOrDie();
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset[0].label(), 1);
  EXPECT_EQ(dataset[1].label(), 2);
  EXPECT_DOUBLE_EQ(dataset[0][0], 0.5);
  EXPECT_DOUBLE_EQ(dataset[1][2], 5.5);
}

TEST(UcrReadTest, ParsesWhitespaceSeparated) {
  std::istringstream in(" 1  0.5 1.5\n-1\t2.0\t3.0\n");
  auto d = ReadUcrStream(in, "t");
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d.ValueOrDie()[1].label(), -1);
  EXPECT_DOUBLE_EQ(d.ValueOrDie()[1][1], 3.0);
}

TEST(UcrReadTest, FloatLabelsAreRounded) {
  // UCR files sometimes write labels as "1.0000000e+00".
  std::istringstream in("1.0000000e+00,2.5,3.5\n");
  auto d = ReadUcrStream(in, "t");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.ValueOrDie()[0].label(), 1);
}

TEST(UcrReadTest, SkipsBlankLines) {
  std::istringstream in("1,1.0,2.0\n\n\n2,3.0,4.0\n");
  auto d = ReadUcrStream(in, "t");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.ValueOrDie().size(), 2u);
}

TEST(UcrReadTest, RejectsRaggedRows) {
  std::istringstream in("1,1.0,2.0\n2,3.0\n");
  auto d = ReadUcrStream(in, "t");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kCorruption);
}

TEST(UcrReadTest, RejectsGarbageFields) {
  std::istringstream in("1,1.0,banana\n");
  EXPECT_EQ(ReadUcrStream(in, "t").status().code(), StatusCode::kCorruption);
  // std::stod parses these, but a non-finite value, label included, is
  // rejected too.
  for (const char* text :
       {"1,1.0,2.0\n1,NaN,2.0\n", "1,1.0,2.0\n1,1.0,nan\n",
        "1,1.0,2.0\ninf,1.0,2.0\n", "1,1.0,2.0\n1,-inf,2.0\n"}) {
    std::istringstream bad(text);
    const Status status = ReadUcrStream(bad, "t").status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << text;
    EXPECT_NE(status.message().find("on line 2"), std::string::npos)
        << status.message();
  }
}

TEST(UcrReadTest, RejectsLabelOnlyLines) {
  std::istringstream in("1\n");
  EXPECT_FALSE(ReadUcrStream(in, "t").ok());
}

TEST(UcrReadTest, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_FALSE(ReadUcrStream(in, "t").ok());
}

TEST(UcrReadTest, MissingFileGivesIOError) {
  EXPECT_EQ(ReadUcrFile("/nonexistent/file.txt", "t").status().code(),
            StatusCode::kIOError);
}

TEST(UcrRoundTripTest, WriteThenReadPreservesData) {
  // Generate, write, re-read, compare (the real-data drop-in path).
  auto spec = datagen::SpecByName("GunPoint").ValueOrDie();
  const ts::Dataset original = datagen::GenerateScaled(spec, 1, 10, 32);

  std::stringstream buffer;
  ASSERT_TRUE(WriteUcrStream(original, buffer).ok());
  auto restored = ReadUcrStream(buffer, "GunPoint");
  ASSERT_TRUE(restored.ok()) << restored.status();
  const ts::Dataset& d = restored.ValueOrDie();
  ASSERT_EQ(d.size(), original.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d[i].label(), original[i].label());
    ASSERT_EQ(d[i].size(), original[i].size());
    for (std::size_t t = 0; t < d[i].size(); ++t) {
      // Regression: the stream writer used to inherit the caller's default
      // ~6-digit precision, making direct stream round-trips lossy. It now
      // pins 17 significant digits itself: bit-exact.
      EXPECT_DOUBLE_EQ(d[i][t], original[i][t]);
    }
  }
}

TEST(UcrRoundTripTest, StreamWriterDoesNotDependOnCallerPrecision) {
  auto spec = datagen::SpecByName("GunPoint").ValueOrDie();
  const ts::Dataset original = datagen::GenerateScaled(spec, 1, 4, 16);

  std::stringstream buffer;
  buffer.precision(3);  // adversarial caller state
  ASSERT_TRUE(WriteUcrStream(original, buffer).ok());
  // The caller's precision is restored after the write.
  EXPECT_EQ(buffer.precision(), 3);
  auto restored = ReadUcrStream(buffer, "t");
  ASSERT_TRUE(restored.ok()) << restored.status();
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t t = 0; t < original[i].size(); ++t) {
      EXPECT_DOUBLE_EQ(restored.ValueOrDie()[i][t], original[i][t]);
    }
  }
}

TEST(UcrRoundTripTest, FileRoundTripIsLossless) {
  auto spec = datagen::SpecByName("Coffee").ValueOrDie();
  const ts::Dataset original = datagen::GenerateScaled(spec, 2, 6, 16);
  const std::string path = testing::TempDir() + "/uts_io_test.ucr";
  ASSERT_TRUE(WriteUcrFile(original, path).ok());
  auto restored = ReadUcrFile(path, "Coffee");
  ASSERT_TRUE(restored.ok());
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t t = 0; t < original[i].size(); ++t) {
      // WriteUcrFile uses 17 significant digits: bit-exact round trip.
      EXPECT_DOUBLE_EQ(restored.ValueOrDie()[i][t], original[i][t]);
    }
  }
  std::remove(path.c_str());
}

TEST(UcrPairTest, JoinsTrainAndTest) {
  const std::string train = testing::TempDir() + "/uts_train.ucr";
  const std::string test = testing::TempDir() + "/uts_test.ucr";
  {
    std::ofstream t(train);
    t << "1,1.0,2.0\n";
    std::ofstream e(test);
    e << "2,3.0,4.0\n2,5.0,6.0\n";
  }
  auto d = ReadUcrPair(train, test, "joined");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.ValueOrDie().size(), 3u);
  EXPECT_EQ(d.ValueOrDie().name(), "joined");
  std::remove(train.c_str());
  std::remove(test.c_str());
}

// ---------------------------------------------------------------------- CSV

TEST(CsvTest, HeaderAndRows) {
  CsvWriter csv({"sigma", "f1"});
  csv.AddNumericRow({0.2, 0.91});
  csv.AddNumericRow({0.4, 0.85});
  EXPECT_EQ(csv.ToString(), "sigma,f1\n0.2,0.91\n0.4,0.85\n");
  EXPECT_EQ(csv.size(), 2u);
}

TEST(CsvTest, KeyedRows) {
  CsvWriter csv({"dataset", "f1", "precision"});
  csv.AddKeyedRow("GunPoint", {0.8, 0.75});
  EXPECT_EQ(csv.ToString(), "dataset,f1,precision\nGunPoint,0.8,0.75\n");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  CsvWriter csv({"name", "value"});
  csv.AddRow({"with,comma", "with\"quote"});
  EXPECT_EQ(csv.ToString(),
            "name,value\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(CsvTest, WritesFile) {
  const std::string path = testing::TempDir() + "/uts_csv_test.csv";
  CsvWriter csv({"a"});
  csv.AddNumericRow({1.0});
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a\n1\n");
  std::remove(path.c_str());
}

TEST(CsvTest, InvalidPathFails) {
  CsvWriter csv({"a"});
  EXPECT_EQ(csv.WriteFile("/nonexistent/dir/x.csv").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace uts::io
