#include "src/pipeline/taxi_feature_extractor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/string_util.h"
#include "tests/testing/block_runner.h"
#include "tests/testing/table_test_util.h"

namespace cdpipe {
namespace {

std::shared_ptr<const Schema> RawSchema() {
  return std::move(Schema::Make({
                       Field{"pickup_datetime", ValueType::kTimestamp},
                       Field{"dropoff_datetime", ValueType::kTimestamp},
                       Field{"pickup_lon", ValueType::kDouble},
                       Field{"pickup_lat", ValueType::kDouble},
                       Field{"dropoff_lon", ValueType::kDouble},
                       Field{"dropoff_lat", ValueType::kDouble},
                   }))
      .ValueOrDie();
}

Row MakeTrip(const std::string& pickup, const std::string& dropoff,
             double plon, double plat, double dlon, double dlat) {
  return {Value::Timestamp(std::move(ParseDateTime(pickup)).ValueOrDie()),
          Value::Timestamp(std::move(ParseDateTime(dropoff)).ValueOrDie()),
          Value::Double(plon), Value::Double(plat), Value::Double(dlon),
          Value::Double(dlat)};
}

TEST(HaversineTest, KnownDistances) {
  // Same point.
  EXPECT_NEAR(HaversineKm(40.75, -73.97, 40.75, -73.97), 0.0, 1e-9);
  // One degree of latitude is ~111.2 km.
  EXPECT_NEAR(HaversineKm(40.0, -73.97, 41.0, -73.97), 111.2, 0.5);
  // JFK (40.6413, -73.7781) to Times Square (40.7580, -73.9855): ~21 km.
  EXPECT_NEAR(HaversineKm(40.6413, -73.7781, 40.7580, -73.9855), 21.6, 1.0);
}

TEST(BearingTest, CardinalDirections) {
  EXPECT_NEAR(BearingDegrees(40.0, -74.0, 41.0, -74.0), 0.0, 0.5);     // north
  EXPECT_NEAR(BearingDegrees(41.0, -74.0, 40.0, -74.0), 180.0, 0.5);   // south
  EXPECT_NEAR(BearingDegrees(40.0, -74.0, 40.0, -73.0), 90.0, 1.0);    // east
  EXPECT_NEAR(BearingDegrees(40.0, -73.0, 40.0, -74.0), 270.0, 1.0);   // west
}

TEST(BearingTest, AlwaysInRange) {
  for (double dlat = -1.0; dlat <= 1.0; dlat += 0.25) {
    for (double dlon = -1.0; dlon <= 1.0; dlon += 0.25) {
      if (dlat == 0.0 && dlon == 0.0) continue;
      const double b = BearingDegrees(40.0, -74.0, 40.0 + dlat, -74.0 + dlon);
      EXPECT_GE(b, 0.0);
      EXPECT_LT(b, 360.0);
    }
  }
}

TEST(TaxiFeatureExtractorTest, ComputesAllDerivedColumns) {
  TaxiFeatureExtractor extractor;
  // Wednesday 2015-01-07, 08:30 pickup, 20-minute trip.
  TableData table = testing::TableFromRows(
      RawSchema(), {MakeTrip("2015-01-07 08:30:00", "2015-01-07 08:50:00",
                             -73.97, 40.75, -73.98, 40.78)});
  auto result = testing::RunTransform(extractor, table);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& out = std::get<TableData>(*result);
  ASSERT_EQ(out.num_rows(), 1u);
  const Schema& schema = *out.schema();

  auto value_of = [&](const std::string& name) {
    return out.ValueAt(0, std::move(schema.FieldIndex(name)).ValueOrDie())
        .double_value();
  };
  EXPECT_DOUBLE_EQ(value_of("duration_s"), 1200.0);
  EXPECT_NEAR(value_of("haversine_km"),
              HaversineKm(40.75, -73.97, 40.78, -73.98), 1e-9);
  EXPECT_NEAR(value_of("bearing"),
              BearingDegrees(40.75, -73.97, 40.78, -73.98), 1e-9);
  EXPECT_DOUBLE_EQ(value_of("hour_of_day"), 8.0);
  EXPECT_DOUBLE_EQ(value_of("day_of_week"), 2.0);  // Wednesday
  EXPECT_NEAR(value_of("log_duration"), std::log1p(1200.0), 1e-12);
}

TEST(TaxiFeatureExtractorTest, WeekdayAcrossWeek) {
  TaxiFeatureExtractor extractor;
  // 2015-01-05 is a Monday; sweep seven consecutive days.
  std::vector<Row> rows;
  for (int d = 0; d < 7; ++d) {
    rows.push_back(
        MakeTrip(StrFormat("2015-01-%02d 12:00:00", 5 + d),
                 StrFormat("2015-01-%02d 12:10:00", 5 + d), -73.97, 40.75,
                 -73.98, 40.76));
  }
  TableData table = testing::TableFromRows(RawSchema(), rows);
  auto result = testing::RunTransform(extractor, table);
  ASSERT_TRUE(result.ok());
  const auto& out = std::get<TableData>(*result);
  const size_t dow =
      std::move(out.schema()->FieldIndex("day_of_week")).ValueOrDie();
  for (int d = 0; d < 7; ++d) {
    EXPECT_DOUBLE_EQ(out.ValueAt(d, dow).double_value(), d);
  }
}

TEST(TaxiFeatureExtractorTest, DropsRowsWithMissingEndpoints) {
  TaxiFeatureExtractor extractor;
  Row complete = MakeTrip("2015-01-07 08:30:00", "2015-01-07 08:50:00",
                          -73.97, 40.75, -73.98, 40.78);
  Row incomplete = complete;
  incomplete[2] = Value::Null();
  TableData table =
      testing::TableFromRows(RawSchema(), {complete, incomplete});
  auto result = testing::RunTransform(extractor, table);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<TableData>(*result).num_rows(), 1u);
}

TEST(TaxiFeatureExtractorTest, MissingColumnErrors) {
  TaxiFeatureExtractor extractor;
  auto schema =
      std::move(Schema::Make({Field{"x", ValueType::kDouble}})).ValueOrDie();
  TableData table =
      testing::TableFromRows(schema, {{Value::Double(1.0)}});
  EXPECT_FALSE(testing::RunTransform(extractor, table).ok());
}

TEST(TaxiFeatureExtractorTest, StatelessContract) {
  TaxiFeatureExtractor extractor;
  EXPECT_FALSE(extractor.is_stateful());
  EXPECT_NE(extractor.Clone(), nullptr);
}

}  // namespace
}  // namespace cdpipe
