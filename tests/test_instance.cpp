#include "activetime/instance.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "helpers.hpp"
#include "util/check.hpp"

namespace nat::at {
namespace {

TEST(Instance, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(testing::small_nested().validate());
}

TEST(Instance, ValidateRejectsBadG) {
  Instance i = testing::small_nested();
  i.g = 0;
  EXPECT_THROW(i.validate(), util::CheckError);
}

TEST(Instance, ValidateRejectsZeroProcessing) {
  Instance i;
  i.g = 1;
  i.jobs = {Job{0, 3, 0}};
  EXPECT_THROW(i.validate(), util::CheckError);
}

TEST(Instance, ValidateRejectsTightWindow) {
  Instance i;
  i.g = 1;
  i.jobs = {Job{0, 2, 3}};  // window shorter than processing
  EXPECT_THROW(i.validate(), util::CheckError);
}

// Windows near the int64 extremes: release + p must not wrap into a
// window that passes, and a window whose length does not fit in int64
// must not reach Interval::length().
TEST(Instance, ValidateRejectsWindowsThatOverflowInt64) {
  constexpr Time kMax = std::numeric_limits<Time>::max();
  Instance i;
  i.g = 1;
  i.jobs = {Job{kMax - 807, kMax, 1000}};  // release + p overflows
  EXPECT_THROW(i.validate(), util::CheckError);

  i.jobs = {Job{kMax - 10, kMax, 5, 1, 1000}};  // release + p_hi overflows
  EXPECT_THROW(i.validate(), util::CheckError);

  i.jobs = {Job{-9'000'000'000'000'000'000, 9'000'000'000'000'000'000, 3}};
  EXPECT_THROW(i.validate(), util::CheckError);  // length overflows

  i.jobs = {Job{kMax - 10, kMax, 10, 1, 10}};  // tight but representable
  EXPECT_NO_THROW(i.validate());
  EXPECT_EQ(i.jobs[0].window().length(), 10);
}

TEST(Instance, HorizonAndVolume) {
  Instance i = testing::small_nested();
  EXPECT_EQ(i.horizon(), (Interval{0, 10}));
  EXPECT_EQ(i.total_volume(), 9);
  EXPECT_EQ(i.volume_lower_bound(), 5);  // ceil(9/2)
  i.g = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(i.volume_lower_bound(), 1);  // volume + g - 1 would overflow
  EXPECT_TRUE(Instance{}.horizon().empty());
}

TEST(Instance, LaminarDetection) {
  EXPECT_TRUE(testing::small_nested().is_laminar());
  EXPECT_FALSE(testing::crossing().is_laminar());
  // Identical windows are laminar.
  Instance same;
  same.g = 1;
  same.jobs = {Job{0, 3, 1}, Job{0, 3, 2}};
  EXPECT_TRUE(same.is_laminar());
  // Touching (disjoint) windows are laminar.
  Instance touching;
  touching.g = 1;
  touching.jobs = {Job{0, 3, 1}, Job{3, 6, 2}};
  EXPECT_TRUE(touching.is_laminar());
  // Degenerate shapes: empty and single-job instances are laminar.
  EXPECT_TRUE(Instance{}.is_laminar());
  Instance single;
  single.g = 1;
  single.jobs = {Job{2, 7, 3}};
  EXPECT_TRUE(single.is_laminar());
}

TEST(Interval, Relations) {
  const Interval a{0, 4}, b{1, 3}, c{4, 6};
  EXPECT_TRUE(b.inside(a));
  EXPECT_TRUE(b.strictly_inside(a));
  EXPECT_FALSE(a.strictly_inside(a));
  EXPECT_TRUE(a.inside(a));
  EXPECT_TRUE(a.disjoint(c));
  EXPECT_FALSE(a.disjoint(b));
  EXPECT_TRUE(a.contains(0));
  EXPECT_FALSE(a.contains(4));
  EXPECT_EQ(a.length(), 4);
}

}  // namespace
}  // namespace nat::at
