#include "workload/catalog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "stats/zipf.hpp"
#include "util/error.hpp"

namespace appscope::workload {
namespace {

/// Summed urban per-user rate over the catalog.
double total_urban_rate(const ServiceCatalog& catalog, Direction d) {
  double total = 0.0;
  for (const auto& s : catalog.services()) total += s.urban_rate(d);
  return total;
}

/// Service indices by descending urban rate.
std::vector<ServiceIndex> ranked(const ServiceCatalog& catalog, Direction d) {
  std::vector<ServiceIndex> order(catalog.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](ServiceIndex a, ServiceIndex b) {
    return catalog[a].urban_rate(d) > catalog[b].urban_rate(d);
  });
  return order;
}

/// The topical times a profile surges at.
std::set<ts::TopicalTime> boost_times(const TemporalProfile& profile) {
  std::set<ts::TopicalTime> out;
  for (const PeakBoost& b : profile.params().boosts) out.insert(b.time);
  return out;
}

class CatalogTest : public ::testing::Test {
 protected:
  ServiceCatalog catalog_ = ServiceCatalog::paper_services();
};

TEST_F(CatalogTest, HasTwentyServices) { EXPECT_EQ(catalog_.size(), 20u); }

TEST_F(CatalogTest, NamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const auto& s : catalog_.services()) names.insert(s.name);
  EXPECT_EQ(names.size(), 20u);
  for (const auto& name : catalog_.names()) {
    const auto idx = catalog_.find(name);
    ASSERT_TRUE(idx.has_value()) << name;
    EXPECT_EQ(catalog_[*idx].name, name);
  }
  EXPECT_FALSE(catalog_.find("NotAService").has_value());
}

TEST_F(CatalogTest, ContainsThePaperServices) {
  for (const char* name :
       {"YouTube", "iTunes", "Facebook Video", "Instagram video", "Netflix",
        "Audio", "Facebook", "Twitter", "Google Services", "Instagram", "News",
        "Adult", "Apple store", "Google Play", "iCloud", "SnapChat", "WhatsApp",
        "Mail", "MMS", "Pokemon Go"}) {
    EXPECT_TRUE(catalog_.find(name).has_value()) << name;
  }
}

TEST_F(CatalogTest, YouTubeDominatesDownlink) {
  const auto order = ranked(catalog_, Direction::kDownlink);
  EXPECT_EQ(catalog_[order[0]].name, "YouTube");
  EXPECT_EQ(catalog_[order[1]].name, "iTunes");
}

TEST_F(CatalogTest, UplinkTopThreeAreSocialOrMessaging) {
  const auto order = ranked(catalog_, Direction::kUplink);
  for (std::size_t i = 0; i < 3; ++i) {
    const Category c = catalog_[order[i]].category;
    EXPECT_TRUE(c == Category::kSocial || c == Category::kMessaging ||
                c == Category::kCloud)
        << catalog_[order[i]].name;
  }
  // SnapChat leads the uplink as in Fig. 3.
  EXPECT_EQ(catalog_[order[0]].name, "SnapChat");
}

TEST_F(CatalogTest, VideoStreamingNearHalfOfDownlink) {
  double video = 0.0;
  for (const auto& s : catalog_.services()) {
    if (s.category == Category::kVideoStreaming) {
      video += s.urban_rate(Direction::kDownlink);
    }
  }
  EXPECT_NEAR(video / total_urban_rate(catalog_, Direction::kDownlink), 0.46,
              0.04);
}

TEST_F(CatalogTest, UplinkIsSmallFractionOfTotal) {
  const double dl = total_urban_rate(catalog_, Direction::kDownlink);
  const double ul = total_urban_rate(catalog_, Direction::kUplink);
  EXPECT_NEAR(ul / (dl + ul), 1.0 / 21.0, 0.01);
}

TEST_F(CatalogTest, EveryServiceHasUniquePeakSignature) {
  // The paper's core temporal finding: no two services share the same set of
  // topical peak times (Fig. 6).
  std::set<std::set<ts::TopicalTime>> signatures;
  for (const auto& s : catalog_.services()) {
    const auto times = boost_times(s.temporal);
    EXPECT_FALSE(times.empty()) << s.name;
    EXPECT_TRUE(signatures.insert(times).second)
        << s.name << " shares its peak signature with another service";
  }
}

TEST_F(CatalogTest, MostServicesPeakAtWorkingMidday) {
  std::size_t midday = 0;
  for (const auto& s : catalog_.services()) {
    for (const auto t : boost_times(s.temporal)) {
      if (t == ts::TopicalTime::kMidday) ++midday;
    }
  }
  EXPECT_GE(midday, 12u);
}

TEST_F(CatalogTest, NetflixIsThe4gGatedOutlier) {
  const auto idx = catalog_.find("Netflix");
  ASSERT_TRUE(idx.has_value());
  const auto& netflix = catalog_[*idx];
  EXPECT_TRUE(netflix.spatial.requires_4g);
  EXPECT_LT(netflix.spatial.adoption, 1.0);
  EXPECT_LT(netflix.spatial.rural_ratio, 0.3);
}

TEST_F(CatalogTest, ICloudIsTheUniformityOutlier) {
  const auto idx = catalog_.find("iCloud");
  ASSERT_TRUE(idx.has_value());
  const auto& icloud = catalog_[*idx];
  EXPECT_LT(icloud.spatial.activity_exponent, 0.3);
  // iCloud pushes uplink: its uplink-to-downlink ratio is the highest in
  // the catalog (the paper's "pushing uplink data from all iPhones").
  const double icloud_ratio = icloud.urban_rate(Direction::kUplink) /
                              icloud.urban_rate(Direction::kDownlink);
  for (const auto& s : catalog_.services()) {
    if (s.name == "iCloud") continue;
    EXPECT_GT(icloud_ratio, s.urban_rate(Direction::kUplink) /
                                s.urban_rate(Direction::kDownlink))
        << s.name;
  }
}

TEST_F(CatalogTest, AdultIsDepressedOnTgv) {
  const auto idx = catalog_.find("Adult");
  ASSERT_TRUE(idx.has_value());
  EXPECT_LT(catalog_[*idx].spatial.tgv_ratio, 0.5);
  // Everyone else rides high on trains.
  for (const auto& s : catalog_.services()) {
    if (s.name == "Adult" || s.name == "iCloud" || s.name == "Netflix") continue;
    EXPECT_GT(s.spatial.tgv_ratio, 1.5) << s.name;
  }
}

TEST_F(CatalogTest, RuralRatiosNearHalf) {
  double acc = 0.0;
  for (const auto& s : catalog_.services()) acc += s.spatial.rural_ratio;
  EXPECT_NEAR(acc / 20.0, 0.55, 0.12);
}

TEST(FullServiceRanking, HeadIsCatalogAndTailDecays) {
  const ServiceCatalog catalog = ServiceCatalog::paper_services();
  const auto ranking =
      full_service_ranking(catalog, Direction::kDownlink, 500, 0.0);
  ASSERT_EQ(ranking.size(), 500u);
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(ranking[i], ranking[i - 1] + 1e-9) << i;
  }
  // Spans many orders of magnitude (paper: ~10).
  EXPECT_GT(ranking.front() / ranking.back(), 1e6);
}

TEST(FullServiceRanking, TopHalfFitLandsOnPaperExponents) {
  // The default tail law is calibrated so the measured top-half fit of the
  // assembled ranking reproduces Fig. 2's -1.69 (downlink) and -1.55
  // (uplink).
  const ServiceCatalog catalog = ServiceCatalog::paper_services();
  const auto dl =
      stats::fit_zipf_top_half(full_service_ranking(catalog, Direction::kDownlink));
  EXPECT_NEAR(dl.exponent, 1.69, 0.1);
  EXPECT_GT(dl.r2, 0.93);
  const auto ul =
      stats::fit_zipf_top_half(full_service_ranking(catalog, Direction::kUplink));
  EXPECT_NEAR(ul.exponent, 1.55, 0.1);
  EXPECT_GT(ul.r2, 0.93);
}

TEST(FullServiceRanking, RequiresTail) {
  const ServiceCatalog catalog = ServiceCatalog::paper_services();
  EXPECT_THROW(full_service_ranking(catalog, Direction::kDownlink, 20, 0.0),
               util::PreconditionError);
}

TEST(LongTailCatalog, ExtendsThePaperHead) {
  const ServiceCatalog catalog = ServiceCatalog::with_long_tail(120);
  ASSERT_EQ(catalog.size(), 120u);
  // The head is the paper catalog, unchanged.
  const ServiceCatalog head = ServiceCatalog::paper_services();
  for (std::size_t s = 0; s < head.size(); ++s) {
    EXPECT_EQ(catalog[s].name, head[s].name);
    EXPECT_DOUBLE_EQ(catalog[s].urban_rate(Direction::kDownlink),
                     head[s].urban_rate(Direction::kDownlink));
  }
  // Tail services carry small but positive rates and valid profiles.
  for (std::size_t s = head.size(); s < catalog.size(); ++s) {
    EXPECT_GT(catalog[s].urban_rate(Direction::kDownlink), 0.0);
    EXPECT_LT(catalog[s].urban_rate(Direction::kDownlink),
              catalog[19].urban_rate(Direction::kDownlink) * 1.01);
    EXPECT_GT(catalog[s].temporal.evaluate(100), 0.0);
  }
}

TEST(LongTailCatalog, VolumesFollowTheAnalyticTailLaw) {
  const ServiceCatalog catalog = ServiceCatalog::with_long_tail(500);
  const ServiceCatalog head = ServiceCatalog::paper_services();
  const auto law = full_service_ranking(head, Direction::kDownlink, 500, 0.0);
  for (std::size_t r = head.size(); r < 500; ++r) {
    EXPECT_DOUBLE_EQ(catalog[r].urban_rate(Direction::kDownlink), law[r]) << r;
  }
}

TEST(LongTailCatalog, DeterministicAndValidated) {
  const ServiceCatalog a = ServiceCatalog::with_long_tail(60, 5);
  const ServiceCatalog b = ServiceCatalog::with_long_tail(60, 5);
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].name, b[s].name);
    EXPECT_DOUBLE_EQ(a[s].temporal.evaluate(42), b[s].temporal.evaluate(42));
  }
  EXPECT_THROW(ServiceCatalog::with_long_tail(20), util::PreconditionError);
}

TEST(ServiceCatalog, RejectsDuplicates) {
  ServiceSpec a;
  a.name = "X";
  ServiceSpec b;
  b.name = "X";
  EXPECT_THROW(ServiceCatalog({a, b}), util::PreconditionError);
  EXPECT_THROW(ServiceCatalog({}), util::PreconditionError);
}

TEST(CategoryNames, AllDistinct) {
  std::set<std::string_view> names;
  for (std::size_t c = 0; c < kCategoryCount; ++c) {
    names.insert(category_name(static_cast<Category>(c)));
  }
  EXPECT_EQ(names.size(), kCategoryCount);
}

}  // namespace
}  // namespace appscope::workload
