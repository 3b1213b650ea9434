#include "workload/experiment.h"

#include <sstream>

#include <gtest/gtest.h>

namespace vaq {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.data_size = 2000;
  config.query_size_fraction = 0.02;
  config.repetitions = 10;
  config.seed = 77;
  return config;
}

TEST(ExperimentTest, RunsAndReportsSaneAverages) {
  const ExperimentRow row = RunExperiment(SmallConfig());
  EXPECT_GT(row.result_size, 0.0);
  EXPECT_GE(row.traditional.candidates, row.result_size);
  EXPECT_GE(row.voronoi.candidates, row.result_size);
  EXPECT_GT(row.traditional.time_ms, 0.0);
  EXPECT_GT(row.voronoi.time_ms, 0.0);
  EXPECT_EQ(row.mismatches, 0);
  EXPECT_GT(row.build_rtree_ms, 0.0);
  EXPECT_GT(row.build_delaunay_ms, 0.0);
  // The expected MBR population is data_size * query_size: ~40.
  EXPECT_NEAR(row.traditional.candidates, 40.0, 20.0);
}

TEST(ExperimentTest, VerifyModeAgreesWithBruteForce) {
  ExperimentConfig config = SmallConfig();
  config.verify = true;
  const ExperimentRow row = RunExperiment(config);
  EXPECT_EQ(row.mismatches, 0);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  const ExperimentRow a = RunExperiment(SmallConfig());
  const ExperimentRow b = RunExperiment(SmallConfig());
  EXPECT_EQ(a.result_size, b.result_size);
  EXPECT_EQ(a.traditional.candidates, b.traditional.candidates);
  EXPECT_EQ(a.voronoi.candidates, b.voronoi.candidates);
}

TEST(ExperimentTest, VoronoiSavesCandidatesOnPaperWorkload) {
  ExperimentConfig config = SmallConfig();
  config.data_size = 20000;
  config.query_size_fraction = 0.04;
  const ExperimentRow row = RunExperiment(config);
  // Paper reports 35-45% candidate savings; allow a wide band.
  EXPECT_GT(row.CandidatesSavedFraction(), 0.20);
  EXPECT_LT(row.CandidatesSavedFraction(), 0.60);
}

TEST(ExperimentTest, SimulatedFetchRestoresPaperTimeShape) {
  ExperimentConfig config = SmallConfig();
  config.data_size = 20000;
  config.query_size_fraction = 0.08;
  config.repetitions = 5;
  // Large enough that the simulated IO dominates even under sanitizer
  // instrumentation (which inflates the compute side ~10x): the batched
  // fetch boundary charges waits coherently, so the charge no longer
  // grows with per-call clock overhead the way per-candidate waits did.
  config.simulated_fetch_ns = 20000.0;
  const ExperimentRow row = RunExperiment(config);
  // With per-candidate IO simulated, fewer candidates must mean less time.
  EXPECT_GT(row.TimeSavedFraction(), 0.0);
}

TEST(ExperimentTest, TablePrinterProducesRows) {
  const ExperimentRow row = RunExperiment(SmallConfig());
  std::ostringstream table;
  PrintPaperTable({row, row}, /*vary_query_size=*/false, table);
  EXPECT_NE(table.str().find("Data size"), std::string::npos);
  EXPECT_NE(table.str().find("2000"), std::string::npos);

  std::ostringstream figures;
  PrintFigureSeries({row}, /*vary_query_size=*/true, figures);
  EXPECT_NE(figures.str().find("redundant"), std::string::npos);
}

TEST(ExperimentTest, ClusteredDistributionAlsoCorrect) {
  ExperimentConfig config = SmallConfig();
  config.distribution = PointDistribution::kClustered;
  config.verify = true;
  const ExperimentRow row = RunExperiment(config);
  EXPECT_EQ(row.mismatches, 0);
}

}  // namespace
}  // namespace vaq
