// The HDK workflow (the paper's Section I-II context): Parma as the
// training-data factory for a neural Kirchhoff estimator.
//
//   1. generate a labelled dataset of (Z sweep, R field) pairs -- in a wet
//      lab the labels come from Parma's parametrization of measured devices;
//   2. train a from-scratch MLP on it;
//   3. compare the trained estimator against Parma's exact recovery on a
//      fresh device: the net answers in microseconds at reduced accuracy,
//      the solver answers exactly at higher cost -- the trade the deep
//      learning line of work ([8], [9]) is about.
//
// Build & run:  ./build/examples/train_estimator
#include <iostream>

#include "core/parma.hpp"

int main() {
  using namespace parma;

  const mea::DeviceSpec device = mea::square_device(4);

  // 1. Dataset.
  ann::DatasetOptions data_options;
  data_options.num_samples = 300;
  data_options.max_anomalies = 2;
  Rng data_rng(2024);
  std::cout << "generating " << data_options.num_samples << " labelled devices ("
            << device.rows << "x" << device.cols << ")...\n";
  Stopwatch data_clock;
  const ann::Dataset dataset = ann::generate_dataset(device, data_options, data_rng);
  std::cout << "  " << dataset.train.size() << " train / " << dataset.test.size()
            << " test samples in " << data_clock.elapsed_seconds() << " s\n\n";

  // 2. Train.
  Rng net_rng(7);
  ann::Mlp net({device.num_resistors(), 64, 64, device.num_resistors()}, net_rng);
  ann::TrainOptions train_options;
  train_options.epochs = 200;
  train_options.learning_rate = 2e-3;
  Rng train_rng(8);
  std::cout << "training MLP (" << net.num_parameters() << " parameters)...\n";
  Stopwatch train_clock;
  const ann::TrainReport report = ann::train(net, dataset, train_options, train_rng);
  std::cout << "  epochs: " << report.train_loss_per_epoch.size()
            << ", first/last train loss: " << report.train_loss_per_epoch.front() << " / "
            << report.train_loss_per_epoch.back()
            << ", test mean rel. error: " << report.test_mean_relative_error << " ("
            << train_clock.elapsed_seconds() << " s)\n\n";

  // 3. Head-to-head on a fresh device.
  Rng eval_rng(9);
  mea::GeneratorOptions scenario = mea::random_scenario(device, 1, eval_rng);
  scenario.jitter_fraction = 0.02;
  const circuit::ResistanceGrid truth = mea::generate_field(device, scenario, eval_rng);
  const mea::Measurement sweep = mea::measure_exact(device, truth);
  std::vector<Real> z_flat;
  for (Index i = 0; i < device.rows; ++i) {
    for (Index j = 0; j < device.cols; ++j) z_flat.push_back(sweep.z(i, j));
  }

  Stopwatch ann_clock;
  const std::vector<Real> ann_r = ann::infer_resistances(net, dataset, z_flat);
  const Real ann_seconds = ann_clock.elapsed_seconds();

  Stopwatch lm_clock;
  core::Engine engine(sweep);
  const solver::InverseResult lm = engine.recover();
  const Real lm_seconds = lm_clock.elapsed_seconds();

  Real ann_err = 0.0;
  for (std::size_t e = 0; e < ann_r.size(); ++e) {
    ann_err = std::max(ann_err, std::abs(ann_r[e] - truth.flat()[e]) / truth.flat()[e]);
  }
  std::cout << "fresh device head-to-head:\n"
            << "  ANN estimator: max rel. error " << ann_err << " in " << ann_seconds * 1e6
            << " us\n"
            << "  Parma solver:  max rel. error " << lm.max_relative_error(truth) << " in "
            << lm_seconds * 1e3 << " ms\n\n"
            << "the estimator trades accuracy for a ~1000x faster answer; Parma is\n"
               "what makes producing its training labels tractable at scale.\n";
  return 0;
}
