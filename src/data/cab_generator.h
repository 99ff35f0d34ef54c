// Synthetic stand-in for the paper's Cab dataset (SF taxi traces; see
// docs/DATASETS.md for why a generator stands in for the corpus).
//
// The generator simulates a taxi fleet in the San Francisco bounding box
// with a random-waypoint mobility model biased toward a small set of
// popularity-skewed hotspots (downtown, airport, ...). Taxis alternate
// between driving legs at street speeds and short dwells; their position is
// recorded at a fixed GPS sampling cadence with measurement noise. The
// result matches the statistical shape SLIM's evaluation depends on: few
// entities, dense traces (~10^4 records each), bounded area, strong spatial
// skew, physically consistent speeds (which is what makes alibi detection
// meaningful).
#ifndef SLIM_DATA_CAB_GENERATOR_H_
#define SLIM_DATA_CAB_GENERATOR_H_

#include <cstdint>

#include "data/dataset.h"

namespace slim {

/// Configuration for GenerateCabDataset(). Defaults give a scaled-down
/// fleet suitable for tests; paper scale is num_taxis=530, duration_days=24,
/// record_interval_seconds~=100 (11M records total).
struct CabGeneratorOptions {
  int num_taxis = 100;
  double duration_days = 6.0;
  /// Mean seconds between consecutive GPS fixes of one taxi.
  double record_interval_seconds = 120.0;
  /// First record timestamp (epoch seconds). 2008-05-17T00:00Z, matching
  /// the real trace's start date.
  int64_t start_epoch = 1210982400;

  /// Service bounding box (San Francisco Bay Area). Deliberately wider
  /// than one 15-minute runaway distance (30 km) so that cross-entity
  /// same-window observations can exceed it — the precondition for alibi
  /// pairs, which the real trace has (airport / south-bay runs).
  double lat_lo = 37.20, lat_hi = 37.95;
  double lng_lo = -122.55, lng_hi = -121.95;

  /// Duty cycling: taxis alternate on-duty stretches (producing records)
  /// with off-duty rests (parked, silent), like the real fleet. Durations
  /// are exponential with these means; set rest to 0 for an always-on
  /// fleet. Off-duty gaps keep coarse-level time-location bins from being
  /// shared by the entire fleet (which would zero out every IDF).
  double duty_hours_mean = 10.0;
  double rest_hours_mean = 8.0;

  /// Number of hotspots; destination popularity is Zipf(hotspot_skew).
  int num_hotspots = 12;
  double hotspot_skew = 1.0;
  /// Fraction of legs that target a hotspot (rest: uniform point in box).
  double hotspot_probability = 0.7;
  /// Gaussian jitter around a hotspot center, meters.
  double hotspot_sigma_meters = 800.0;

  /// Driving speed range, km/h (drawn uniformly per leg).
  double min_speed_kmh = 15.0;
  double max_speed_kmh = 60.0;
  /// Mean dwell at a destination, seconds (exponential).
  double dwell_mean_seconds = 300.0;

  /// GPS noise standard deviation, meters.
  double gps_noise_meters = 20.0;

  uint64_t seed = 42;
};

/// Generates the master taxi dataset (entity ids 0..num_taxis-1); feed it to
/// SampleLinkedPair() to derive the two sides of a linkage experiment.
LocationDataset GenerateCabDataset(const CabGeneratorOptions& options);

}  // namespace slim

#endif  // SLIM_DATA_CAB_GENERATOR_H_
