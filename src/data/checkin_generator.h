// Synthetic stand-in for the paper's SM dataset (Twitter + Foursquare
// check-ins; see docs/DATASETS.md for why a generator stands in for the
// corpus).
//
// The generator produces sparse check-in behaviour: users live in one of a
// set of popularity-skewed cities spread over the globe, repeatedly visit a
// small personal set of venues drawn from a shared per-city venue pool
// (popular venues are shared across many users, which is what makes the
// similarity score's IDF term meaningful), and occasionally travel to
// another city. Check-in times follow a Poisson process over the collection
// period. The shape matches the real SM data: many entities, ~tens of
// records each, global spread, heavy venue reuse, temporal asynchrony.
#ifndef SLIM_DATA_CHECKIN_GENERATOR_H_
#define SLIM_DATA_CHECKIN_GENERATOR_H_

#include <cstdint>

#include "data/dataset.h"

namespace slim {

/// Configuration for GenerateCheckinDataset(). Defaults give a scaled-down
/// population for tests; paper scale is num_users~500k with ~11 checkins
/// each over 26 days.
struct CheckinGeneratorOptions {
  int num_users = 2000;
  double duration_days = 26.0;
  /// Mean check-ins per user over the whole period (Poisson).
  double mean_checkins = 24.0;
  /// First record timestamp (epoch seconds). 2017-10-03T00:00Z, matching
  /// the real SM collection start.
  int64_t start_epoch = 1507075200;

  /// Number of cities; users pick a home city ~ Zipf(city_skew).
  int num_cities = 40;
  double city_skew = 1.0;
  /// City radius, meters (venues live within this disc).
  double city_radius_meters = 8000.0;

  /// Venue pool size per city = max(venues_per_city_min,
  /// users_in_city * venues_per_user_factor); users pick their personal
  /// venue set ~ Zipf(venue_skew) from the pool.
  int venues_per_city_min = 50;
  double venues_per_user_factor = 2.0;
  double venue_skew = 0.8;
  /// Personal favourite-venue count range.
  int min_favorites = 4;
  int max_favorites = 12;

  /// Probability a user takes one multi-day trip to another city.
  double travel_probability = 0.1;
  double travel_days = 2.0;

  /// Check-in position noise (GPS / venue centroid error), meters.
  double position_noise_meters = 50.0;

  uint64_t seed = 43;
};

/// Generates the master check-in dataset (entity ids 0..num_users-1); feed
/// it to SampleLinkedPair() to derive the two sides of a linkage experiment.
LocationDataset GenerateCheckinDataset(const CheckinGeneratorOptions& options);

}  // namespace slim

#endif  // SLIM_DATA_CHECKIN_GENERATOR_H_
