//! Deterministic distribution-drift schedules.
//!
//! A deployed camera's scene statistics are not stationary: night falls,
//! crews change, smoke rolls in. A [`DriftSchedule`] describes that as a
//! piecewise-constant sequence of [`DatasetProfile`]s over *virtual* time —
//! phase boundaries are plain numbers, so which profile generates a frame
//! is a pure function of the frame's timestamp and the whole run stays
//! bit-reproducible. Fleet populations sample their scenes through a
//! schedule (`FleetSpec::drift` in `smallbig-core`), and the model-update
//! eval uses one to show static calibration decaying while the update loop
//! re-fits.
//!
//! # Example
//!
//! ```
//! use datagen::{DatasetProfile, DriftSchedule};
//!
//! let drift = DriftSchedule::day_night(DatasetProfile::helmet(), 30.0);
//! assert_eq!(drift.profile_at(0.0).name, "helmet");
//! assert_eq!(drift.profile_at(31.0).name, "helmet-night");
//! assert_eq!(drift.phase_index(31.0), 1);
//! ```

use crate::DatasetProfile;
use serde::{Deserialize, Serialize};

/// One constant-distribution phase of a [`DriftSchedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftPhase {
    /// Virtual time (seconds) at which this phase takes over.
    pub start_s: f64,
    /// The generative profile in force during the phase.
    pub profile: DatasetProfile,
}

/// A piecewise-constant drift schedule over virtual time.
///
/// Phases are ordered by `start_s`; the first phase must start at `0.0`
/// so every timestamp maps to exactly one profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSchedule {
    /// The phases, in strictly increasing `start_s` order.
    pub phases: Vec<DriftPhase>,
}

impl DriftSchedule {
    /// A schedule with a single constant phase (no drift).
    pub fn constant(profile: DatasetProfile) -> DriftSchedule {
        DriftSchedule {
            phases: vec![DriftPhase {
                start_s: 0.0,
                profile,
            }],
        }
    }

    /// Day/night swap: `base` until `swap_at_s`, then its night variant
    /// ([`DatasetProfile::night`] — harsher camera, dimmer light, smaller
    /// and intrinsically harder objects).
    pub fn day_night(base: DatasetProfile, swap_at_s: f64) -> DriftSchedule {
        let night = base.night();
        DriftSchedule {
            phases: vec![
                DriftPhase {
                    start_s: 0.0,
                    profile: base,
                },
                DriftPhase {
                    start_s: swap_at_s,
                    profile: night,
                },
            ],
        }
    }

    /// Difficulty ramp: `steps` phases of `step_s` seconds each, raising
    /// the difficulty floor by `delta` per step (clamped to `[0, 1]`).
    pub fn difficulty_ramp(
        base: DatasetProfile,
        step_s: f64,
        steps: usize,
        delta: f64,
    ) -> DriftSchedule {
        let phases = (0..steps.max(1))
            .map(|i| {
                let mut profile = base.clone();
                profile.difficulty.base =
                    (profile.difficulty.base + delta * i as f64).clamp(0.0, 1.0);
                DriftPhase {
                    start_s: step_s * i as f64,
                    profile,
                }
            })
            .collect();
        DriftSchedule { phases }
    }

    /// Class-mix shift: `base` until `at_s`, then the same profile with
    /// `class_weights` (must match the taxonomy length — validated by
    /// [`DriftSchedule::validate`]).
    pub fn class_mix_shift(
        base: DatasetProfile,
        at_s: f64,
        class_weights: Vec<f64>,
    ) -> DriftSchedule {
        let mut shifted = base.clone();
        shifted.class_weights = class_weights;
        DriftSchedule {
            phases: vec![
                DriftPhase {
                    start_s: 0.0,
                    profile: base,
                },
                DriftPhase {
                    start_s: at_s,
                    profile: shifted,
                },
            ],
        }
    }

    /// Index of the phase in force at virtual time `t_s`.
    pub fn phase_index(&self, t_s: f64) -> usize {
        let mut idx = 0;
        for (i, p) in self.phases.iter().enumerate() {
            if p.start_s <= t_s {
                idx = i;
            } else {
                break;
            }
        }
        idx
    }

    /// The profile in force at virtual time `t_s`.
    pub fn profile_at(&self, t_s: f64) -> &DatasetProfile {
        &self.phases[self.phase_index(t_s)].profile
    }

    /// Checks the schedule's invariants, returning a description of the
    /// first violation: at least one phase, the first starting at `0.0`,
    /// start times finite and strictly increasing, and every phase's class
    /// weights matching its taxonomy.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("must have at least one phase".to_string());
        }
        if self.phases[0].start_s != 0.0 {
            return Err(format!(
                "first phase must start at 0.0, not {}",
                self.phases[0].start_s
            ));
        }
        for pair in self.phases.windows(2) {
            if !(pair[1].start_s > pair[0].start_s && pair[1].start_s.is_finite()) {
                return Err(format!(
                    "phase starts must be finite and strictly increasing \
                     ({} then {})",
                    pair[0].start_s, pair[1].start_s
                ));
            }
        }
        for (i, p) in self.phases.iter().enumerate() {
            if p.profile.class_weights.len() != p.profile.taxonomy.len() {
                return Err(format!(
                    "phase {i} has {} class weights for a {}-class taxonomy",
                    p.profile.class_weights.len(),
                    p.profile.taxonomy.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scene;

    #[test]
    fn day_night_swaps_at_boundary() {
        let d = DriftSchedule::day_night(DatasetProfile::helmet(), 30.0);
        d.validate().unwrap();
        assert_eq!(d.phase_index(0.0), 0);
        assert_eq!(d.phase_index(29.999), 0);
        assert_eq!(d.phase_index(30.0), 1);
        assert_eq!(d.profile_at(100.0).name, "helmet-night");
    }

    #[test]
    fn difficulty_ramp_is_monotone() {
        let d = DriftSchedule::difficulty_ramp(DatasetProfile::voc(), 10.0, 4, 0.1);
        d.validate().unwrap();
        let bases: Vec<f64> = d.phases.iter().map(|p| p.profile.difficulty.base).collect();
        assert_eq!(bases.len(), 4);
        assert!(bases.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(d.phase_index(35.0), 3);
    }

    #[test]
    fn class_mix_shift_changes_weights_only() {
        let base = DatasetProfile::helmet();
        let d = DriftSchedule::class_mix_shift(base.clone(), 20.0, vec![1.0, 5.0]);
        d.validate().unwrap();
        assert_eq!(d.profile_at(0.0), &base);
        assert_eq!(d.profile_at(20.0).class_weights, vec![1.0, 5.0]);
        assert_eq!(d.profile_at(20.0).camera, base.camera);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        assert!(DriftSchedule { phases: vec![] }.validate().is_err());
        let late_start = DriftSchedule {
            phases: vec![DriftPhase {
                start_s: 1.0,
                profile: DatasetProfile::helmet(),
            }],
        };
        assert!(late_start.validate().unwrap_err().contains("start at 0.0"));
        let mut bad_order = DriftSchedule::day_night(DatasetProfile::helmet(), 30.0);
        bad_order.phases[1].start_s = 0.0;
        assert!(bad_order.validate().unwrap_err().contains("increasing"));
        let bad_weights =
            DriftSchedule::class_mix_shift(DatasetProfile::helmet(), 20.0, vec![1.0, 2.0, 3.0]);
        assert!(bad_weights
            .validate()
            .unwrap_err()
            .contains("class weights"));
    }

    #[test]
    fn night_scenes_are_deterministic_and_harsher() {
        let day = DatasetProfile::helmet();
        let night = day.night();
        assert_eq!(Scene::sample(&night, 5, 2), Scene::sample(&night, 5, 2));
        let mean = |p: &DatasetProfile, f: &dyn Fn(&Scene) -> f64| -> f64 {
            (0..200).map(|id| f(&Scene::sample(p, 11, id))).sum::<f64>() / 200.0
        };
        assert!(
            mean(&night, &|s| s.camera_blur) > mean(&day, &|s| s.camera_blur),
            "night blurrier"
        );
        assert!(
            mean(&night, &|s| s.mean_difficulty()) > mean(&day, &|s| s.mean_difficulty()),
            "night harder"
        );
        assert!(
            mean(&night, &|s| s.illumination) < mean(&day, &|s| s.illumination),
            "night darker"
        );
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let d = DriftSchedule::day_night(DatasetProfile::helmet(), 30.0);
        let json = serde_json::to_string(&d).unwrap();
        let back: DriftSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
