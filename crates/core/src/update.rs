//! The model-update loop: cloud-driven discriminator recalibration with
//! versioned rollout, divergence detection, and rollback.
//!
//! The paper calibrates the difficult-case discriminator once and freezes
//! it, so any distribution drift silently decays the easy/hard split. This
//! module closes that loop, following the pseudo-label cloud-update line of
//! work: every frame the big model serves is also a free *pseudo-label*
//! (the big model saw more objects than the edge's small model reported →
//! the frame really was difficult), so the cloud can re-fit the
//! discriminator's count/area thresholds with the same grid search used at
//! initial calibration ([`crate::calibrate_count_area`]) — no ground truth
//! required.
//!
//! The pieces:
//!
//! * [`CalibrationUpdate`] — the versioned artifact: refit [`Thresholds`],
//!   a sorted difficulty-score vector that re-seeds
//!   [`QuantileStream`](crate::QuantileStream) state, and the rollout
//!   policy (holdout window + divergence bound) the cloud wants edges to
//!   apply it under. It is also a wire frame (JSON and binary codecs; see
//!   [`crate::wire`]) and a persisted artifact with a format-version gate
//!   (see [`crate::PersistError::UnsupportedVersion`]).
//! * [`UpdateConfig`] — cloud-side knobs: the refit cadence in *virtual*
//!   seconds and the minimum pseudo-label count per refit, plus the rollout
//!   policy stamped into each artifact.
//! * `UpdatePublisher` (crate-private) — accumulates pseudo-labels in served
//!   order and refits when a served frame's arrival crosses an epoch
//!   boundary; lives inside the cloud worker.
//! * `UpdateClient` (crate-private) — the edge-side state machine: updates
//!   are stashed when received and applied *atomically between frames*;
//!   each apply opens a probation window, and if the upload fraction over
//!   that window diverges from the pre-update holdout beyond the bound,
//!   the edge restores the snapshot it took before applying and reverts to
//!   the last good version.
//!
//! Determinism: epochs are pure functions of virtual arrival time, the
//! refit is a deterministic grid search over the accumulated examples in
//! served order, and updates piggyback the answer path (as their own
//! message kind, one shared `Arc` per version) with zero extra virtual
//! time and zero RNG draws — so an update-free run is bit-identical to a
//! build without this module, and an update-enabled run replays
//! bit-identically from its seeds.

use crate::{calibrate_count_area, ConfigError, LabeledExample, Thresholds};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// The [`CalibrationUpdate::format`] value written by this build.
///
/// Loading a persisted artifact with a *larger* format is a typed error
/// ([`crate::PersistError::UnsupportedVersion`]), never a panic: a fleet
/// mid-upgrade can see artifacts from the future.
pub const UPDATE_FORMAT: u32 = 1;

/// A versioned calibration artifact pushed from the cloud to its edges.
///
/// Produced by the cloud's periodic refit over accumulated pseudo-labels;
/// applied atomically between frames on the edge (see the *Model-update
/// loop* section of [`crate::CloudServer`]'s module docs). The artifact
/// carries everything an edge needs to adopt — and, on divergence, to
/// judge — the new calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationUpdate {
    /// Artifact format version (see [`UPDATE_FORMAT`]): the persistence /
    /// wire compatibility gate, distinct from the rollout `version`.
    pub format: u32,
    /// Monotonically increasing rollout version (first refit = 1; `0`
    /// denotes the factory calibration an edge booted with).
    pub version: u64,
    /// Virtual-time epoch index (`floor(arrival / epoch_s)`) whose
    /// accumulated pseudo-labels produced this refit.
    pub epoch: u64,
    /// The refit thresholds (`conf` is the regressed noise-filter value
    /// carried through the refit; `count`/`area` come from the grid).
    pub thresholds: Thresholds,
    /// Difficulty scores of the epoch's uploaded frames, sorted ascending
    /// (higher = harder): re-seeds [`crate::QuantileStream`] history so
    /// quantile policies re-rank against the drifted distribution.
    pub quantile_scores: Vec<f64>,
    /// Number of pseudo-labelled examples behind the refit.
    pub examples: usize,
    /// Training accuracy of the refit thresholds on those examples.
    pub accuracy: f64,
    /// Rollout policy: how many post-apply routing decisions the edge
    /// holds the update on probation.
    pub holdout: usize,
    /// Rollout policy: the allowed absolute change in upload fraction
    /// between the pre-update holdout window and the probation window;
    /// beyond it the edge rolls back.
    pub divergence: f64,
}

impl CalibrationUpdate {
    /// A version-0 stand-in for the factory calibration (used as the
    /// baseline artifact in tests and tooling; edges never receive it).
    pub fn factory(thresholds: Thresholds) -> CalibrationUpdate {
        CalibrationUpdate {
            format: UPDATE_FORMAT,
            version: 0,
            epoch: 0,
            thresholds,
            quantile_scores: Vec::new(),
            examples: 0,
            accuracy: 1.0,
            holdout: UpdateConfig::default().holdout,
            divergence: UpdateConfig::default().divergence,
        }
    }
}

/// Configuration of the cloud-side update loop
/// ([`crate::CloudConfig::updates`]; `None` disables the loop entirely —
/// the bit-identical default).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateConfig {
    /// Refit cadence in *virtual* seconds: a refit fires when a served
    /// frame's arrival crosses a multiple of this (and enough examples
    /// accumulated), so epochs are pure functions of virtual time.
    pub epoch_s: f64,
    /// Minimum accumulated pseudo-labels before a refit may fire; epochs
    /// with fewer keep accumulating into the next.
    pub min_examples: usize,
    /// Rollout policy stamped into each artifact: probation length in
    /// routing decisions (see [`CalibrationUpdate::holdout`]).
    pub holdout: usize,
    /// Rollout policy stamped into each artifact: divergence bound on the
    /// upload-fraction delta (see [`CalibrationUpdate::divergence`]).
    pub divergence: f64,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        UpdateConfig {
            epoch_s: 60.0,
            min_examples: 32,
            holdout: 16,
            divergence: 0.35,
        }
    }
}

impl UpdateConfig {
    /// Checks every field's range.
    ///
    /// # Errors
    ///
    /// Names the first field out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (epoch_s, divergence) = (self.epoch_s, self.divergence);
        if !(epoch_s > 0.0 && epoch_s.is_finite()) {
            let reason = format!("must be positive and finite, got {epoch_s}");
            return Err(ConfigError::new("epoch_s", reason));
        }
        if self.min_examples < 1 {
            return Err(ConfigError::new("min_examples", "must be at least 1"));
        }
        if self.holdout < 1 {
            return Err(ConfigError::new("holdout", "must be at least 1"));
        }
        if !(0.0..=1.0).contains(&divergence) {
            let reason = format!("must be in [0, 1], got {divergence}");
            return Err(ConfigError::new("divergence", reason));
        }
        Ok(())
    }
}

/// A restorable snapshot of a policy's calibrated state, taken right
/// before a [`CalibrationUpdate`] is applied so a divergence trip can roll
/// back (see [`crate::OffloadPolicy::calibration_snapshot`]).
///
/// Both fields are optional because different policies carry different
/// calibrated state: the discriminator snapshots thresholds, a
/// [`crate::QuantileStream`] its score history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationSnapshot {
    /// The discriminator thresholds in force before the update, if the
    /// policy has any.
    pub thresholds: Option<Thresholds>,
    /// The quantile score history (ascending difficulty convention, as in
    /// [`CalibrationUpdate::quantile_scores`]) before the update, if the
    /// policy keeps one.
    pub quantile_scores: Option<Vec<f64>>,
}

impl CalibrationSnapshot {
    /// `true` when the snapshot carries no restorable state.
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_none() && self.quantile_scores.is_none()
    }
}

/// Cloud-side pseudo-label accumulator and refitter (one per cloud
/// worker). Deterministic: examples arrive in served order, the refit is
/// a pure grid search, and the epoch clock is virtual arrival time.
#[derive(Debug)]
pub(crate) struct UpdatePublisher {
    cfg: UpdateConfig,
    /// Epoch index of the most recently observed frame.
    epoch: u64,
    /// Pseudo-labels accumulated since the last refit (served order).
    examples: Vec<LabeledExample>,
    /// Difficulty scores of those frames (wire-header order = served order).
    scores: Vec<f64>,
    /// The newest artifact, shared by reference with every session it is
    /// pushed to.
    current: Option<Arc<CalibrationUpdate>>,
    /// Refits produced so far (mirrors the current version).
    pub(crate) published: u64,
}

impl UpdatePublisher {
    /// A publisher for a config its cloud's entry point has checked.
    pub(crate) fn new(cfg: UpdateConfig) -> Self {
        UpdatePublisher {
            cfg,
            epoch: 0,
            examples: Vec::new(),
            scores: Vec::new(),
            current: None,
            published: 0,
        }
    }

    /// The most recent artifact, if any refit has fired.
    pub(crate) fn current(&self) -> Option<&Arc<CalibrationUpdate>> {
        self.current.as_ref()
    }

    /// The current rollout version (0 before the first refit).
    pub(crate) fn version(&self) -> u64 {
        self.current.as_ref().map_or(0, |u| u.version)
    }

    /// Records one served frame's pseudo-label; returns a freshly refit
    /// artifact when this frame's arrival crosses an epoch boundary with
    /// at least `min_examples` accumulated.
    ///
    /// The boundary check runs *before* the new example is admitted: the
    /// crossing frame belongs to the new epoch.
    pub(crate) fn observe(
        &mut self,
        example: LabeledExample,
        score: f64,
        arrival_s: f64,
    ) -> Option<Arc<CalibrationUpdate>> {
        let idx = (arrival_s / self.cfg.epoch_s) as u64;
        let fresh = if idx > self.epoch && self.examples.len() >= self.cfg.min_examples {
            Some(self.refit(idx))
        } else {
            None
        };
        self.epoch = self.epoch.max(idx);
        self.examples.push(example);
        self.scores.push(score);
        fresh
    }

    fn refit(&mut self, epoch: u64) -> Arc<CalibrationUpdate> {
        let (count, area, stats) = calibrate_count_area(&self.examples);
        let examples = self.examples.len();
        let mut quantile_scores = std::mem::take(&mut self.scores);
        quantile_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite difficulty scores"));
        self.examples.clear();
        self.published += 1;
        let update = Arc::new(CalibrationUpdate {
            format: UPDATE_FORMAT,
            version: self.published,
            epoch,
            // The noise-filter threshold is regressed from raw scores the
            // cloud never sees; the refit carries the paper's regressed
            // optimum through unchanged (calibrate_count_area's own
            // placeholder convention).
            thresholds: Thresholds {
                conf: 0.2,
                count,
                area,
            },
            quantile_scores,
            examples,
            accuracy: stats.accuracy,
            holdout: self.cfg.holdout,
            divergence: self.cfg.divergence,
        });
        self.current = Some(Arc::clone(&update));
        update
    }
}

/// Edge-side update state machine: stash → apply-between-frames →
/// probation → (on divergence) rollback.
#[derive(Debug)]
pub(crate) struct UpdateClient {
    /// Newest update received but not yet applied (the cloud's own `Arc`
    /// when edge and cloud share a process).
    pending: Option<Arc<CalibrationUpdate>>,
    /// Rollout version currently in force (0 = factory calibration).
    pub(crate) active_version: u64,
    /// Updates applied over the session's lifetime.
    pub(crate) applied: u64,
    /// Divergence rollbacks over the session's lifetime.
    pub(crate) rollbacks: u64,
    /// Recent routing decisions (true = upload), the pre-update holdout.
    window: VecDeque<bool>,
    /// Capacity of `window`: the last-applied artifact's holdout.
    window_cap: usize,
    probation: Option<Probation>,
}

#[derive(Debug)]
struct Probation {
    left: usize,
    decided: usize,
    uploads: usize,
    pre_fraction: f64,
    divergence: f64,
    fallback: CalibrationSnapshot,
    fallback_version: u64,
}

impl UpdateClient {
    pub(crate) fn new() -> Self {
        UpdateClient {
            pending: None,
            active_version: 0,
            applied: 0,
            rollbacks: 0,
            window: VecDeque::new(),
            window_cap: UpdateConfig::default().holdout,
            probation: None,
        }
    }

    /// Stashes a received update for the next between-frames apply point.
    /// Only an update strictly newer than both the active version and any
    /// already-stashed one is kept (versions are monotone per cloud, so a
    /// stale frame — e.g. replayed after a reconnect — is a no-op).
    pub(crate) fn stash(&mut self, update: impl Into<Arc<CalibrationUpdate>>) {
        let update = update.into();
        if update.version > self.active_version
            && self
                .pending
                .as_ref()
                .is_none_or(|p| update.version > p.version)
        {
            self.pending = Some(update);
        }
    }

    /// Takes the stashed update, if any (the caller applies it to its
    /// policy and reports back via [`UpdateClient::note_applied`]).
    pub(crate) fn take_pending(&mut self) -> Option<Arc<CalibrationUpdate>> {
        self.pending.take()
    }

    /// Records a successful apply: snapshots become the rollback target
    /// and a probation window opens — unless no decision history exists
    /// yet (nothing to diverge from) or the snapshot is empty (nothing to
    /// restore).
    pub(crate) fn note_applied(
        &mut self,
        update: &CalibrationUpdate,
        fallback: CalibrationSnapshot,
    ) {
        let fallback_version = self.active_version;
        self.applied += 1;
        self.active_version = update.version;
        self.window_cap = update.holdout.max(1);
        while self.window.len() > self.window_cap {
            self.window.pop_front();
        }
        if self.window.is_empty() || fallback.is_empty() {
            self.probation = None;
            return;
        }
        let pre_fraction =
            self.window.iter().filter(|&&u| u).count() as f64 / self.window.len() as f64;
        // A new update during probation restarts probation against the
        // state right before *this* apply.
        self.probation = Some(Probation {
            left: update.holdout.max(1),
            decided: 0,
            uploads: 0,
            pre_fraction,
            divergence: update.divergence,
            fallback,
            fallback_version,
        });
    }

    /// Records one routing decision. When this decision closes a probation
    /// window whose upload fraction diverged beyond the bound, returns the
    /// snapshot to restore (the caller re-applies it to its policy) and
    /// the version being reverted to.
    pub(crate) fn record_decision(&mut self, upload: bool) -> Option<(CalibrationSnapshot, u64)> {
        self.window.push_back(upload);
        while self.window.len() > self.window_cap {
            self.window.pop_front();
        }
        let probation = self.probation.as_mut()?;
        probation.decided += 1;
        probation.uploads += usize::from(upload);
        probation.left -= 1;
        if probation.left > 0 {
            return None;
        }
        let p = self.probation.take().expect("probation is live");
        let post_fraction = p.uploads as f64 / p.decided as f64;
        if (post_fraction - p.pre_fraction).abs() > p.divergence {
            self.rollbacks += 1;
            self.active_version = p.fallback_version;
            return Some((p.fallback, p.fallback_version));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CaseKind, SemanticFeatures};

    fn example(true_count: usize, area: f64, difficult: bool) -> LabeledExample {
        LabeledExample {
            scene_id: 0,
            true_count,
            true_min_area: Some(area),
            features: SemanticFeatures {
                predicted_count: true_count,
                estimated_count: true_count,
                estimated_min_area: Some(area),
            },
            label: if difficult {
                CaseKind::Difficult
            } else {
                CaseKind::Easy
            },
        }
    }

    fn publisher(epoch_s: f64, min_examples: usize) -> UpdatePublisher {
        UpdatePublisher::new(UpdateConfig {
            epoch_s,
            min_examples,
            ..UpdateConfig::default()
        })
    }

    #[test]
    fn refit_fires_on_epoch_boundary_with_enough_examples() {
        let mut p = publisher(10.0, 3);
        // Separable data: high counts are difficult.
        assert!(p.observe(example(5, 0.4, true), 3.0, 1.0).is_none());
        assert!(p.observe(example(1, 0.4, false), 1.0, 2.0).is_none());
        assert!(p.observe(example(6, 0.4, true), 4.0, 3.0).is_none());
        // Crosses the t=10 boundary with 3 examples accumulated: refit.
        let u = p
            .observe(example(1, 0.4, false), 1.5, 11.0)
            .expect("boundary crossing refits");
        assert_eq!(u.version, 1);
        assert_eq!(u.epoch, 1);
        assert_eq!(u.format, UPDATE_FORMAT);
        assert!(u.thresholds.count >= 1);
        assert_eq!(u.quantile_scores, vec![1.0, 3.0, 4.0], "sorted ascending");
        assert_eq!(p.version(), 1);
        assert_eq!(p.current().unwrap(), &u);
    }

    #[test]
    fn starved_epochs_keep_accumulating() {
        let mut p = publisher(10.0, 3);
        assert!(p.observe(example(5, 0.4, true), 3.0, 1.0).is_none());
        // Boundary crossed but only 1 example: no refit, keep the example.
        assert!(p.observe(example(1, 0.4, false), 1.0, 12.0).is_none());
        assert!(p.observe(example(6, 0.4, true), 4.0, 13.0).is_none());
        // Next boundary: 3 accumulated → refit over all of them.
        let u = p.observe(example(1, 0.4, false), 1.5, 21.0).unwrap();
        assert_eq!(u.quantile_scores.len(), 3);
        assert_eq!(u.version, 1);
    }

    #[test]
    fn versions_are_monotone() {
        let mut p = publisher(10.0, 1);
        let mut versions = Vec::new();
        for i in 0..5u64 {
            let t = 5.0 + i as f64 * 10.0;
            if let Some(u) = p.observe(example(3, 0.2, true), 1.0, t) {
                versions.push(u.version);
            }
        }
        assert_eq!(versions, vec![1, 2, 3, 4]);
    }

    #[test]
    fn client_stash_keeps_newest_and_drops_stale() {
        let mut c = UpdateClient::new();
        let mut u1 = CalibrationUpdate::factory(Thresholds::paper());
        u1.version = 1;
        let mut u2 = u1.clone();
        u2.version = 2;
        c.stash(u1.clone());
        c.stash(u2.clone());
        c.stash(u1.clone()); // stale replay: ignored
        assert_eq!(c.take_pending().unwrap().version, 2);
        assert!(c.take_pending().is_none());
        // Updates at or below the active version are ignored too.
        c.active_version = 3;
        c.stash(u2);
        assert!(c.take_pending().is_none());
    }

    #[test]
    fn divergence_trips_rollback_and_reverts_version() {
        let mut c = UpdateClient::new();
        // Build pre-update history: 0 % uploads.
        for _ in 0..8 {
            assert!(c.record_decision(false).is_none());
        }
        let mut u = CalibrationUpdate::factory(Thresholds::paper());
        u.version = 1;
        u.holdout = 4;
        u.divergence = 0.5;
        let snap = CalibrationSnapshot {
            thresholds: Some(Thresholds::paper()),
            quantile_scores: None,
        };
        c.note_applied(&u, snap.clone());
        assert_eq!(c.active_version, 1);
        assert_eq!(c.applied, 1);
        // Probation: 4 decisions, all uploads → fraction jumps 0 → 1.
        assert!(c.record_decision(true).is_none());
        assert!(c.record_decision(true).is_none());
        assert!(c.record_decision(true).is_none());
        let (restored, version) = c.record_decision(true).expect("divergence trips");
        assert_eq!(restored, snap);
        assert_eq!(version, 0);
        assert_eq!(c.active_version, 0);
        assert_eq!(c.rollbacks, 1);
    }

    #[test]
    fn small_divergence_survives_probation() {
        let mut c = UpdateClient::new();
        for i in 0..8 {
            assert!(c.record_decision(i % 2 == 0).is_none());
        }
        let mut u = CalibrationUpdate::factory(Thresholds::paper());
        u.version = 1;
        u.holdout = 4;
        u.divergence = 0.5;
        c.note_applied(
            &u,
            CalibrationSnapshot {
                thresholds: Some(Thresholds::paper()),
                quantile_scores: None,
            },
        );
        // Probation fraction 0.5 vs pre 0.5: no trip.
        for i in 0..4 {
            assert!(c.record_decision(i % 2 == 0).is_none());
        }
        assert_eq!(c.active_version, 1);
        assert_eq!(c.rollbacks, 0);
    }

    #[test]
    fn apply_without_history_or_snapshot_skips_probation() {
        let mut c = UpdateClient::new();
        let mut u = CalibrationUpdate::factory(Thresholds::paper());
        u.version = 1;
        // No decision history yet: nothing to diverge from.
        c.note_applied(
            &u,
            CalibrationSnapshot {
                thresholds: Some(Thresholds::paper()),
                quantile_scores: None,
            },
        );
        for _ in 0..32 {
            assert!(c.record_decision(true).is_none());
        }
        assert_eq!(c.rollbacks, 0);

        // History but an empty snapshot: nothing to restore.
        let mut c = UpdateClient::new();
        for _ in 0..8 {
            let _ = c.record_decision(false);
        }
        let mut u2 = u.clone();
        u2.version = 2;
        c.note_applied(&u2, CalibrationSnapshot::default());
        for _ in 0..32 {
            assert!(c.record_decision(true).is_none());
        }
        assert_eq!(c.rollbacks, 0);
    }

    #[test]
    fn zero_epoch_rejected() {
        let zero = UpdateConfig {
            epoch_s: 0.0,
            ..UpdateConfig::default()
        };
        assert_eq!(zero.validate().unwrap_err().path, "epoch_s");
    }
}
