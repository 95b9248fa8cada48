//! Minimal IoU-based multi-object tracking — the stage between raw
//! per-frame detections and the AV's consecutive-frame confirmation.
//!
//! The paper argues that AVs act only on *temporally consistent*
//! detections; [`Tracker`] makes that concrete: detections are associated
//! across frames by IoU, each track carries its own [`Confirmer`], and a
//! track surfaces as [`TrackState::Confirmed`] only after its class has
//! been stable for the confirmation window. The decal attack's CWC
//! condition is exactly "some track confirms the target class".

use rd_scene::{GtBox, ObjectClass};

use crate::confirm::Confirmer;
use crate::decode::Detection;

/// Lifecycle state of a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackState {
    /// Seen, but not yet stable for the confirmation window.
    Tentative,
    /// Class held for the confirmation window — the AV would act on it.
    Confirmed,
}

/// One tracked object.
#[derive(Debug, Clone)]
pub struct Track {
    /// Stable identifier, unique within the tracker's lifetime.
    pub id: u64,
    /// Last associated box.
    pub bbox: GtBox,
    /// Class of the last associated detection.
    pub class: ObjectClass,
    /// Lifecycle state.
    pub state: TrackState,
    /// Frames since the last association.
    pub misses: usize,
    /// Total associations.
    pub hits: usize,
    confirmer: Confirmer,
    confirmed_class: Option<ObjectClass>,
}

impl Track {
    /// The class the track confirmed, if any (stays set even if the class
    /// later drifts — an AV has already reacted).
    pub fn confirmed_class(&self) -> Option<ObjectClass> {
        self.confirmed_class
    }
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Minimum IoU to associate a detection with an existing track.
    pub iou_threshold: f32,
    /// Frames a track survives without an association.
    pub max_misses: usize,
    /// Consecutive same-class frames required to confirm.
    pub confirm_window: usize,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            iou_threshold: 0.3,
            max_misses: 2,
            confirm_window: 3,
        }
    }
}

/// Greedy IoU tracker.
///
/// # Examples
///
/// ```
/// use rd_detector::{Tracker, TrackerConfig};
///
/// let mut tracker = Tracker::new(TrackerConfig::default());
/// // feed per-frame detections with tracker.step(&detections)
/// assert_eq!(tracker.tracks().len(), 0);
/// ```
#[derive(Debug)]
pub struct Tracker {
    cfg: TrackerConfig,
    tracks: Vec<Track>,
    next_id: u64,
}

impl Tracker {
    /// Creates an empty tracker.
    pub fn new(cfg: TrackerConfig) -> Self {
        Tracker {
            cfg,
            tracks: Vec::new(),
            next_id: 0,
        }
    }

    /// Live tracks after the last step.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Whether any track has ever confirmed `class`.
    pub fn ever_confirmed(&self, class: ObjectClass) -> bool {
        self.tracks
            .iter()
            .any(|t| t.confirmed_class() == Some(class))
    }

    /// Advances one frame. Detections are greedily matched to tracks by
    /// descending IoU; unmatched detections spawn new tracks; stale tracks
    /// are dropped. Returns the ids of tracks that *newly confirmed* a
    /// class this frame.
    pub fn step(&mut self, detections: &[Detection]) -> Vec<(u64, ObjectClass)> {
        // candidate pairs sorted by IoU
        let mut pairs: Vec<(usize, usize, f32)> = Vec::new();
        for (ti, track) in self.tracks.iter().enumerate() {
            for (di, det) in detections.iter().enumerate() {
                let iou = det.iou(&track.bbox);
                if iou >= self.cfg.iou_threshold {
                    pairs.push((ti, di, iou));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.total_cmp(&a.2));
        let mut track_used = vec![false; self.tracks.len()];
        let mut det_used = vec![false; detections.len()];
        let mut assigned: Vec<(usize, usize)> = Vec::new();
        for (ti, di, _) in pairs {
            if !track_used[ti] && !det_used[di] {
                track_used[ti] = true;
                det_used[di] = true;
                assigned.push((ti, di));
            }
        }

        let mut newly_confirmed = Vec::new();
        // update matched tracks
        for &(ti, di) in &assigned {
            let det = &detections[di];
            let track = &mut self.tracks[ti];
            track.bbox = det.to_box();
            track.class = det.class;
            track.misses = 0;
            track.hits += 1;
            if let Some(confirmed) = track.confirmer.push(Some(det.class)) {
                track.state = TrackState::Confirmed;
                if track.confirmed_class.is_none() {
                    track.confirmed_class = Some(confirmed);
                }
                newly_confirmed.push((track.id, confirmed));
            }
        }
        // age unmatched tracks
        for (ti, used) in track_used.iter().enumerate() {
            if !used {
                let track = &mut self.tracks[ti];
                track.misses += 1;
                track.confirmer.push(None);
            }
        }
        self.tracks.retain(|t| t.misses <= self.cfg.max_misses);
        // spawn new tracks
        for (di, det) in detections.iter().enumerate() {
            if det_used[di] {
                continue;
            }
            let mut confirmer = Confirmer::new(self.cfg.confirm_window);
            let first = confirmer.push(Some(det.class));
            let mut track = Track {
                id: self.next_id,
                bbox: det.to_box(),
                class: det.class,
                state: TrackState::Tentative,
                misses: 0,
                hits: 1,
                confirmer,
                confirmed_class: None,
            };
            if let Some(c) = first {
                track.state = TrackState::Confirmed;
                track.confirmed_class = Some(c);
                newly_confirmed.push((track.id, c));
            }
            self.next_id += 1;
            self.tracks.push(track);
        }
        newly_confirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(class: ObjectClass, cx: f32, conf: f32) -> Detection {
        let mut probs = vec![0.0; 5];
        probs[class.index()] = 1.0;
        Detection {
            class,
            class_probs: probs,
            objectness: conf,
            cx,
            cy: 0.5,
            w: 0.3,
            h: 0.3,
            head: 0,
            anchor: 0,
            cell: (0, 0),
        }
    }

    #[test]
    fn stable_detection_confirms_after_window() {
        let mut tr = Tracker::new(TrackerConfig::default());
        assert!(tr.step(&[det(ObjectClass::Car, 0.5, 0.9)]).is_empty());
        assert!(tr.step(&[det(ObjectClass::Car, 0.51, 0.9)]).is_empty());
        let confirmed = tr.step(&[det(ObjectClass::Car, 0.52, 0.9)]);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].1, ObjectClass::Car);
        assert!(tr.ever_confirmed(ObjectClass::Car));
        assert_eq!(tr.tracks().len(), 1);
        assert_eq!(tr.tracks()[0].state, TrackState::Confirmed);
        assert_eq!(tr.tracks()[0].hits, 3);
    }

    #[test]
    fn flickering_class_never_confirms() {
        let mut tr = Tracker::new(TrackerConfig::default());
        for i in 0..8 {
            let class = if i % 2 == 0 {
                ObjectClass::Car
            } else {
                ObjectClass::Word
            };
            assert!(tr.step(&[det(class, 0.5, 0.9)]).is_empty());
        }
        assert!(!tr.ever_confirmed(ObjectClass::Car));
        assert!(!tr.ever_confirmed(ObjectClass::Word));
    }

    #[test]
    fn separate_objects_get_separate_tracks() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.step(&[
            det(ObjectClass::Car, 0.2, 0.9),
            det(ObjectClass::Person, 0.8, 0.8),
        ]);
        assert_eq!(tr.tracks().len(), 2);
        let ids: Vec<u64> = tr.tracks().iter().map(|t| t.id).collect();
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn stale_tracks_are_dropped() {
        let mut tr = Tracker::new(TrackerConfig {
            max_misses: 1,
            ..TrackerConfig::default()
        });
        tr.step(&[det(ObjectClass::Car, 0.5, 0.9)]);
        assert_eq!(tr.tracks().len(), 1);
        tr.step(&[]);
        assert_eq!(tr.tracks().len(), 1); // one miss allowed
        tr.step(&[]);
        assert_eq!(tr.tracks().len(), 0); // dropped
    }

    #[test]
    fn track_identity_survives_small_motion() {
        let mut tr = Tracker::new(TrackerConfig::default());
        tr.step(&[det(ObjectClass::Car, 0.50, 0.9)]);
        let id = tr.tracks()[0].id;
        tr.step(&[det(ObjectClass::Car, 0.55, 0.9)]);
        assert_eq!(tr.tracks().len(), 1);
        assert_eq!(tr.tracks()[0].id, id);
    }

    #[test]
    fn interruption_resets_confirmation_progress() {
        let mut tr = Tracker::new(TrackerConfig {
            max_misses: 5,
            ..TrackerConfig::default()
        });
        tr.step(&[det(ObjectClass::Car, 0.5, 0.9)]);
        tr.step(&[det(ObjectClass::Car, 0.5, 0.9)]);
        tr.step(&[]); // gap: confirmer sees None
        tr.step(&[det(ObjectClass::Car, 0.5, 0.9)]);
        tr.step(&[det(ObjectClass::Car, 0.5, 0.9)]);
        assert!(!tr.ever_confirmed(ObjectClass::Car));
        let confirmed = tr.step(&[det(ObjectClass::Car, 0.5, 0.9)]);
        assert_eq!(confirmed.len(), 1);
    }
}
