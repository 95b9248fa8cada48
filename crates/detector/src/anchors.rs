//! Anchor boxes and head geometry for the two-scale detection head.

/// Anchors and stride of one detection head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadSpec {
    /// Input-pixels per grid cell.
    pub stride: usize,
    /// Anchor `(width, height)` pairs in normalized image units.
    pub anchors: [(f32, f32); 3],
}

/// Anchors per head.
pub const ANCHORS_PER_HEAD: usize = 3;

/// The two heads of the scaled YOLOv3-tiny: a coarse stride-32 head for
/// large/near objects and a fine stride-16 head for small/far objects.
/// Anchor shapes were chosen from the procedural dataset's box statistics
/// (the same way the paper's anchors come from its fine-tuning dataset).
pub fn head_specs() -> [HeadSpec; 2] {
    [
        HeadSpec {
            stride: 32,
            anchors: [(0.34, 0.28), (0.55, 0.42), (0.85, 0.66)],
        },
        HeadSpec {
            stride: 16,
            anchors: [(0.10, 0.08), (0.17, 0.13), (0.25, 0.20)],
        },
    ]
}

/// Shape-only IoU between two boxes of the given sizes (both centred at
/// the origin) — the rule for anchor assignment.
pub fn shape_iou(w1: f32, h1: f32, w2: f32, h2: f32) -> f32 {
    let inter = w1.min(w2) * h1.min(h2);
    let union = w1 * h1 + w2 * h2 - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Picks the `(head, anchor)` pair whose shape best matches a box.
pub fn best_anchor(w: f32, h: f32) -> (usize, usize) {
    let specs = head_specs();
    let mut best = (0, 0);
    let mut best_iou = -1.0;
    for (hi, spec) in specs.iter().enumerate() {
        for (ai, &(aw, ah)) in spec.anchors.iter().enumerate() {
            let iou = shape_iou(w, h, aw, ah);
            if iou > best_iou {
                best_iou = iou;
                best = (hi, ai);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_iou_bounds() {
        assert!((shape_iou(0.2, 0.2, 0.2, 0.2) - 1.0).abs() < 1e-6);
        assert!(shape_iou(0.1, 0.1, 0.9, 0.9) < 0.05);
    }

    #[test]
    fn large_boxes_go_to_coarse_head() {
        let (head, _) = best_anchor(0.8, 0.6);
        assert_eq!(head, 0);
    }

    #[test]
    fn small_boxes_go_to_fine_head() {
        let (head, _) = best_anchor(0.1, 0.08);
        assert_eq!(head, 1);
    }

    #[test]
    fn anchors_are_distinct_and_sorted_by_area() {
        for spec in head_specs() {
            for w in spec.anchors.windows(2) {
                assert!(w[0].0 * w[0].1 < w[1].0 * w[1].1);
            }
        }
    }
}
