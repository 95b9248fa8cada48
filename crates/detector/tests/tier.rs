//! Fast-tier equivalence on the full detector: the f32x8 tier's head
//! outputs must stay within the static `f32x8-fma` ulp certificate of
//! the reference tier and be bitwise thread-count invariant, and the
//! reference tier must stay bitwise equal to the tape.
//!
//! Each execution tier runs on its own [`Runtime`], so nothing here
//! touches process-global state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_analysis::{certify_logit_bounds, KernelModel};
use rd_detector::{postprocess, TinyYolo, YoloConfig};
use rd_tensor::{Graph, ParamSet, Runtime, RuntimeConfig, Tensor, Tier};

/// Smoke-scale detector with every parameter randomized (running
/// variances kept positive), as in the infer equivalence suite.
fn random_model(seed: u64) -> (TinyYolo, ParamSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    for (_, p) in ps.iter_mut() {
        let rvar = p.name().ends_with(".rvar");
        for v in p.value_mut().data_mut() {
            let r: f32 = rng.gen_range(-0.5..0.5);
            *v = if rvar { 0.1 + (r + 0.5) } else { *v + r };
        }
    }
    (model, ps)
}

#[test]
fn fast_tier_stays_within_the_static_certificate() {
    let (model, ps) = random_model(2024);
    let mut rng = StdRng::seed_from_u64(99);
    let n = 3;
    // Rendered frames are normalized RGB in [0, 1] — the same input box
    // the certificate is computed over.
    let data: Vec<f32> = (0..n * 3 * 64 * 64)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect();
    let x = Tensor::from_vec(data, &[n, 3, 64, 64]);

    let meta = model.infer_plan(&ps).meta();
    let bounds = certify_logit_bounds(&meta, &ps, 0.0, 1.0, &KernelModel::f32x8_fma())
        .expect("detector inference plan must certify a f32x8-fma bound");
    assert_eq!(bounds.len(), 2, "one bound per head");
    for b in &bounds {
        assert!(b.max_abs_err.is_finite() && b.max_abs_err > 0.0);
    }

    let infer_on = |tier: Tier, threads: usize| {
        let rt = Runtime::new(RuntimeConfig {
            threads,
            tier,
            profiling: false,
        });
        rt.enter(|| model.infer(&ps, &x))
    };

    // Reference tier: bitwise equal to the tape.
    let (rc, rf) = infer_on(Tier::Reference, 1);
    let mut g = Graph::new();
    let xv = g.input(x.clone());
    let out = model.forward_frozen(&mut g, &ps, xv);
    assert_eq!(g.value(out.coarse).data(), rc.data());
    assert_eq!(g.value(out.fine).data(), rf.data());

    // Fast tier: bitwise equal at 1 and 4 threads.
    let (fc, ff) = infer_on(Tier::Fast, 1);
    let (fc4, ff4) = infer_on(Tier::Fast, 4);
    assert_eq!(
        fc.data(),
        fc4.data(),
        "fast-tier coarse head drifted 1 vs 4 threads"
    );
    assert_eq!(
        ff.data(),
        ff4.data(),
        "fast-tier fine head drifted 1 vs 4 threads"
    );

    // Fast tier: each head within its certified max-abs divergence.
    for (root, (refh, fasth)) in [(&rc, &fc), (&rf, &ff)].into_iter().enumerate() {
        let cert = bounds[root].max_abs_err;
        let mut worst = 0.0f64;
        for (&a, &b) in refh.data().iter().zip(fasth.data()) {
            worst = worst.max((a as f64 - b as f64).abs());
        }
        assert!(
            worst <= cert,
            "head {root}: observed divergence {worst:.3e} exceeds certificate {cert:.3e}"
        );
    }

    // Decoded detections must not drift: same count, class, head and
    // near-identical boxes per image. Every image must decode at least
    // one detection, or the comparison would be vacuous.
    let nc = model.config().num_classes;
    let dref = postprocess(&rc, &rf, nc, 0.25, 0.45);
    let dfast = postprocess(&fc, &ff, nc, 0.25, 0.45);
    assert_eq!(dref.len(), dfast.len());
    for (img_r, img_f) in dref.iter().zip(&dfast) {
        assert!(!img_r.is_empty(), "an image decoded no detections");
        assert_eq!(img_r.len(), img_f.len(), "detection count drifted");
        for (a, b) in img_r.iter().zip(img_f) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.head, b.head);
            for (pa, pb) in [(a.cx, b.cx), (a.cy, b.cy), (a.w, b.w), (a.h, b.h)] {
                assert!((pa - pb).abs() <= 1e-4, "box drifted: {pa} vs {pb}");
            }
        }
    }
}
