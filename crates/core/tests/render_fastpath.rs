//! Property gate for the render fast path (PR 10): the pose-keyed,
//! arena-backed [`FrameRenderer`] must produce frames **bitwise
//! identical** to the fresh per-frame path
//! ([`render_attacked_frame`]) for arbitrary poses, decal counts,
//! channel configurations and mono/RGB decals — on cache misses and on
//! cache hits alike. Both paths must also reproduce a checked-in table
//! of frame digests captured from the seed-era renderer, and the cached
//! path must attribute its stages to the profiler. CI runs this file on
//! both SIMD backends (`RD_NO_SIMD=1` re-run).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use rd_scene::{CameraPose, CameraRig, PhysicalChannel};
use rd_tensor::{Runtime, RuntimeConfig, Tensor};
use rd_vision::shapes::{mask, Shape};
use rd_vision::{Image, Plane};

use road_decals::eval::{render_attacked_frame, EvalConfig};
use road_decals::render::FrameRenderer;
use road_decals::scenario::AttackScenario;
use road_decals::Decal;

fn channel(idx: u8) -> PhysicalChannel {
    match idx % 3 {
        0 => PhysicalChannel::digital(),
        1 => PhysicalChannel::simulated(),
        _ => PhysicalChannel::real_world(),
    }
}

fn decal(rgb: bool, level: f32) -> Decal {
    let m = mask(Shape::Star, 16);
    if rgb {
        let data: Vec<f32> = (0..3 * 16 * 16)
            .map(|i| (level + i as f32 * 0.003) % 1.0)
            .collect();
        Decal::rgb(&Tensor::from_vec(data, &[3, 16, 16]), m, Shape::Star)
    } else {
        Decal::mono(&Plane::new(16, 16, level), m, Shape::Star)
    }
}

/// Frame digests of the seed-era renderer (full-grid homography scan,
/// entry-order scatter, per-frame background and canvas clones),
/// captured from it before it was retired. Rows are `(z_near,
/// lateral_m, yaw, roll, motion, digest)`: one fixed rotation-challenge
/// pose, then eight slow-approach poses with motion blur. Row `i` is
/// rendered with frame seed `900 + i` by [`digest_inputs`].
const SEED_RENDERER_DIGESTS: [(f32, f32, f32, f32, f32, u64); 9] = [
    (2.2, 0.0, 0.0, 0.0, 0.0, 0x4ec0_2902_7c0c_b3cc),
    (
        4.5,
        -0.03302555,
        0.009349575,
        0.006420048,
        0.5208334,
        0xe125_ae8d_3aa8_a5f6,
    ),
    (
        3.9791665,
        0.030167803,
        0.0063386112,
        -0.004723471,
        0.5208334,
        0x759d_ca77_90bf_ea6a,
    ),
    (
        3.458333,
        0.0016918853,
        0.003581034,
        -0.0034763683,
        0.5208334,
        0xa80f_53d2_f8f2_6ab3,
    ),
    (
        2.9374995,
        0.024009801,
        -0.008893969,
        0.0011551222,
        0.5208334,
        0xcecb_800c_e012_4e1f,
    ),
    (
        2.416666,
        0.024143986,
        0.004526969,
        0.008735005,
        0.5208334,
        0x1550_8bb8_aae6_0f3a,
    ),
    (
        4.5,
        0.012379132,
        0.0064161923,
        0.001359568,
        0.5208334,
        0xe0c1_074b_f66d_4d92,
    ),
    (
        3.9791665,
        0.019445729,
        0.007922102,
        -0.004853375,
        0.5208334,
        0x5f82_eb92_52d6_dba8,
    ),
    (
        3.458333,
        0.013494354,
        -0.007410134,
        0.009457229,
        0.5208334,
        0x95de_1348_6f81_62b6,
    ),
];

/// FNV-1a over the bit patterns of a frame's samples.
fn frame_digest(img: &Image) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in img.data() {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest table's inputs: two decal sites, a textured mono decal on
/// the first and an RGB decal on the second (so both compositing
/// branches are pinned), on the noise-bearing simulated channel.
fn digest_inputs() -> (AttackScenario, Vec<Decal>, EvalConfig) {
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
    let cfg = EvalConfig {
        channel: PhysicalChannel::simulated(),
        ..EvalConfig::smoke(17)
    };
    let m = mask(Shape::Star, 16);
    let mono: Vec<f32> = (0..16 * 16)
        .map(|i| (i % 16) as f32 / 15.0 * 0.6 + 0.2)
        .collect();
    let printed = vec![
        Decal::mono(&Plane::from_vec(mono, 16, 16), m.clone(), Shape::Star),
        decal(true, 0.3),
    ];
    (scenario, printed, cfg)
}

/// Renders one frame on the cached path with the draw stream of `seed`.
fn render_cached(
    renderer: &FrameRenderer,
    (scenario, printed, cfg): &(AttackScenario, Vec<Decal>, EvalConfig),
    pose: &CameraPose,
    motion: f32,
    seed: u64,
) -> Image {
    let mut rng = StdRng::seed_from_u64(seed);
    let draws = cfg
        .channel
        .capture
        .sample_draws(scenario.rig.image_hw, &mut rng);
    let frame = renderer.render(scenario, printed, pose, cfg, motion, &draws);
    draws.recycle();
    frame
}

#[test]
fn fresh_and_cached_paths_reproduce_the_seed_renderer_digests() {
    let inputs = digest_inputs();
    let (scenario, printed, cfg) = &inputs;
    let renderer = FrameRenderer::new(scenario);
    for (row, &(z_near, lateral_m, yaw, roll, motion, want)) in
        SEED_RENDERER_DIGESTS.iter().enumerate()
    {
        let pose = CameraPose {
            z_near,
            lateral_m,
            yaw,
            roll,
        };
        let seed = 900 + row as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let fresh = render_attacked_frame(scenario, printed, &pose, cfg, motion, &mut rng);
        assert_eq!(frame_digest(&fresh), want, "fresh path, pose {row}");
        for round in ["cold", "warm"] {
            let fast = render_cached(&renderer, &inputs, &pose, motion, seed);
            assert_eq!(frame_digest(&fast), want, "{round} cached path, pose {row}");
            rd_tensor::arena::recycle(fast.into_vec());
        }
    }
    let stats = renderer.cache_stats();
    assert_eq!(stats.cam_misses, SEED_RENDERER_DIGESTS.len());
    assert_eq!(stats.cam_hits, SEED_RENDERER_DIGESTS.len());
}

#[test]
fn cached_render_attributes_its_stages_to_the_profiler() {
    let inputs = digest_inputs();
    let renderer = FrameRenderer::new(&inputs.0);
    let rt = Runtime::new(RuntimeConfig {
        profiling: true,
        ..RuntimeConfig::default()
    });
    let snap = rt.enter(|| {
        let pose = CameraPose {
            z_near: 2.2,
            lateral_m: 0.0,
            yaw: 0.0,
            roll: 0.0,
        };
        let f = render_cached(&renderer, &inputs, &pose, 0.0, 43);
        rd_tensor::arena::recycle(f.into_vec());
        rd_tensor::profile::snapshot()
    });
    for key in ["render/world", "render/decals", "render/capture"] {
        assert!(
            snap.iter().any(|(k, _)| k == key),
            "profiler did not attribute {key}: {:?}",
            snap.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached/pooled rendering is bit-identical to the fresh path: same
    /// frame bits and the same number of RNG draws, twice per pose so
    /// the second render exercises every cache-hit path.
    #[test]
    fn fast_path_matches_fresh_path_bitwise(
        z_near in 1.0f32..8.0,
        lateral_m in -1.0f32..1.0,
        yaw in -0.3f32..0.3,
        roll in -0.2f32..0.2,
        n_decals in 0usize..4,
        rgb in any::<bool>(),
        chan_idx in 0u8..3,
        level in 0.0f32..1.0,
        motion in 0.0f32..0.2,
        seed in any::<u64>(),
    ) {
        let rig = CameraRig::smoke();
        let scenario = AttackScenario::parking_lot(rig, 4, 60, 16, 11);
        let cfg = EvalConfig {
            channel: channel(chan_idx),
            ..EvalConfig::smoke(1)
        };
        let printed: Vec<Decal> = (0..n_decals)
            .map(|i| decal(rgb, (level + i as f32 * 0.1) % 1.0))
            .collect();
        let pose = CameraPose { z_near, lateral_m, yaw, roll };
        let renderer = FrameRenderer::new(&scenario);
        for round in 0..2 {
            let mut fresh_rng = StdRng::seed_from_u64(seed);
            let fresh =
                render_attacked_frame(&scenario, &printed, &pose, &cfg, motion, &mut fresh_rng);
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let draws = cfg.channel.capture.sample_draws(rig.image_hw, &mut fast_rng);
            let fast = renderer.render(&scenario, &printed, &pose, &cfg, motion, &draws);
            draws.recycle();
            prop_assert_eq!(fresh.data().len(), fast.data().len());
            for (i, (a, b)) in fresh.data().iter().zip(fast.data()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pixel {} drifted on round {} ({} vs {})",
                    i,
                    round,
                    a,
                    b
                );
            }
            // draw-count parity: both paths must leave the RNG at the
            // same stream position, or run-level sequencing would drift
            prop_assert_eq!(fresh_rng.next_u64(), fast_rng.next_u64());
            rd_tensor::arena::recycle(fast.into_vec());
        }
        let stats = renderer.cache_stats();
        prop_assert!(stats.cam_hits >= 1, "second render must hit the pose cache");
    }
}
