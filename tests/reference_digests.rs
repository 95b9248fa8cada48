//! Bit-pinning gate for the reference tier's conv GEMMs.
//!
//! `determinism.rs`, `train_compiled.rs` and `infer.rs` compare the
//! compiled engines with the tape, but both sides call the same
//! `rd_tensor::conv` kernels, so a kernel that drifted would drift on
//! both sides and pass. This file instead checks those kernels — and a
//! short compiled detector fine-tune and decal attack built on them —
//! against FNV-1a digests captured from the scalar kernels before they
//! were vectorized. CI runs it with and without `RD_NO_SIMD=1`, so the
//! AVX2 and the portable backend must both reach these exact bits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use road_decals_repro::attack as rd;
use road_decals_repro::detector::{DetectorTrainer, TinyYolo, TrainConfig, YoloConfig};
use road_decals_repro::scene::dataset::{generate, DatasetConfig};
use road_decals_repro::scene::CameraRig;
use road_decals_repro::tensor::conv::{conv_gemm, gemm_nt, gemm_tn_over, TnLhs};
use road_decals_repro::tensor::optim::StepOutcome;
use road_decals_repro::tensor::ParamSet;

/// `(name, digest)` of each kernel output: `<config>/<layer>/<gemm>`
/// for the detector's real conv shapes, `edge/n<n>/<gemm>` for the
/// ragged and special-value shapes of [`edge_digests`].
const KERNEL_DIGESTS: &[(&str, u64)] = &[
    ("96/c1/conv_gemm", 0xc053_5d7c_3b22_1a0b),
    ("96/c1/gemm_nt", 0x90cc_ef0f_e5ca_62e0),
    ("96/c1/gemm_tn_over", 0xc08e_debc_ce05_35bb),
    ("96/c2/conv_gemm", 0xc23d_c4c1_ab75_b20e),
    ("96/c2/gemm_nt", 0xcccc_90e3_2965_37af),
    ("96/c2/gemm_tn_over", 0x51ec_bef9_f422_2387),
    ("96/c3/conv_gemm", 0x3578_2431_704a_2bef),
    ("96/c3/gemm_nt", 0x57a7_4c0a_e13d_3547),
    ("96/c3/gemm_tn_over", 0x2c49_9679_ed78_dae6),
    ("96/c4/conv_gemm", 0xa6a9_81d8_3866_63c3),
    ("96/c4/gemm_nt", 0x70c0_4c3d_1d68_f479),
    ("96/c4/gemm_tn_over", 0x19cf_73fe_037d_dce6),
    ("96/c5/conv_gemm", 0x5689_ebfb_1667_1527),
    ("96/c5/gemm_nt", 0x5174_ec2c_a227_ffd1),
    ("96/c5/gemm_tn_over", 0x7c91_aa42_3641_5421),
    ("96/c6/conv_gemm", 0x8e06_b065_2607_85a2),
    ("96/c6/gemm_nt", 0x0c4a_cac4_7d67_08a8),
    ("96/c6/gemm_tn_over", 0x8358_8e87_e5ab_3bbf),
    ("96/c7/conv_gemm", 0xa15f_d60b_72b2_fc87),
    ("96/c7/gemm_nt", 0x84b2_48d0_ee1d_a2f8),
    ("96/c7/gemm_tn_over", 0x7550_1518_ec89_72f8),
    ("96/h1pre/conv_gemm", 0x09d5_ee4a_3a5c_0687),
    ("96/h1pre/gemm_nt", 0xa915_f0e2_8f81_9a64),
    ("96/h1pre/gemm_tn_over", 0x802b_db39_5624_e0bb),
    ("96/h1/conv_gemm", 0xed3a_328b_7076_6533),
    ("96/h1/gemm_nt", 0x33ca_44f4_73ab_1946),
    ("96/h1/gemm_tn_over", 0x900d_e2b5_11e5_96e6),
    ("96/route/conv_gemm", 0xc021_5498_0fce_60df),
    ("96/route/gemm_nt", 0xec2a_cc7c_6252_f1f5),
    ("96/route/gemm_tn_over", 0xc246_1c38_4370_d7e7),
    ("96/h2pre/conv_gemm", 0x3447_3392_f8b1_8d81),
    ("96/h2pre/gemm_nt", 0xa84b_aed4_cab5_d888),
    ("96/h2pre/gemm_tn_over", 0xc3ac_1f11_72cb_f02a),
    ("96/h2/conv_gemm", 0xb608_1be7_a828_abf3),
    ("96/h2/gemm_nt", 0x62ce_3c4d_0a62_6740),
    ("96/h2/gemm_tn_over", 0x5537_2cad_7082_1e1f),
    ("64/c1/conv_gemm", 0xc5a9_75f6_70d0_c492),
    ("64/c1/gemm_nt", 0x5ab6_5784_b315_c16f),
    ("64/c1/gemm_tn_over", 0x5bf9_5c05_c8ea_f769),
    ("64/c2/conv_gemm", 0x0349_3ef8_31f3_3efa),
    ("64/c2/gemm_nt", 0xdb92_8ef7_4537_bcdd),
    ("64/c2/gemm_tn_over", 0x8541_e069_de4b_d9ad),
    ("64/c3/conv_gemm", 0x9f5b_ca5b_0f4f_f6a2),
    ("64/c3/gemm_nt", 0x1894_174c_2ee7_1891),
    ("64/c3/gemm_tn_over", 0xe014_baac_8283_2179),
    ("64/c4/conv_gemm", 0x0467_56e1_0c52_2b2b),
    ("64/c4/gemm_nt", 0x6705_cdad_3d2b_582e),
    ("64/c4/gemm_tn_over", 0x3cd0_5862_c23b_e736),
    ("64/c5/conv_gemm", 0x02ae_6853_9e86_f576),
    ("64/c5/gemm_nt", 0xd4fa_8f2d_f8e8_e585),
    ("64/c5/gemm_tn_over", 0x664a_3009_ffe5_e2a6),
    ("64/c6/conv_gemm", 0x2ff3_4136_1439_5cf8),
    ("64/c6/gemm_nt", 0xd6fc_2733_a39b_8cb8),
    ("64/c6/gemm_tn_over", 0xf51e_48e6_5938_d8c9),
    ("64/c7/conv_gemm", 0x01a6_e73c_106e_b5b3),
    ("64/c7/gemm_nt", 0x689e_f00f_23bf_28c9),
    ("64/c7/gemm_tn_over", 0xd7d3_41ef_612b_4806),
    ("64/h1pre/conv_gemm", 0x228c_86a8_38b7_a0ba),
    ("64/h1pre/gemm_nt", 0x2669_3b71_27d2_7996),
    ("64/h1pre/gemm_tn_over", 0x1248_d985_0d8a_f4ea),
    ("64/h1/conv_gemm", 0x54b8_e91d_d671_633b),
    ("64/h1/gemm_nt", 0x5459_507a_89f6_b274),
    ("64/h1/gemm_tn_over", 0x7b41_607e_faf5_6ad3),
    ("64/route/conv_gemm", 0x5a41_5f68_4ceb_03b2),
    ("64/route/gemm_nt", 0x170e_4442_534b_bf18),
    ("64/route/gemm_tn_over", 0xa338_2760_c5a7_78ee),
    ("64/h2pre/conv_gemm", 0x5e4c_059e_df15_8f20),
    ("64/h2pre/gemm_nt", 0x416a_b776_d362_fe2b),
    ("64/h2pre/gemm_tn_over", 0xbe7c_807b_8ffe_d0ac),
    ("64/h2/conv_gemm", 0xbfe3_2de7_17e4_b12c),
    ("64/h2/gemm_nt", 0xefc4_5458_a060_129c),
    ("64/h2/gemm_tn_over", 0x392c_afc8_0368_c7b6),
    ("edge/n1/conv_gemm", 0xda02_ba5f_ebf7_cee4),
    ("edge/n1/gemm_nt", 0xa073_b733_4f9f_f0e9),
    ("edge/n1/gemm_tn_over", 0x9216_3877_104a_484d),
    ("edge/n7/conv_gemm", 0xaab4_9545_7e30_7624),
    ("edge/n7/gemm_nt", 0xac67_21bb_7317_506e),
    ("edge/n7/gemm_tn_over", 0x9fc5_1a80_42c8_1480),
    ("edge/n9/conv_gemm", 0x0236_733b_b825_1998),
    ("edge/n9/gemm_nt", 0x0dde_1c64_7070_7aad),
    ("edge/n9/gemm_tn_over", 0x72f7_5412_c30a_3aed),
    ("edge/n17/conv_gemm", 0x64c2_78aa_af3d_346b),
    ("edge/n17/gemm_nt", 0x4e9a_342c_270a_6d3a),
    ("edge/n17/gemm_tn_over", 0xf64a_7545_7f03_8cb7),
    ("edge/n65/conv_gemm", 0x216b_1704_da7e_e675),
    ("edge/n65/gemm_nt", 0x75fe_535c_0ce3_57ca),
    ("edge/n65/gemm_tn_over", 0xee69_5901_4108_d924),
];

/// `(name, digest)` of the short training runs of [`training_digests`].
const TRAINING_DIGESTS: &[(&str, u64)] = &[
    ("detector/params_after_2_steps", 0x008f_25cf_d00b_1c1b),
    ("attack/decal_after_2_steps", 0x0d64_3e57_1f39_8d8a),
    ("attack/attack_loss", 0x764c_e0c6_32bc_b688),
    ("attack/adv_loss", 0xf0b3_689b_4ad7_9003),
];

/// FNV-1a over the bit patterns of `vals`. Rust leaves NaN payloads
/// unspecified, so every NaN hashes as one canonical pattern; every
/// other bit, the sign of zero included, is pinned.
fn digest(vals: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        let bits = if v.is_nan() { f32::NAN } else { *v }.to_bits();
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Deterministic operand stream (64-bit LCG), independent of any RNG
/// crate: values in `[-1, 1)` with an exact `0.0` every `zero_every`
/// elements (`0` for none).
fn operand(state: &mut u64, len: usize, zero_every: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                (*state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            }
        })
        .collect()
}

/// The three conv GEMMs on one `(o, ckk, howo)` shape, as conv forward
/// and backward call them: weights `w[o,ckk]`, columns
/// `cols[ckk,howo]` (with padding-like zeros) and an output gradient
/// `g[o,howo]` (with max-pool-like zeros).
fn conv_outputs(o: usize, ckk: usize, howo: usize, seed: u64) -> [Vec<f32>; 3] {
    let mut st = seed;
    let w = operand(&mut st, o * ckk, 0);
    let cols = operand(&mut st, ckk * howo, 11);
    let g = operand(&mut st, o * howo, 4);
    let mut fwd = vec![f32::NAN; o * howo];
    conv_gemm(&w, &cols, &mut fwd, o, ckk, howo);
    let mut gw = operand(&mut st, o * ckk, 0);
    gemm_nt(&g, &cols, &mut gw, o, howo, ckk);
    let mut gcols = vec![f32::NAN; ckk * howo];
    gemm_tn_over(&TnLhs::new(&w, o, ckk), &g, &mut gcols, howo);
    [fwd, gw, gcols]
}

/// `(name, o, ckk, howo)` of every conv in the detector at `input`
/// pixels (`WIDTHS` 8-16-32-64-96-128-64, two heads of 30 channels).
fn detector_convs(input: usize) -> Vec<(&'static str, usize, usize, usize)> {
    let g = |s: usize| (input / s) * (input / s);
    vec![
        ("c1", 8, 3 * 9, g(1)),
        ("c2", 16, 8 * 9, g(2)),
        ("c3", 32, 16 * 9, g(4)),
        ("c4", 64, 32 * 9, g(8)),
        ("c5", 96, 64 * 9, g(16)),
        ("c6", 128, 96 * 9, g(32)),
        ("c7", 64, 128, g(32)),
        ("h1pre", 128, 64 * 9, g(32)),
        ("h1", 30, 128, g(32)),
        ("route", 32, 64, g(32)),
        ("h2pre", 128, 128 * 9, g(16)),
        ("h2", 30, 128, g(16)),
    ]
}

const GEMMS: [&str; 3] = ["conv_gemm", "gemm_nt", "gemm_tn_over"];

fn detector_digests() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for input in [96usize, 64] {
        for (i, (layer, o, ckk, howo)) in detector_convs(input).into_iter().enumerate() {
            let outs = conv_outputs(o, ckk, howo, 1000 * input as u64 + i as u64);
            for (gemm, out) in GEMMS.iter().zip(&outs) {
                rows.push((format!("{input}/{layer}/{gemm}"), digest(out)));
            }
        }
    }
    rows
}

/// Shapes around the register tile's edges: widths that are not a
/// multiple of the 8-lane vector, row counts that are not a multiple of
/// the row tile, `k = 0`, and special values — exact zeros of both
/// signs in `a` (skipped terms, `-0.0` products) and infinities in `b`,
/// some behind a zero `a` (skipped by the forward and grad-input GEMMs,
/// `NaN` in the grad-weight GEMM, which skips nothing).
fn edge_digests() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for n in [1usize, 7, 9, 17, 65] {
        let mut parts: [Vec<f32>; 3] = Default::default();
        for (m, k) in [(1usize, 0usize), (3, 1), (5, 2), (6, 17), (13, 40)] {
            let mut st = (n * 100 + m * 10 + k) as u64;
            let mut a = operand(&mut st, m * k, 3);
            for (i, v) in a.iter_mut().enumerate() {
                if i % 7 == 5 {
                    *v = -0.0;
                }
            }
            let mut b = operand(&mut st, k * n, 5);
            for (i, v) in b.iter_mut().enumerate() {
                if i % 23 == 22 {
                    *v = if i % 2 == 0 {
                        f32::INFINITY
                    } else {
                        f32::NEG_INFINITY
                    };
                }
            }
            // forward: a[m,k] × b[k,n]
            let mut fwd = vec![f32::NAN; m * n];
            conv_gemm(&a, &b, &mut fwd, m, k, n);
            // grad-weight: a[m,k] × (b as [n,k])ᵀ onto a base with -0.0s
            let mut gw = operand(&mut st, m * n, 2);
            for v in gw.iter_mut().step_by(4) {
                *v = -0.0;
            }
            gemm_nt(&a, &b, &mut gw, m, k, n);
            // grad-input: (a as [k,m])ᵀ × b[k,n]
            let mut gx = vec![f32::NAN; m * n];
            gemm_tn_over(&TnLhs::new(&a, k, m), &b, &mut gx, n);
            for (part, out) in parts.iter_mut().zip([fwd, gw, gx]) {
                part.extend(out);
            }
        }
        for (gemm, part) in GEMMS.iter().zip(&parts) {
            rows.push((format!("edge/n{n}/{gemm}"), digest(part)));
        }
    }
    rows
}

/// Two compiled smoke-scale detector fine-tune steps (every trained
/// parameter and BN running stat), and two smoke attack steps against
/// a fresh detector (decal, attack and adversarial losses).
fn training_digests() -> Vec<(String, u64)> {
    let data = generate(&DatasetConfig {
        rig: CameraRig::smoke(),
        n_images: 8,
        seed: 77,
        augment: false,
    });
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 4,
        lr: 5e-4,
        compiled: true,
        ..TrainConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    let mut trainer = DetectorTrainer::new(&model, &mut ps, &data, cfg);
    for _ in 0..2 {
        match trainer.step(None) {
            StepOutcome::Ran { .. } => {}
            StepOutcome::NonFinite { detail } => panic!("non-finite fine-tune step: {detail}"),
        }
    }
    drop(trainer);
    let params: Vec<f32> = ps
        .iter()
        .flat_map(|(_, p)| p.value().data().to_vec())
        .collect();

    let mut rng = StdRng::seed_from_u64(3);
    let mut ps_det = ParamSet::new();
    let detector = TinyYolo::new(&mut ps_det, &mut rng, YoloConfig::smoke());
    let scenario = rd::scenario::AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
    let attack = rd::attack::AttackConfig {
        steps: 2,
        clips_per_batch: 1,
        ..rd::attack::AttackConfig::smoke()
    };
    let out = rd::attack::train_decal_attack(&scenario, &detector, &mut ps_det, &attack);
    vec![
        ("detector/params_after_2_steps".to_string(), digest(&params)),
        (
            "attack/decal_after_2_steps".to_string(),
            digest(out.decal.channel_data()),
        ),
        ("attack/attack_loss".to_string(), digest(&out.attack_loss)),
        ("attack/adv_loss".to_string(), digest(&out.adv_loss)),
    ]
}

/// Asserts `got` equals the checked-in `want` row for row; on any
/// difference the panic lists the rows that moved and prints the whole
/// computed table in source form.
fn assert_table(table: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let moved: Vec<String> = got
        .iter()
        .filter(|(name, d)| !want.iter().any(|(w, wd)| w == name && wd == d))
        .map(|(name, _)| name.clone())
        .collect();
    if moved.is_empty() && got.len() == want.len() {
        return;
    }
    let source: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    panic!(
        "{table}: {} of {} digests differ from the checked-in table ({} rows): {moved:?}\n\
         computed table:\n{source}",
        moved.len(),
        got.len(),
        want.len()
    );
}

#[test]
fn conv_gemms_reproduce_the_scalar_reference_digests() {
    let mut rows = detector_digests();
    rows.extend(edge_digests());
    assert_table("KERNEL_DIGESTS", &rows, KERNEL_DIGESTS);
}

#[test]
fn short_training_runs_reproduce_the_scalar_reference_digests() {
    assert_table("TRAINING_DIGESTS", &training_digests(), TRAINING_DIGESTS);
}
