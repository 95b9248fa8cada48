//! The two closed-loop workloads. Each has one caller that waits for
//! every result; an untraced run reports the end-to-end metrics and a
//! traced run times each layer from outside, around its public calls.
//!
//! An untraced run repeats one fixed slice of work until `--seconds` have
//! passed and reports medians over the repetitions. Every repetition
//! does bit-identical work. Set-up is timed again before every slice, so
//! its samples span the run as the slices' do.

use std::time::Instant;

use rd_tensor::{ParamSet, Runtime, Tier};
use road_decals::metrics::Cell;
use road_decals::{
    eval_fleet, Challenge, ChallengeOutcome, Deployment, EvalConfig, FleetConfig, FleetReport,
};

use crate::drives::{self, Fixture, ReplayLedger};
use crate::inputs::{self, Base, EvalInputs, TrainTimes};
use crate::report::Report;
use crate::stats::{self, Ops};

/// Drives per `eval_fleet` call, 16 per job: a fleet caller hands each
/// call many drives, so a job's runtime and arena serve drive after
/// drive. A `fleet` slice is one call per challenge of the cycle.
const FLEET_DRIVES: usize = 32;
/// Slices every untraced run measures at least.
const MIN_SLICES: usize = 3;
/// Measuring stops adding slices after this long, whatever `--seconds`.
const HARD_STOP_S: f64 = 140.0;

/// Detector fine-tune steps in one `paper-slice` slice.
const SLICE_DET_STEPS: usize = 10;
/// Decal-training steps in one `paper-slice` slice.
const SLICE_ATTACK_STEPS: usize = 16;
/// Runs per Table I cell (the paper's three).
const TABLE_RUNS: usize = 3;

/// Worker budget of a workload: threads per runtime and concurrent jobs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub threads: usize,
    pub jobs: usize,
    pub tier: Tier,
}

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSlice,
    Fleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-slice" => Some(Workload::PaperSlice),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSlice => "paper-slice",
            Workload::Fleet => "fleet",
        }
    }

    /// The pinned budget: 2 threads on the reference tier, or 2 jobs of
    /// 1 thread on the fast tier for the fleet.
    pub fn budget(self) -> Budget {
        match self {
            Workload::PaperSlice => Budget {
                threads: 2,
                jobs: 1,
                tier: Tier::Reference,
            },
            Workload::Fleet => Budget {
                threads: 1,
                jobs: 2,
                tier: Tier::Fast,
            },
        }
    }
}

/// Order-sensitive FNV-1a over `f32` bits, for determinism checks.
fn fingerprint<'a>(chunks: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for v in chunk {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn params_fingerprint(ps: &ParamSet) -> u64 {
    fingerprint(ps.iter().map(|(_, p)| p.value().data()))
}

/// Set-up times of one run. The run's inputs come from its first
/// set-up. Set-up is timed again before every slice, so its samples span
/// the run as the slices do, and every rebuild must equal the first.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    first: Option<u64>,
}

impl Setups {
    /// Times one `build`, checks its inputs' fingerprint against the
    /// first set-up's, and returns the inputs.
    fn time<T>(
        &mut self,
        ops: &mut Ops,
        build: impl FnOnce(&mut Ops) -> T,
        print: impl Fn(&T) -> u64,
    ) -> T {
        let t = Instant::now();
        let built = build(ops);
        self.secs.push(t.elapsed().as_secs_f64());
        let fp = print(&built);
        match self.first {
            None => self.first = Some(fp),
            Some(first) => {
                ops.record(first == fp, "set-up is deterministic in the seed");
            }
        }
        built
    }
}

fn base_setup(seed: u64, ops: &mut Ops, setups: &mut Setups) -> Base {
    setups.time(
        ops,
        |_| Base::new(seed, SLICE_DET_STEPS),
        |b| {
            params_fingerprint(&b.params)
                ^ fingerprint(b.data.iter().map(|s| s.image.data())).rotate_left(1)
        },
    )
}

fn eval_setup(seed: u64, ops: &mut Ops, setups: &mut Setups) -> EvalInputs {
    setups.time(
        ops,
        |ops| inputs::eval_inputs(seed, ops),
        |e| {
            params_fingerprint(&e.params)
                ^ fingerprint(e.deployment.design().map(|d| d.channel_data())).rotate_left(1)
        },
    )
}

fn fixture<'a>(base: &'a Base, params: &'a ParamSet, decals: &'a Deployment) -> Fixture<'a> {
    Fixture {
        scenario: &base.scenario,
        decals,
        model: &base.detector,
        params,
        target: road_decals::AttackConfig::paper().target_class,
    }
}

/// What one slice measured.
#[derive(Debug, Default)]
struct SliceTimes {
    /// Wall time of the whole slice.
    wall: f64,
    /// Time of its evaluation: the Table I row, or the sum of its
    /// `eval_fleet` calls.
    eval: f64,
    /// Frames the evaluation scored.
    frames: u64,
    /// Wall time of each Table I drive, in slice order (`paper-slice`).
    drives: Vec<f64>,
}

/// The samples of an untraced run's slices.
#[derive(Default)]
struct Samples {
    walls: Vec<f64>,
    evals: Vec<f64>,
    frames: u64,
    /// Every Table I drive's wall time, over all slices.
    drives: Vec<f64>,
}

impl Samples {
    fn keep_going(&self, start: Instant, seconds: f64) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed < HARD_STOP_S && (elapsed < seconds || self.walls.len() < MIN_SLICES)
    }

    fn add(&mut self, s: SliceTimes, ops: &mut Ops) {
        if self.walls.is_empty() {
            self.frames = s.frames;
        } else {
            ops.record(
                s.frames == self.frames,
                "every slice scores the same frames",
            );
        }
        self.walls.push(s.wall);
        self.evals.push(s.eval);
        self.drives.extend(s.drives);
    }

    fn report(self, report: &mut Report, ops: &mut Ops, setups: &Setups) {
        ops.record(
            self.walls.len() >= MIN_SLICES,
            "the run measured enough slices",
        );
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        report.metric("setup_s", med(&setups.secs), "s");
        report.metric("slice_s", med(&self.walls), "s");
        report.metric(
            "frames_per_s",
            ratio(self.frames as f64, med(&self.evals)),
            "1/s",
        );
        report.info_num("setups", setups.secs.len() as f64);
        report.info_num("setup_fastest_s", fastest(&setups.secs));
        report.info_num("slices", self.walls.len() as f64);
        report.info_num("slice_fastest_s", fastest(&self.walls));
        report.info_num("frames_per_slice", self.frames as f64);
        // drive latency (paper-slice)
        let ms: Vec<f64> = self.drives.iter().map(|s| s * 1e3).collect();
        if !ms.is_empty() {
            report.info_num("drives", ms.len() as f64);
            report.info_num("drive_p50_ms", p(&ms, 50.0));
        }
        if let Some(t) = stats::tail(&ms) {
            report.info_num("drive_tail_pct", t.pct);
            report.info_num("drive_tail_ms", t.value);
            report.info_num("drive_tail_beyond", t.beyond as f64);
        }
    }
}

/// Runs one untraced measurement of `w`.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64, report: &mut Report, ops: &mut Ops) {
    match w {
        Workload::PaperSlice => paper_slice(seed, seconds, report, ops),
        Workload::Fleet => fleet(seed, seconds, report, ops),
    }
}

// -------------------------------------------------------- paper-slice

/// One `paper-slice` slice: fine-tune, decal training, Table I row.
struct SliceOut {
    times: SliceTimes,
    train: TrainTimes,
    cells: Vec<Cell>,
    /// The single-run outcomes of each Table I column.
    runs: Vec<Vec<ChallengeOutcome>>,
    params: ParamSet,
    decals: Deployment,
}

/// The "Ours" Table I row on `rt`: each 3-run cell is evaluated as its
/// three single-run drives, timed one by one, and averaged.
fn table_row(
    rt: &Runtime,
    fx: &Fixture<'_>,
    row_cfg: &EvalConfig,
    times: &mut SliceTimes,
    ops: &mut Ops,
) -> (Vec<Cell>, Vec<Vec<ChallengeOutcome>>) {
    let t_row = Instant::now();
    let mut cells = Vec::new();
    let mut runs = Vec::new();
    for ch in drives::cycle() {
        let mut outs = Vec::with_capacity(TABLE_RUNS);
        for run in 0..TABLE_RUNS {
            let cfg = drives::run_as_drive(row_cfg, run);
            let t = Instant::now();
            let out = drives::drive(rt, fx, ch, &cfg);
            times.drives.push(t.elapsed().as_secs_f64());
            ops.record(out.frames_per_run > 0, "every drive scores frames");
            times.frames += out.frames_per_run as u64;
            outs.push(out);
        }
        cells.push(Cell::average(
            &outs.iter().map(|o| o.cell).collect::<Vec<_>>(),
        ));
        runs.push(outs);
    }
    times.eval = t_row.elapsed().as_secs_f64();
    (cells, runs)
}

fn one_slice(base: &Base, rt: &Runtime, ops: &mut Ops) -> SliceOut {
    let t = Instant::now();
    let mut params = base.params.clone();
    let mut train = TrainTimes::default();
    let decals = inputs::train_pipeline(
        base,
        &mut params,
        rt,
        SLICE_DET_STEPS,
        SLICE_ATTACK_STEPS,
        ops,
        &mut train,
    );
    let mut times = SliceTimes::default();
    let fx = fixture(base, &params, &decals);
    let (cells, runs) = table_row(rt, &fx, &EvalConfig::real_world(base.seed), &mut times, ops);
    times.wall = t.elapsed().as_secs_f64();
    SliceOut {
        times,
        train,
        cells,
        runs,
        params,
        decals,
    }
}

fn same_cells(a: &[Cell], b: &[Cell]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.pwc.to_bits() == y.pwc.to_bits() && x.cwc == y.cwc)
}

/// Fills plan caches and the runtime's arena before timing: a short
/// pipeline on a throwaway copy of the weights, then one drive per
/// challenge.
fn warm_paper_slice(base: &Base, rt: &Runtime, ops: &mut Ops) {
    let mut params = base.params.clone();
    let decals =
        inputs::train_pipeline(base, &mut params, rt, 1, 2, ops, &mut TrainTimes::default());
    let fx = fixture(base, &params, &decals);
    for (k, ch) in drives::cycle().into_iter().enumerate() {
        let out = drives::drive(rt, &fx, ch, &drives::drive_cfg(base.seed, k as u64));
        ops.record(out.frames_per_run > 0, "every drive scores frames");
    }
}

fn paper_slice(seed: u64, seconds: f64, report: &mut Report, ops: &mut Ops) {
    let mut setups = Setups::default();
    let base = base_setup(seed, ops, &mut setups);
    let rt = inputs::runtime(2, Tier::Reference);
    warm_paper_slice(&base, &rt, ops);
    let mut samples = Samples::default();
    let start = Instant::now();
    let mut first: Option<SliceOut> = None;
    while samples.keep_going(start, seconds) {
        base_setup(seed, ops, &mut setups);
        let mut s = one_slice(&base, &rt, ops);
        samples.add(std::mem::take(&mut s.times), ops);
        match &first {
            None => first = Some(s),
            Some(f) => {
                ops.record(
                    same_cells(&f.cells, &s.cells),
                    "every slice reproduces the Table I row bit for bit",
                );
            }
        }
    }
    let first = first.expect("at least one slice");
    // output checks, outside the timed region
    let fx = fixture(&base, &first.params, &first.decals);
    let cols = drives::cycle();
    let col = (seed % cols.len() as u64) as usize;
    let row_cfg = EvalConfig::real_world(seed);
    let whole = drives::drive(&rt, &fx, cols[col], &row_cfg);
    ops.record(
        same_cells(&[whole.cell], &first.cells[col..=col]),
        "a three-run cell equals the average of its single-run drives",
    );
    let oracle = drives::oracle_check(&rt, &fx, cols[col], &drives::run_as_drive(&row_cfg, 0));
    check_oracle(ops, &oracle, Some(&first.runs[col][0]));
    report.info_num("arena_high_water_mb", mb(rt.arena_high_water()));
    samples.report(report, ops, &setups);
}

fn check_oracle(ops: &mut Ops, o: &drives::OracleCheck, timed: Option<&ChallengeOutcome>) {
    ops.record(o.bitwise_equal, "streamed drive equals the buffered oracle");
    ops.record(
        o.peak_live_ok,
        "stream keeps at most 2 chunks of frames alive",
    );
    if let Some(t) = timed {
        ops.record(
            drives::same_outcome(&o.streamed, t),
            "re-run drive equals the timed drive",
        );
    }
}

/// Arena high-water in MB (`f32` elements).
fn mb(elements: usize) -> f64 {
    elements as f64 * 4.0 / 1e6
}

// -------------------------------------------------------------- fleet

/// One `eval_fleet` call: [`FLEET_DRIVES`] drives of challenge `k` of the
/// cycle on `jobs` supervised jobs of 1 thread, fast tier.
fn fleet_call(fx: &Fixture<'_>, seed: u64, k: usize, ch: Challenge, jobs: usize) -> FleetReport {
    let fleet = FleetConfig {
        drives: FLEET_DRIVES,
        jobs,
        threads_per_job: 1,
        tier: Tier::Fast,
        deadline: None,
        max_retries: 0,
    };
    eval_fleet(
        fx.scenario,
        fx.decals,
        fx.model,
        fx.params,
        fx.target,
        ch,
        &drives::drive_cfg(seed, k as u64),
        &fleet,
    )
}

/// Counts one `eval_fleet` call: every job must finish all its drives.
fn fleet_ok(ops: &mut Ops, rep: &FleetReport) {
    ops.record(
        rep.finished() && rep.drives_finished == rep.drives && rep.frames > 0,
        "every fleet job finishes all of its drives",
    );
}

/// One `fleet` slice: a call per challenge of the cycle, on `jobs` jobs.
fn fleet_cycle(fx: &Fixture<'_>, seed: u64, jobs: usize, ops: &mut Ops) -> SliceTimes {
    let mut times = SliceTimes::default();
    let start = Instant::now();
    for (k, ch) in drives::cycle().into_iter().enumerate() {
        let t = Instant::now();
        let rep = fleet_call(fx, seed, k, ch, jobs);
        times.eval += t.elapsed().as_secs_f64();
        fleet_ok(ops, &rep);
        times.frames += rep.frames;
    }
    times.wall = start.elapsed().as_secs_f64();
    times
}

/// Fills the model's plan caches before timing. Every `eval_fleet` call
/// builds fresh per-job runtimes and renderers, so one call warms all
/// that carries over between calls.
fn warm_fleet(fx: &Fixture<'_>, seed: u64, ops: &mut Ops) {
    fleet_ok(ops, &fleet_call(fx, seed, 0, drives::cycle()[0], 2));
}

/// The config `eval_fleet` gives drive `d` of a call configured `cfg`.
fn fleet_drive_cfg(cfg: &EvalConfig, d: u64) -> EvalConfig {
    EvalConfig {
        seed: cfg
            .seed
            .wrapping_add((d + 1).wrapping_mul(0xd1b5_4a32_d192_ed03)),
        ..*cfg
    }
}

fn fleet(seed: u64, seconds: f64, report: &mut Report, ops: &mut Ops) {
    let mut setups = Setups::default();
    let inp = eval_setup(seed, ops, &mut setups);
    let fx = fixture(&inp.base, &inp.params, &inp.deployment);
    warm_fleet(&fx, seed, ops);
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.keep_going(start, seconds) {
        // the run keeps its first inputs, whose model holds warm plans
        eval_setup(seed, ops, &mut setups);
        samples.add(fleet_cycle(&fx, seed, 2, ops), ops);
    }
    // output checks: re-run one sampled call's drives one by one on a
    // job-shaped runtime; they must score the frames the fleet reported,
    // and one must match the buffered oracle
    let rt = inputs::runtime(1, Tier::Fast);
    let cols = drives::cycle();
    let k = (seed % cols.len() as u64) as usize;
    let rep = fleet_call(&fx, seed, k, cols[k], 2);
    fleet_ok(ops, &rep);
    let cfg = drives::drive_cfg(seed, k as u64);
    let mut frames = 0u64;
    for d in 0..FLEET_DRIVES as u64 {
        let (_, st) = drives::streamed(&rt, &fx, cols[k], &fleet_drive_cfg(&cfg, d));
        frames += st.frames as u64;
    }
    ops.record(
        rep.frames == frames,
        "the fleet scores exactly the frames of its drives",
    );
    let oracle = drives::oracle_check(&rt, &fx, cols[k], &fleet_drive_cfg(&cfg, 0));
    check_oracle(ops, &oracle, None);
    samples.report(report, ops, &setups);
}

// ------------------------------------------------------------- traced

/// The workload's own slice, traced after a warm-up at the workload's
/// budget and again on one worker (a thread, or a job for the fleet).
/// Calls are timed from outside in untraced runs too, at one clock read
/// per call of 30 ms or more, so tracing adds nothing to the slice; the
/// traced run's extra cost is the serial replay, measured by
/// `stream.overlap`.
struct SliceTrace {
    /// The inputs, with the training times of the traced slice (for the
    /// fleet, of its set-up).
    inputs: EvalInputs,
    /// The traced slice at the budget.
    times: SliceTimes,
    /// Wall time of the slice on one worker.
    one_worker: f64,
}

fn trace_paper_slice(seed: u64, ops: &mut Ops, high_water: &mut usize) -> SliceTrace {
    let base = base_setup(seed, ops, &mut Setups::default());
    let rt = inputs::runtime(2, Tier::Reference);
    warm_paper_slice(&base, &rt, ops);
    let traced = one_slice(&base, &rt, ops);
    *high_water = (*high_water).max(rt.arena_high_water());
    let single = one_slice(&base, &inputs::runtime(1, Tier::Reference), ops);
    ops.record(
        same_cells(&traced.cells, &single.cells),
        "the Table I row is identical at 1 and 2 threads",
    );
    SliceTrace {
        times: traced.times,
        one_worker: single.times.wall,
        inputs: EvalInputs {
            base,
            params: traced.params,
            deployment: traced.decals,
            train: traced.train,
        },
    }
}

/// For the fleet the slice is one fleet cycle.
fn trace_fleet(seed: u64, ops: &mut Ops) -> SliceTrace {
    let inputs = eval_setup(seed, ops, &mut Setups::default());
    let fx = fixture(&inputs.base, &inputs.params, &inputs.deployment);
    warm_fleet(&fx, seed, ops);
    let times = fleet_cycle(&fx, seed, 2, ops);
    let one = fleet_cycle(&fx, seed, 1, ops);
    ops.record(
        one.frames == times.frames,
        "the fleet scores the same frames on 1 and 2 jobs",
    );
    SliceTrace {
        times,
        one_worker: one.wall,
        inputs,
    }
}

/// One traced measurement of `w`: per-layer metrics, each timed from
/// outside around the layer's public calls.
pub fn run_traced(w: Workload, seed: u64, report: &mut Report, ops: &mut Ops) {
    let budget = w.budget();
    let mut high_water = 0usize;
    let slice = match w {
        Workload::PaperSlice => trace_paper_slice(seed, ops, &mut high_water),
        Workload::Fleet => trace_fleet(seed, ops),
    };
    let train = &slice.inputs.train;

    // training layers
    let det_ms: Vec<f64> = train.det.iter().map(|s| s * 1e3).collect();
    let att_ms: Vec<f64> = train.attack.iter().map(|a| a.0 * 1e3).collect();
    let dstep_ms: Vec<f64> = train
        .attack
        .iter()
        .filter(|a| a.1)
        .map(|a| a.0 * 1e3)
        .collect();
    let (hits, misses) = train.col_cache;
    report.metric("detector_train.step_ms_p50", p(&det_ms, 50.0), "ms");
    report.metric("detector_train.step_ms_p90", p(&det_ms, 90.0), "ms");
    report.metric(
        "detector_train.col_cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    report.metric("detector_train.steps", det_ms.len() as f64, "count");
    report.metric("attack.step_ms_p50", p(&att_ms, 50.0), "ms");
    report.metric("attack.step_ms_p90", p(&att_ms, 90.0), "ms");
    report.metric("attack.dstep_ms_p50", p(&dstep_ms, 50.0), "ms");
    report.metric("attack.steps", att_ms.len() as f64, "count");
    report.metric("attack.finish_ms", train.finish * 1e3, "ms");

    // the slice: its training calls (paper-slice only) plus its
    // evaluation calls
    let traced = &slice.times;
    let attributed = match w {
        Workload::PaperSlice => train.total() + traced.eval,
        Workload::Fleet => traced.eval,
    };
    report.metric("grid.s", traced.eval, "s");
    report.metric("slice.wall_s", traced.wall, "s");
    report.metric(
        "slice.unattributed_frac",
        ratio(traced.wall - attributed, traced.wall),
        "ratio",
    );
    report.metric(
        "slice.scaling_2t",
        ratio(slice.one_worker, 2.0 * traced.wall),
        "ratio",
    );

    // drive layers: serial replay of the first cycle's drives on the
    // workload's evaluation runtime
    let inp = &slice.inputs;
    let fx = fixture(&inp.base, &inp.params, &inp.deployment);
    let eval_rt = inputs::runtime(budget.threads, budget.tier);
    let sampled: Vec<(Challenge, EvalConfig)> = drives::cycle()
        .into_iter()
        .enumerate()
        .map(|(k, ch)| (ch, drives::drive_cfg(seed, k as u64)))
        .collect();
    let mut streamed = Vec::new();
    let t = Instant::now();
    for (ch, cfg) in &sampled {
        streamed.push(drives::streamed(&eval_rt, &fx, *ch, cfg));
    }
    let stream_wall = t.elapsed().as_secs_f64();
    let mut ledger = ReplayLedger::default();
    for ((ch, cfg), (out, st)) in sampled.iter().zip(&streamed) {
        let before = (ledger.frames, ledger.chunks);
        let replayed = drives::replay(&eval_rt, &fx, *ch, cfg, &mut ledger);
        ops.record(
            drives::same_outcome(&replayed, out),
            "replayed drive equals the streamed drive",
        );
        ops.record(
            ledger.frames - before.0 == st.frames && ledger.chunks - before.1 == st.chunks,
            "replay processes the streamed frame and chunk counts",
        );
    }
    high_water = high_water.max(eval_rt.arena_high_water());
    let frames = ledger.frames as f64;
    let us = |s: f64| ratio(s * 1e6, frames);
    report.metric("scene.us_per_frame", us(ledger.scene), "us");
    report.metric("render.us_per_frame", us(ledger.render), "us");
    report.metric(
        "render.cam_hit_rate",
        ratio(ledger.cam_hits as f64, ledger.cam_lookups as f64),
        "ratio",
    );
    report.metric(
        "render.decal_hit_rate",
        ratio(ledger.decal_hits as f64, ledger.decal_lookups as f64),
        "ratio",
    );
    report.metric("batch.us_per_frame", us(ledger.batch), "us");
    report.metric(
        "infer.ms_per_batch",
        ratio(ledger.infer * 1e3, ledger.chunks as f64),
        "ms",
    );
    report.metric("decode.us_per_frame", us(ledger.decode), "us");
    report.metric(
        "decode.dets_per_frame",
        ratio(ledger.detections as f64, frames),
        "count",
    );
    report.metric("score.us_per_frame", us(ledger.score), "us");
    report.metric("replay.frames", frames, "count");
    report.metric("replay.chunks", ledger.chunks as f64, "count");
    report.metric("stream.overlap", ratio(ledger.wall, stream_wall), "ratio");
    report.metric(
        "drive.unattributed_frac",
        ratio(ledger.wall - ledger.attributed(), ledger.wall),
        "ratio",
    );

    // scaling: the sampled drives at 1 vs 2 reference threads, and a
    // fleet cycle at 1 vs 2 jobs with its throughput (on the fleet, the
    // traced slice is that cycle)
    let mut walls = [0.0f64; 2];
    for (i, threads) in [1usize, 2].into_iter().enumerate() {
        let rt = inputs::runtime(threads, Tier::Reference);
        let t = Instant::now();
        for (ch, cfg) in &sampled {
            drives::streamed(&rt, &fx, *ch, cfg);
        }
        walls[i] = t.elapsed().as_secs_f64();
    }
    let (one_job, two_jobs) = match w {
        Workload::Fleet => (slice.one_worker, slice.times),
        Workload::PaperSlice => {
            let one = fleet_cycle(&fx, seed, 1, ops).wall;
            (one, fleet_cycle(&fx, seed, 2, ops))
        }
    };
    report.metric("drive.scaling_2t", ratio(walls[0], 2.0 * walls[1]), "ratio");
    report.metric(
        "fleet.scaling_2j",
        ratio(one_job, 2.0 * two_jobs.wall),
        "ratio",
    );
    report.metric(
        "fleet.frames_per_s",
        ratio(two_jobs.frames as f64, two_jobs.eval),
        "1/s",
    );
    report.metric("arena.high_water_mb", mb(high_water), "MB");
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile, or 0 without samples.
fn p(samples: &[f64], pct: f64) -> f64 {
    stats::percentile(samples, pct).unwrap_or(0.0)
}
