//! The one lowering of a shape-only `declare` tape into a plan.
//!
//! [`lower`] walks a metadata-only tape built with [`Graph::declare`]
//! (at batch 1) once, in tape order — the tape *is* a topological
//! order — and produces a [`Lowered`] plan: a flat op list over
//! numbered activation slots, with each slot's per-sample shape.
//! Parameters are referenced by [`ParamId`] (carried on the declare
//! nodes as `pid` attrs), so a lowered plan survives weight updates;
//! values are read fresh from the [`crate::ParamSet`] at execution
//! time.
//!
//! Both compiled engines wrap the same `Lowered` value and differ only
//! in their executor: [`crate::InferPlan`] runs it per sample without
//! gradients, [`crate::TrainPlan`] runs it full-batch forward and
//! backward. [`Lowered::meta`] lifts exactly that op list into the
//! plain-data [`PlanMeta`] the static analyzer audits, so the analyzer
//! sees the ops the executors run.
//!
//! ## Fusion
//!
//! Fusion is peephole over the tape order: `add_bias_channel`,
//! `batch_norm2d_eval` / `batch_norm2d_train`, `leaky_relu` and `relu`
//! fold into the immediately preceding conv when that conv's output is
//! their input — which in a declare lowering implies the intermediate
//! value has no other consumer — in the canonical order
//! `conv2d → [bias | bn] → [activation]`. A leaky activation only fuses
//! when `alpha > 0`, the condition under which the train backward may
//! reconstruct the input's sign from the fused output; otherwise it
//! stays a standalone op, which computes the same bits.
//!
//! ## Targets
//!
//! The [`PlanKind`] target adds capability checks, never a second rule
//! set: the train target has no backward for `relu`, `sigmoid` or
//! `linear` and rejects them, the infer target has no batch statistics
//! and rejects `batch_norm2d_train`. The target also picks the
//! `infer/` or `train/` prefix of every op's profile path.

use crate::graph::{Graph, OpMeta, VarId};
use crate::params::ParamId;
use crate::plan_meta::{ConvGeom, ParamRef, ParamRole, PlanKind, PlanMeta, PlanOpMeta, SlotMeta};
use crate::simd;

/// Batch-norm half of a fused conv. Eval mode folds the running
/// statistics per channel at execution time (`scale = gamma /
/// sqrt(rvar + eps)`, `shift = beta - rmean * scale`); train mode uses
/// batch statistics and reports them back for the momentum fold into
/// `rmean`/`rvar`.
#[derive(Debug, Clone)]
pub(crate) struct BnRef {
    pub gamma: ParamId,
    pub beta: ParamId,
    pub rmean: ParamId,
    pub rvar: ParamId,
    pub eps: f32,
    pub train: bool,
}

/// One fused convolution: conv + optional bias or batch norm + optional
/// leaky or relu activation.
#[derive(Debug, Clone)]
pub(crate) struct ConvOp {
    pub x: usize,
    pub out: usize,
    pub w: ParamId,
    pub bias: Option<ParamId>,
    pub bn: Option<BnRef>,
    pub leaky: Option<f32>,
    pub relu: bool,
    pub geom: ConvGeom,
}

impl ConvOp {
    /// The fused activation as a fast-tier epilogue tag.
    pub fn act(&self) -> simd::Act {
        if let Some(alpha) = self.leaky {
            simd::Act::Leaky(alpha)
        } else if self.relu {
            simd::Act::Relu
        } else {
            simd::Act::None
        }
    }

    /// The fused tape ops in execution order, each with its suffix in
    /// the kernel name (`conv_bn_leaky`, ...).
    fn stages(&self) -> Vec<(&'static str, &'static str)> {
        let bn = match &self.bn {
            Some(bn) if bn.train => Some("batch_norm2d_train"),
            Some(_) => Some("batch_norm2d_eval"),
            None => None,
        };
        [
            Some(("conv2d", "conv")),
            self.bias.map(|_| ("add_bias_channel", "_bias")),
            bn.map(|op| (op, "_bn")),
            self.leaky.map(|_| ("leaky_relu", "_leaky")),
            self.relu.then_some(("relu", "_relu")),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    fn name(&self) -> String {
        self.stages().iter().map(|(_, suffix)| *suffix).collect()
    }

    /// Whether a bias, batch norm or activation may still fold in.
    fn is_bare(&self) -> bool {
        self.bias.is_none() && self.bn.is_none() && self.leaky.is_none() && !self.relu
    }
}

/// Executable op kinds. Slot indices refer to activation buffers; the
/// executors decide whether a slot holds one sample or the full batch.
#[derive(Debug, Clone)]
pub(crate) enum OpKind {
    Conv(ConvOp),
    MaxPool {
        x: usize,
        out: usize,
        k: usize,
        stride: usize,
        c: usize,
        h: usize,
        w: usize,
        ho: usize,
        wo: usize,
    },
    Upsample2x {
        x: usize,
        out: usize,
        c: usize,
        h: usize,
        w: usize,
    },
    Concat {
        a: usize,
        b: usize,
        out: usize,
        ca: usize,
        cb: usize,
        hw: usize,
    },
    Leaky {
        x: usize,
        out: usize,
        alpha: f32,
        len: usize,
    },
    Relu {
        x: usize,
        out: usize,
        len: usize,
    },
    Sigmoid {
        x: usize,
        out: usize,
        len: usize,
    },
    Linear {
        x: usize,
        out: usize,
        w: ParamId,
        b: ParamId,
        in_dim: usize,
        out_dim: usize,
    },
}

impl OpKind {
    /// Slots this op reads in its forward pass (= slots its backward
    /// writes gradients into), in parent order.
    pub fn reads(&self) -> Vec<usize> {
        match self {
            OpKind::Conv(c) => vec![c.x],
            OpKind::Concat { a, b, .. } => vec![*a, *b],
            OpKind::MaxPool { x, .. }
            | OpKind::Upsample2x { x, .. }
            | OpKind::Leaky { x, .. }
            | OpKind::Relu { x, .. }
            | OpKind::Sigmoid { x, .. }
            | OpKind::Linear { x, .. } => vec![*x],
        }
    }

    /// Slots this op writes in its forward pass.
    pub fn writes(&self) -> Vec<usize> {
        match self {
            OpKind::Conv(c) => vec![c.out],
            OpKind::MaxPool { out, .. }
            | OpKind::Upsample2x { out, .. }
            | OpKind::Concat { out, .. }
            | OpKind::Leaky { out, .. }
            | OpKind::Relu { out, .. }
            | OpKind::Sigmoid { out, .. }
            | OpKind::Linear { out, .. } => vec![*out],
        }
    }

    fn name(&self) -> String {
        match self {
            OpKind::Conv(c) => return c.name(),
            OpKind::MaxPool { .. } => "max_pool2d",
            OpKind::Upsample2x { .. } => "upsample_nearest2x",
            OpKind::Concat { .. } => "concat_channels",
            OpKind::Leaky { .. } => "leaky_relu",
            OpKind::Relu { .. } => "relu",
            OpKind::Sigmoid { .. } => "sigmoid",
            OpKind::Linear { .. } => "linear",
        }
        .to_string()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct PlanOp {
    pub kind: OpKind,
    /// Profile key (`<target>/<scope>/<fused-op>`).
    pub path: String,
}

/// A lowered plan: a flat, topologically ordered op list plus
/// per-slot activation shapes. See the module docs.
#[derive(Debug)]
pub(crate) struct Lowered {
    pub kind: PlanKind,
    pub ops: Vec<PlanOp>,
    /// Per-sample flat length of each activation slot.
    pub slot_lens: Vec<usize>,
    /// Per-sample shape of each activation slot (batch dim stripped).
    pub slot_shapes: Vec<Vec<usize>>,
    pub input_slot: usize,
    /// Root slots, in root order.
    pub outputs: Vec<usize>,
}

/// How a tape node maps into the plan while lowering.
#[derive(Debug, Clone, Copy)]
enum NodeRef {
    /// A `param` declare; carries the id resolved from its `pid` attr.
    Param(ParamId),
    /// A value-producing node; carries its activation slot.
    Slot(usize),
}

/// Lowers a declare tape (built at batch 1) into a plan for `target`
/// producing the values of `roots`, in order. See the module docs for
/// the fusion rules and the target capability checks.
///
/// # Errors
///
/// Returns a message naming the offending node when the tape contains
/// an op the target does not support, breaks a fusion rule, is missing
/// the `pid`/`eps_bits`/`alpha_bits` attrs the declares must carry,
/// indexes a slot or weight of the wrong rank, or was not declared at
/// batch 1.
pub(crate) fn lower(g: &Graph, roots: &[VarId], target: PlanKind) -> Result<Lowered, String> {
    let prefix = match target {
        PlanKind::Infer => "infer",
        PlanKind::Train => "train",
    };
    let mut b = Builder {
        metas: g.metas(),
        target,
        prefix,
        refs: Vec::new(),
        ops: Vec::new(),
        scopes: Vec::new(),
        slot_lens: Vec::new(),
        slot_shapes: Vec::new(),
        input: None,
    };
    for meta in b.metas {
        let r = b
            .node(meta)
            .map_err(|msg| format!("{prefix} compile at {}: {msg}", meta.path()))?;
        b.refs.push(r);
    }

    // conv paths are final once nothing more can fuse into them
    for (op, scope) in b.ops.iter_mut().zip(&b.scopes) {
        if let (OpKind::Conv(c), Some(scope)) = (&op.kind, scope) {
            op.path = if scope.is_empty() {
                format!("{prefix}/{}", c.name())
            } else {
                format!("{prefix}/{scope}/{}", c.name())
            };
        }
    }

    let input_slot = b
        .input
        .ok_or(format!("{prefix} compile: tape has no input node"))?;
    let mut outputs = Vec::with_capacity(roots.len());
    for &r in roots {
        match b.refs.get(r.index()) {
            Some(NodeRef::Slot(s)) => outputs.push(*s),
            _ => {
                return Err(format!(
                    "{prefix} compile: root {} is not a value",
                    r.index()
                ))
            }
        }
    }
    Ok(Lowered {
        kind: target,
        ops: b.ops,
        slot_lens: b.slot_lens,
        slot_shapes: b.slot_shapes,
        input_slot,
        outputs,
    })
}

/// Lowering state: the plan under construction plus the node → plan
/// mapping of every tape node seen so far.
struct Builder<'g> {
    metas: &'g [OpMeta],
    target: PlanKind,
    prefix: &'static str,
    refs: Vec<NodeRef>,
    ops: Vec<PlanOp>,
    /// Per op: the scope of a conv, whose path waits for fusion.
    scopes: Vec<Option<&'g str>>,
    slot_lens: Vec<usize>,
    slot_shapes: Vec<Vec<usize>>,
    input: Option<usize>,
}

/// Splits a per-sample `[C, H, W]` shape, rejecting any other rank.
fn chw(shape: &[usize], what: &str) -> Result<(usize, usize, usize), String> {
    match *shape {
        [c, h, w] => Ok((c, h, w)),
        _ => Err(format!("{what} must be a [C, H, W] sample, got {shape:?}")),
    }
}

/// Strips the batch dim off a declared shape, which must be batch 1.
fn per_sample(shape: &[usize]) -> Result<&[usize], String> {
    match shape.split_first() {
        Some((1, per)) => Ok(per),
        _ => Err(format!("plans must be declared at batch 1, got {shape:?}")),
    }
}

/// Whether `target` has an executor for tape op `op`.
fn supports(target: PlanKind, op: &str) -> bool {
    match target {
        PlanKind::Infer => op != "batch_norm2d_train",
        PlanKind::Train => !matches!(op, "relu" | "sigmoid" | "linear"),
    }
}

impl<'g> Builder<'g> {
    fn parent(&self, meta: &OpMeta, pi: usize) -> Option<NodeRef> {
        meta.parents
            .get(pi)
            .and_then(|p| self.refs.get(p.index()))
            .copied()
    }

    fn slot(&self, meta: &OpMeta, pi: usize) -> Result<usize, String> {
        match self.parent(meta, pi) {
            Some(NodeRef::Slot(s)) => Ok(s),
            _ => Err(format!("parent {pi} is not a value node")),
        }
    }

    /// Parameter parent `pi` with its declared shape.
    fn param(&self, meta: &OpMeta, pi: usize) -> Result<(ParamId, &'g [usize]), String> {
        match self.parent(meta, pi) {
            Some(NodeRef::Param(p)) => {
                Ok((p, &self.metas[meta.parents[pi].index()].expected_shape))
            }
            _ => Err(format!("parent {pi} is not a param node")),
        }
    }

    fn new_slot(&mut self, shape: &[usize]) -> Result<usize, String> {
        let per = per_sample(shape)?.to_vec();
        self.slot_lens.push(per.iter().product());
        self.slot_shapes.push(per);
        Ok(self.slot_shapes.len() - 1)
    }

    fn push(&mut self, kind: OpKind, meta: &'g OpMeta) -> NodeRef {
        let out = kind.writes()[0];
        let scope = matches!(kind, OpKind::Conv(_)).then_some(meta.scope.as_str());
        let path = format!("{}/{}", self.prefix, meta.path());
        self.ops.push(PlanOp { kind, path });
        self.scopes.push(scope);
        NodeRef::Slot(out)
    }

    /// The last op, when it is a conv writing `slot` — the only conv a
    /// bias, batch norm or activation reading `slot` may fuse into.
    fn fusable_conv(&mut self, slot: usize) -> Option<&mut ConvOp> {
        match self.ops.last_mut().map(|o| &mut o.kind) {
            Some(OpKind::Conv(c)) if c.out == slot => Some(c),
            _ => None,
        }
    }

    /// Lowers one tape node, returning what it maps to.
    fn node(&mut self, meta: &'g OpMeta) -> Result<NodeRef, String> {
        let attr = |name: &str| meta.attr(name).ok_or(format!("missing '{name}' attr"));
        if !supports(self.target, meta.op) {
            return Err(format!("unsupported op '{}'", meta.op));
        }
        Ok(match meta.op {
            "input" => {
                if self.input.is_some() {
                    return Err("plan supports a single input".into());
                }
                let s = self.new_slot(&meta.expected_shape)?;
                self.input = Some(s);
                NodeRef::Slot(s)
            }
            "param" => NodeRef::Param(ParamId(attr("pid")?)),
            "conv2d" => {
                let x = self.slot(meta, 0)?;
                let (w, ws) = self.param(meta, 1)?;
                let (cin, hin, win) = chw(&self.slot_shapes[x], "conv input")?;
                let (cout, kh, kw) = match *ws {
                    [cout, _, kh, kw] => (cout, kh, kw),
                    _ => return Err(format!("conv weight must be 4-D, got {ws:?}")),
                };
                let out = self.new_slot(&meta.expected_shape)?;
                let (_, ho, wo) = chw(&self.slot_shapes[out], "conv output")?;
                let geom = ConvGeom {
                    stride: attr("stride")?,
                    pad: attr("pad")?,
                    cin,
                    hin,
                    win,
                    cout,
                    kh,
                    kw,
                    ho,
                    wo,
                };
                let conv = ConvOp {
                    x,
                    out,
                    w,
                    bias: None,
                    bn: None,
                    leaky: None,
                    relu: false,
                    geom,
                };
                self.push(OpKind::Conv(conv), meta)
            }
            "add_bias_channel" => {
                let y = self.slot(meta, 0)?;
                let (b, _) = self.param(meta, 1)?;
                match self.fusable_conv(y) {
                    Some(c) if c.is_bare() => c.bias = Some(b),
                    _ => return Err("add_bias_channel must directly follow its conv".into()),
                }
                NodeRef::Slot(y)
            }
            "batch_norm2d_eval" | "batch_norm2d_train" => {
                let y = self.slot(meta, 0)?;
                let bn = BnRef {
                    gamma: self.param(meta, 1)?.0,
                    beta: self.param(meta, 2)?.0,
                    rmean: ParamId(attr("rmean_pid")?),
                    rvar: ParamId(attr("rvar_pid")?),
                    eps: f32::from_bits(attr("eps_bits")? as u32),
                    train: meta.op == "batch_norm2d_train",
                };
                match self.fusable_conv(y) {
                    Some(c) if c.is_bare() => c.bn = Some(bn),
                    _ => return Err(format!("{} must directly follow its conv", meta.op)),
                }
                NodeRef::Slot(y)
            }
            "leaky_relu" | "relu" => {
                let x = self.slot(meta, 0)?;
                let alpha = match meta.op {
                    "leaky_relu" => Some(f32::from_bits(attr("alpha_bits")? as u32)),
                    _ => None,
                };
                match self.fusable_conv(x) {
                    Some(c) if c.leaky.is_none() && !c.relu && alpha.is_none_or(|a| a > 0.0) => {
                        c.leaky = alpha;
                        c.relu = alpha.is_none();
                        NodeRef::Slot(x)
                    }
                    _ => {
                        let out = self.new_slot(&meta.expected_shape)?;
                        let len = self.slot_lens[out];
                        let kind = match alpha {
                            Some(alpha) => OpKind::Leaky { x, out, alpha, len },
                            None => OpKind::Relu { x, out, len },
                        };
                        self.push(kind, meta)
                    }
                }
            }
            "sigmoid" => {
                let x = self.slot(meta, 0)?;
                let out = self.new_slot(&meta.expected_shape)?;
                let len = self.slot_lens[out];
                self.push(OpKind::Sigmoid { x, out, len }, meta)
            }
            "max_pool2d" => {
                let x = self.slot(meta, 0)?;
                let (c, h, w) = chw(&self.slot_shapes[x], "max_pool2d input")?;
                let out = self.new_slot(&meta.expected_shape)?;
                let (_, ho, wo) = chw(&self.slot_shapes[out], "max_pool2d output")?;
                let (k, stride) = (attr("k")?, attr("stride")?);
                let kind = OpKind::MaxPool {
                    x,
                    out,
                    k,
                    stride,
                    c,
                    h,
                    w,
                    ho,
                    wo,
                };
                self.push(kind, meta)
            }
            "upsample_nearest2x" => {
                let x = self.slot(meta, 0)?;
                let (c, h, w) = chw(&self.slot_shapes[x], "upsample input")?;
                let out = self.new_slot(&meta.expected_shape)?;
                self.push(OpKind::Upsample2x { x, out, c, h, w }, meta)
            }
            "concat_channels" => {
                let a = self.slot(meta, 0)?;
                let b = self.slot(meta, 1)?;
                let (ca, ha, wa) = chw(&self.slot_shapes[a], "concat input")?;
                let (cb, hb, wb) = chw(&self.slot_shapes[b], "concat input")?;
                if (ha, wa) != (hb, wb) {
                    return Err(format!(
                        "concat spatial mismatch {:?} vs {:?}",
                        self.slot_shapes[a], self.slot_shapes[b]
                    ));
                }
                let out = self.new_slot(&meta.expected_shape)?;
                let hw = ha * wa;
                self.push(
                    OpKind::Concat {
                        a,
                        b,
                        out,
                        ca,
                        cb,
                        hw,
                    },
                    meta,
                )
            }
            "reshape" => {
                // flat per-sample data is unchanged; alias the slot
                // (gradients alias it too), re-labelling it with the
                // post-reshape dims so shape-sensitive consumers (conv,
                // upsample, pool) see the reshaped geometry
                let x = self.slot(meta, 0)?;
                let per = per_sample(&meta.expected_shape)?;
                let len: usize = per.iter().product();
                if len != self.slot_lens[x] {
                    return Err(format!(
                        "reshape changes per-sample length {} -> {len}",
                        self.slot_lens[x]
                    ));
                }
                self.slot_shapes[x] = per.to_vec();
                NodeRef::Slot(x)
            }
            "linear" => {
                let x = self.slot(meta, 0)?;
                let (w, ws) = self.param(meta, 1)?;
                let (b, _) = self.param(meta, 2)?;
                let (out_dim, in_dim) = match *ws {
                    [out_dim, in_dim] => (out_dim, in_dim),
                    _ => return Err(format!("linear weight must be 2-D, got {ws:?}")),
                };
                if self.slot_lens[x] != in_dim {
                    return Err(format!(
                        "linear input length {} != weight columns {in_dim}",
                        self.slot_lens[x]
                    ));
                }
                let out = self.new_slot(&meta.expected_shape)?;
                let kind = OpKind::Linear {
                    x,
                    out,
                    w,
                    b,
                    in_dim,
                    out_dim,
                };
                self.push(kind, meta)
            }
            other => return Err(format!("unsupported op '{other}'")),
        })
    }
}

impl Lowered {
    /// Per-sample input shape (batch dimension stripped).
    pub fn input_shape(&self) -> &[usize] {
        &self.slot_shapes[self.input_slot]
    }

    /// Lifts the op list into a plain-data [`PlanMeta`]: slot
    /// reads/writes, parameter references, fusion composition and
    /// geometry, plus the executor facts only a train plan has — the
    /// per-op `gx_direct` routing and the column-cache budget.
    pub fn meta(&self, gx_direct: Option<&[bool]>, col_budget: Option<usize>) -> PlanMeta {
        let param = |role, pid: ParamId| ParamRef {
            role,
            index: pid.index(),
        };
        let ops = self
            .ops
            .iter()
            .enumerate()
            .map(|(oi, op)| {
                let name = op.kind.name();
                let mut m = PlanOpMeta {
                    fused: vec![name.clone()],
                    name,
                    path: op.path.clone(),
                    reads: op.kind.reads(),
                    writes: op.kind.writes(),
                    params: Vec::new(),
                    conv: None,
                    linear: None,
                    alpha: None,
                    bn_train: None,
                    bn_eps: None,
                    gx_direct: None,
                };
                match &op.kind {
                    OpKind::Conv(c) => {
                        m.params.push(param(ParamRole::ConvWeight, c.w));
                        if let Some(b) = c.bias {
                            m.params.push(param(ParamRole::ConvBias, b));
                        }
                        if let Some(bn) = &c.bn {
                            m.params.extend([
                                param(ParamRole::BnGamma, bn.gamma),
                                param(ParamRole::BnBeta, bn.beta),
                                param(ParamRole::BnRunningMean, bn.rmean),
                                param(ParamRole::BnRunningVar, bn.rvar),
                            ]);
                            m.bn_train = Some(bn.train);
                            m.bn_eps = Some(bn.eps);
                        }
                        m.fused = c.stages().iter().map(|(op, _)| op.to_string()).collect();
                        m.conv = Some(c.geom);
                        m.alpha = c.leaky;
                        m.gx_direct = gx_direct.map(|gx| gx[oi]);
                    }
                    OpKind::Leaky { alpha, .. } => m.alpha = Some(*alpha),
                    OpKind::Linear {
                        w,
                        b,
                        in_dim,
                        out_dim,
                        ..
                    } => {
                        m.params = vec![
                            param(ParamRole::LinearWeight, *w),
                            param(ParamRole::LinearBias, *b),
                        ];
                        m.linear = Some((*in_dim, *out_dim));
                    }
                    _ => {}
                }
                m
            })
            .collect();
        PlanMeta {
            kind: self.kind,
            ops,
            slots: self
                .slot_lens
                .iter()
                .zip(&self.slot_shapes)
                .map(|(&len, shape)| SlotMeta {
                    len,
                    shape: shape.clone(),
                })
                .collect(),
            input_slot: self.input_slot,
            outputs: self.outputs.clone(),
            col_budget,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::train_plan::tests::{declare_net, net};
    use crate::{InferPlan, ParamSet, TrainPlan};

    #[test]
    fn one_lowering_two_targets() {
        // eval batch norm: a tape both targets support
        let mut g = Graph::new();
        let root = declare_net(&mut g, &net(&mut ParamSet::new()), false);
        let mut infer = InferPlan::compile(&g, &[root])
            .expect("infer compiles")
            .meta();
        let train = TrainPlan::compile(&g, &[root])
            .expect("train compiles")
            .meta();
        assert_eq!(infer.kind, PlanKind::Infer);
        assert_eq!(train.kind, PlanKind::Train);
        assert_eq!(infer.col_budget, None);
        assert!(train.col_budget.is_some());
        let names: Vec<&str> = train.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "conv_bn_leaky",
                "conv_bias",
                "max_pool2d",
                "upsample_nearest2x",
                "conv",
                "concat_channels",
                "leaky_relu"
            ]
        );

        // everything else must match field for field
        infer.kind = train.kind;
        infer.col_budget = train.col_budget;
        for (i, t) in infer.ops.iter_mut().zip(&train.ops) {
            assert_eq!(
                i.path.strip_prefix("infer/"),
                t.path.strip_prefix("train/"),
                "profile paths differ beyond their prefix"
            );
            assert_eq!(i.gx_direct, None);
            assert_eq!(t.gx_direct.is_some(), t.conv.is_some());
            i.path.clone_from(&t.path);
            i.gx_direct = t.gx_direct;
        }
        assert_eq!(infer, train);
    }

    /// Malformed tapes every target must reject, each with the error
    /// fragment (node path and reason) the rejection must carry.
    pub(crate) fn malformed_tapes() -> Vec<(Graph, VarId, &'static str)> {
        /// An `input` declare of shape `input`, then `build`'s nodes.
        fn case(
            input: &[usize],
            want: &'static str,
            build: impl FnOnce(&mut Graph, VarId) -> VarId,
        ) -> (Graph, VarId, &'static str) {
            let mut g = Graph::new();
            let x = g.declare("input", &[], &[], input);
            let root = build(&mut g, x);
            (g, root, want)
        }
        fn conv(g: &mut Graph, x: VarId, w_shape: &[usize]) -> VarId {
            let w = g.declare("param", &[], &[("pid", 0)], w_shape);
            g.declare(
                "conv2d",
                &[x, w],
                &[("stride", 1), ("pad", 0)],
                &[1, 2, 1, 1],
            )
        }
        let off_batch = "at reshape: plans must be declared at batch 1";
        vec![
            case(
                &[2, 3, 8, 8],
                "at input: plans must be declared at batch 1",
                |_, x| x,
            ),
            case(&[1, 2, 4], off_batch, |g, x| {
                g.declare("reshape", &[x], &[], &[2, 8])
            }),
            case(&[1, 2, 4], off_batch, |g, x| {
                g.declare("reshape", &[x], &[], &[])
            }),
            case(
                &[1, 4],
                "at conv2d: conv input must be a [C, H, W] sample",
                |g, x| conv(g, x, &[2, 4, 1, 1]),
            ),
            case(
                &[1, 4, 1, 1],
                "at conv2d: conv weight must be 4-D",
                |g, x| conv(g, x, &[2, 4, 1]),
            ),
            case(
                &[1, 4, 4],
                "at max_pool2d: max_pool2d input must be",
                |g, x| g.declare("max_pool2d", &[x], &[("k", 2), ("stride", 2)], &[1, 2, 2]),
            ),
            case(
                &[1, 4],
                "at upsample_nearest2x: upsample input must be",
                |g, x| g.declare("upsample_nearest2x", &[x], &[], &[1, 16]),
            ),
            case(
                &[1, 4],
                "at concat_channels: concat input must be",
                |g, x| g.declare("concat_channels", &[x, x], &[], &[1, 8]),
            ),
        ]
    }
}
