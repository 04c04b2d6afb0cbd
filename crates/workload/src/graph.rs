//! Operator-graph construction (Fig. 10a).
//!
//! Builds the per-layer operator list for every model family, sized *per
//! die* and *per micro-batch* under a given TP degree and tensor-partition
//! strategy. These [`OpInstance`]s are the atoms the recomputation
//! scheduler, the TP engine, and the evaluator all operate on.

use crate::model::{LlmModel, ModelFamily};
use crate::ops::{GemmShape, OpInstance, OpKind};
use crate::parallel::TpSplitStrategy;
use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bytes, Flops};

/// Bytes per activation/weight element (FP16 mixed-precision training).
pub const ELEM: usize = 2;

/// Sharding context: micro-batch, sequence, TP degree and strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardingCtx {
    /// Sequences per micro-batch.
    pub micro_batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// TP group size.
    pub tp: usize,
    /// Tensor-partition strategy.
    pub strategy: TpSplitStrategy,
}

impl ShardingCtx {
    /// Construct a context.
    pub fn new(micro_batch: usize, seq: usize, tp: usize, strategy: TpSplitStrategy) -> Self {
        ShardingCtx {
            micro_batch: micro_batch.max(1),
            seq: seq.max(1),
            tp: tp.max(1),
            strategy,
        }
    }

    /// Tokens per micro-batch.
    pub fn tokens(&self) -> usize {
        self.micro_batch * self.seq
    }
}

fn bytes(n: f64) -> Bytes {
    Bytes::new(n.max(0.0).round() as u64)
}

fn norm_op(name: &str, t: f64, h: f64, rep: f64) -> OpInstance {
    OpInstance {
        name: name.into(),
        kind: OpKind::Norm,
        gemm: None,
        fwd_flops: Flops::new(5.0 * t * h * rep.max(1.0 / 1e9)),
        bwd_flops: Flops::new(7.0 * t * h * rep),
        output_bytes: bytes(t * h * ELEM as f64 * rep),
        weight_bytes: bytes(2.0 * h * ELEM as f64),
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        recomputable: true,
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_op(
    name: &str,
    m: usize,
    k: usize,
    n: usize,
    fwd_comm: Bytes,
    bwd_comm: Bytes,
    out_rep: f64,
) -> OpInstance {
    let g = GemmShape { m, k, n };
    let f = g.flops();
    OpInstance {
        name: name.into(),
        kind: OpKind::Gemm,
        gemm: Some(g),
        fwd_flops: f,
        bwd_flops: f.scale(2.0),
        output_bytes: g.output_bytes(ELEM).scale(out_rep),
        weight_bytes: g.weight_bytes(ELEM),
        fwd_comm_bytes: fwd_comm,
        bwd_comm_bytes: bwd_comm,
        recomputable: true,
    }
}

fn attention_ops(model: &LlmModel, ctx: &ShardingCtx, ops: &mut Vec<OpInstance>) {
    let t = ctx.tokens();
    let tf = t as f64;
    let h = model.hidden;
    let hf = h as f64;
    let kv = model.kv_dim();
    let tp = ctx.tp;
    let a = ELEM as f64;
    let rep = ctx.strategy.replicated_act_factor(tp);
    let ar = bytes(tf * hf * a); // one TP collective's volume

    ops.push(norm_op("norm1", tf, hf, rep));
    match ctx.strategy {
        TpSplitStrategy::Megatron | TpSplitStrategy::SequenceParallel => {
            // Column-parallel QKV: no fwd collective, grad-input AR in bwd.
            ops.push(gemm_op(
                "qkv_proj",
                t,
                h,
                (h + 2 * kv).div_ceil(tp),
                Bytes::ZERO,
                ar,
                1.0,
            ));
        }
        TpSplitStrategy::FullReduction => {
            // K-sharded QKV: all-reduce the (replicated) output forward.
            ops.push(gemm_op(
                "qkv_proj",
                t,
                h.div_ceil(tp),
                h + 2 * kv,
                bytes(tf * (hf + 2.0 * kv as f64) * a),
                bytes(tf * hf * a / tp as f64),
                1.0,
            ));
        }
    }

    // FlashAttention: heads sharded across TP; causal halves the work.
    let fa_flops = 2.0 * tf * ctx.seq as f64 * hf / tp as f64;
    let fa_out = tf * hf * a / tp as f64 + tf * (model.heads as f64 / tp as f64) * 4.0;
    ops.push(OpInstance {
        name: "flash_attn".into(),
        kind: OpKind::FlashAttention,
        gemm: Some(GemmShape {
            m: t,
            k: model.head_dim(),
            n: ctx.seq,
        }),
        fwd_flops: Flops::new(fa_flops),
        bwd_flops: Flops::new(2.5 * fa_flops),
        output_bytes: bytes(fa_out),
        weight_bytes: Bytes::ZERO,
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        recomputable: true,
    });

    // Row-parallel output projection: forward all-reduce.
    ops.push(gemm_op(
        "attn_out",
        t,
        h.div_ceil(tp),
        h,
        ar,
        Bytes::ZERO,
        rep,
    ));
}

fn dense_ffn_ops(model: &LlmModel, ctx: &ShardingCtx, ops: &mut Vec<OpInstance>) {
    let t = ctx.tokens();
    let tf = t as f64;
    let h = model.hidden;
    let hf = h as f64;
    let f = model.ffn;
    let f_up = if model.gated_ffn { 2 * f } else { f };
    let tp = ctx.tp;
    let a = ELEM as f64;
    let rep = ctx.strategy.replicated_act_factor(tp);
    let ar = bytes(tf * hf * a);

    ops.push(norm_op("norm2", tf, hf, rep));
    match ctx.strategy {
        TpSplitStrategy::Megatron | TpSplitStrategy::SequenceParallel => {
            ops.push(gemm_op(
                "ffn_up",
                t,
                h,
                f_up.div_ceil(tp),
                Bytes::ZERO,
                ar,
                1.0,
            ));
        }
        TpSplitStrategy::FullReduction => {
            ops.push(gemm_op(
                "ffn_up",
                t,
                h.div_ceil(tp),
                f_up,
                bytes(tf * f_up as f64 * a),
                bytes(tf * hf * a / tp as f64),
                1.0,
            ));
        }
    }
    // Activation (SwiGLU gating when present).
    let act_flops = 4.0 * tf * f as f64 / tp as f64;
    ops.push(OpInstance {
        name: "act".into(),
        kind: OpKind::Activation,
        gemm: None,
        fwd_flops: Flops::new(act_flops),
        bwd_flops: Flops::new(act_flops),
        output_bytes: bytes(tf * f as f64 * a / tp as f64),
        weight_bytes: Bytes::ZERO,
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        recomputable: true,
    });
    ops.push(gemm_op(
        "ffn_down",
        t,
        f.div_ceil(tp),
        h,
        ar,
        Bytes::ZERO,
        rep,
    ));
}

fn moe_ffn_ops(
    model: &LlmModel,
    ctx: &ShardingCtx,
    experts: usize,
    top_k: usize,
    expert_ffn: usize,
    ops: &mut Vec<OpInstance>,
) {
    let t = ctx.tokens();
    let tf = t as f64;
    let h = model.hidden;
    let hf = h as f64;
    let tp = ctx.tp;
    let tpf = tp as f64;
    let a = ELEM as f64;
    let rep = ctx.strategy.replicated_act_factor(tp);

    ops.push(norm_op("norm2", tf, hf, rep));

    // Router: tiny replicated GEMM.
    ops.push(OpInstance {
        name: "moe_router".into(),
        kind: OpKind::MoeRouter,
        gemm: Some(GemmShape {
            m: t,
            k: h,
            n: experts,
        }),
        fwd_flops: Flops::new(2.0 * tf * hf * experts as f64),
        bwd_flops: Flops::new(4.0 * tf * hf * experts as f64),
        output_bytes: bytes(tf * top_k as f64 * 8.0),
        weight_bytes: bytes(hf * experts as f64 * a),
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        recomputable: true,
    });

    // All-to-all dispatch across the expert-parallel (= TP) group.
    let a2a = bytes(tf * top_k as f64 * hf * a * (tpf - 1.0) / tpf);
    ops.push(OpInstance {
        name: "moe_dispatch".into(),
        kind: OpKind::MoeShuffle,
        gemm: None,
        fwd_flops: Flops::ZERO,
        bwd_flops: Flops::ZERO,
        output_bytes: bytes(tf * top_k as f64 * hf * a / tpf),
        weight_bytes: Bytes::ZERO,
        fwd_comm_bytes: a2a,
        bwd_comm_bytes: a2a,
        recomputable: false,
    });

    // Expert FFN over routed tokens (experts sharded across the group).
    let routed = (t * top_k).div_ceil(tp);
    let fe_up = if model.gated_ffn {
        2 * expert_ffn
    } else {
        expert_ffn
    };
    let expert_weights = (experts as f64 / tpf) * (hf * fe_up as f64 + expert_ffn as f64 * hf) * a;
    let mut up = gemm_op("expert_up", routed, h, fe_up, Bytes::ZERO, Bytes::ZERO, 1.0);
    up.weight_bytes = bytes(expert_weights * (fe_up as f64 / (fe_up + expert_ffn) as f64));
    ops.push(up);
    let act_flops = 4.0 * routed as f64 * expert_ffn as f64;
    ops.push(OpInstance {
        name: "expert_act".into(),
        kind: OpKind::Activation,
        gemm: None,
        fwd_flops: Flops::new(act_flops),
        bwd_flops: Flops::new(act_flops),
        output_bytes: bytes(routed as f64 * expert_ffn as f64 * a),
        weight_bytes: Bytes::ZERO,
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        recomputable: true,
    });
    let mut down = gemm_op(
        "expert_down",
        routed,
        expert_ffn,
        h,
        Bytes::ZERO,
        Bytes::ZERO,
        1.0,
    );
    down.weight_bytes = bytes(expert_weights * (expert_ffn as f64 / (fe_up + expert_ffn) as f64));
    ops.push(down);

    // All-to-all combine.
    ops.push(OpInstance {
        name: "moe_combine".into(),
        kind: OpKind::MoeShuffle,
        gemm: None,
        fwd_flops: Flops::ZERO,
        bwd_flops: Flops::ZERO,
        output_bytes: bytes(tf * hf * a * rep),
        weight_bytes: Bytes::ZERO,
        fwd_comm_bytes: a2a,
        bwd_comm_bytes: a2a,
        recomputable: false,
    });
}

fn ssm_layer_ops(
    model: &LlmModel,
    ctx: &ShardingCtx,
    state_dim: usize,
    conv_width: usize,
) -> Vec<OpInstance> {
    let t = ctx.tokens();
    let tf = t as f64;
    let h = model.hidden;
    let hf = h as f64;
    let e = 2 * h; // Mamba expansion
    let ef = e as f64;
    let tp = ctx.tp;
    let tpf = tp as f64;
    let a = ELEM as f64;
    let rep = ctx.strategy.replicated_act_factor(tp);
    let ar = bytes(tf * hf * a);

    let mut ops = vec![norm_op("norm", tf, hf, rep)];
    ops.push(gemm_op(
        "in_proj",
        t,
        h,
        (2 * e).div_ceil(tp),
        Bytes::ZERO,
        ar,
        1.0,
    ));
    ops.push(OpInstance {
        name: "conv1d".into(),
        kind: OpKind::Conv,
        gemm: None,
        fwd_flops: Flops::new(2.0 * tf * ef * conv_width as f64 / tpf),
        bwd_flops: Flops::new(4.0 * tf * ef * conv_width as f64 / tpf),
        output_bytes: bytes(tf * ef * a / tpf),
        weight_bytes: bytes(ef * conv_width as f64 * a / tpf),
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        recomputable: true,
    });
    ops.push(OpInstance {
        name: "ssm_scan".into(),
        kind: OpKind::SsmScan,
        gemm: None,
        fwd_flops: Flops::new(6.0 * tf * ef * state_dim as f64 / tpf),
        bwd_flops: Flops::new(9.0 * tf * ef * state_dim as f64 / tpf),
        output_bytes: bytes(tf * ef * a / tpf),
        weight_bytes: bytes(ef * (2.0 * state_dim as f64 + 1.0) * a / tpf),
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        recomputable: true,
    });
    ops.push(gemm_op(
        "out_proj",
        t,
        e.div_ceil(tp),
        h,
        ar,
        Bytes::ZERO,
        rep,
    ));
    ops
}

/// True when layer `idx` of `model` is a MoE layer.
pub fn is_moe_layer(model: &LlmModel, idx: usize) -> bool {
    match &model.family {
        ModelFamily::MoeTransformer { moe_every, .. } => idx % *moe_every == (*moe_every - 1),
        _ => false,
    }
}

/// One value per layer kind of a model, built from the kind's first layer.
///
/// [`layer_ops_at`] tells a model's layers apart only by
/// [`is_moe_layer`], so a model has at most two layer kinds, dense and
/// MoE, and the operators of a kind's first layer are those of every
/// layer of that kind: anything derived from them holds for the whole
/// kind. This type owns that rule; everything that profiles or counts a
/// model per layer asks it instead of building every layer's graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PerKind<T> {
    dense: Option<T>,
    moe: Option<T>,
}

impl<T> PerKind<T> {
    /// `build(l)` at the first layer `l` of each kind `model` has.
    pub fn new(model: &LlmModel, mut build: impl FnMut(usize) -> T) -> Self {
        let first = |moe: bool| (0..model.layers).find(|&l| is_moe_layer(model, l) == moe);
        PerKind {
            dense: first(false).map(&mut build),
            moe: first(true).map(build),
        }
    }

    /// The value of layer `idx`'s kind.
    ///
    /// # Panics
    ///
    /// When `model` is not the model this was built for and layer `idx`
    /// is of a kind that model lacks.
    pub fn of(&self, model: &LlmModel, idx: usize) -> &T {
        let kind = if is_moe_layer(model, idx) {
            &self.moe
        } else {
            &self.dense
        };
        // wsc-lint: allow(S001, "new built a value for every kind the model has, so each of its layers finds its kind's")
        kind.as_ref().expect("the model has a layer of this kind")
    }

    /// The dense kind's value, when the model has a dense layer.
    pub fn dense(&self) -> Option<&T> {
        self.dense.as_ref()
    }

    /// The MoE kind's value, when the model has a MoE layer.
    pub fn moe(&self) -> Option<&T> {
        self.moe.as_ref()
    }
}

/// Build the operator list of layer `idx`, sized per die per micro-batch.
pub fn layer_ops_at(model: &LlmModel, idx: usize, ctx: &ShardingCtx) -> Vec<OpInstance> {
    match &model.family {
        ModelFamily::DenseTransformer
        | ModelFamily::DiffusionTransformer { .. }
        | ModelFamily::GenerativeRecommender => {
            let mut ops = Vec::with_capacity(8);
            attention_ops(model, ctx, &mut ops);
            dense_ffn_ops(model, ctx, &mut ops);
            ops
        }
        ModelFamily::MoeTransformer {
            experts,
            top_k,
            expert_ffn,
            moe_every: _,
        } => {
            let mut ops = Vec::with_capacity(10);
            attention_ops(model, ctx, &mut ops);
            if is_moe_layer(model, idx) {
                moe_ffn_ops(model, ctx, *experts, *top_k, *expert_ffn, &mut ops);
            } else {
                dense_ffn_ops(model, ctx, &mut ops);
            }
            ops
        }
        ModelFamily::Ssm {
            state_dim,
            conv_width,
        } => ssm_layer_ops(model, ctx, *state_dim, *conv_width),
    }
}

/// The layer-input tensor a full-layer recompute must retain (per die).
pub fn layer_input_bytes(model: &LlmModel, ctx: &ShardingCtx) -> Bytes {
    let rep = ctx.strategy.replicated_act_factor(ctx.tp);
    bytes(ctx.tokens() as f64 * model.hidden as f64 * ELEM as f64 * rep)
}

/// Aggregate view of one layer's operators.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Forward FLOPs per die per micro-batch.
    pub fwd_flops: Flops,
    /// Backward FLOPs per die per micro-batch.
    pub bwd_flops: Flops,
    /// Forward TP collective volume per die per micro-batch.
    pub fwd_comm: Bytes,
    /// Backward TP collective volume per die per micro-batch.
    pub bwd_comm: Bytes,
    /// Full checkpoint footprint per die per micro-batch.
    pub ckpt_bytes: Bytes,
    /// Weight bytes per die (FP16).
    pub weight_bytes: Bytes,
}

/// Summarize an operator list.
pub fn summarize(ops: &[OpInstance]) -> LayerSummary {
    let mut s = LayerSummary::default();
    for op in ops {
        s.fwd_flops += op.fwd_flops;
        s.bwd_flops += op.bwd_flops;
        s.fwd_comm += op.fwd_comm_bytes;
        s.bwd_comm += op.bwd_comm_bytes;
        s.ckpt_bytes += op.output_bytes;
        s.weight_bytes += op.weight_bytes;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn ctx(tp: usize) -> ShardingCtx {
        ShardingCtx::new(16, 4096, tp, TpSplitStrategy::Megatron)
    }

    #[test]
    fn fig10c_tensor_sizes_match() {
        // Llama-65B, b=16, s=4096, TP=8 → X1 (norm output) ≈ 1073 MB,
        // Q ≈ 125–134 MB (Fig. 10c annotations).
        let m = zoo::llama_65b();
        let ops = layer_ops_at(&m, 0, &ctx(8));
        let norm1 = &ops[0];
        assert_eq!(norm1.name, "norm1");
        let mb = norm1.output_bytes.as_f64() / 1e6;
        assert!((mb - 1073.0).abs() < 5.0, "X1 = {mb:.0} MB");
        let qkv = &ops[1];
        // Q+K+V sharded: 3/8 of 3.2 GB ≈ 402 MB; per-tensor ≈ 134 MB.
        let per_tensor = qkv.output_bytes.as_f64() / 3.0 / 1e6;
        assert!((per_tensor - 134.0).abs() < 10.0, "Q = {per_tensor:.0} MB");
    }

    #[test]
    fn dense_layer_has_two_fwd_collectives() {
        let m = zoo::llama3_70b();
        let ops = layer_ops_at(&m, 0, &ctx(4));
        let n = ops
            .iter()
            .filter(|o| o.fwd_comm_bytes > Bytes::ZERO)
            .count();
        assert_eq!(n, 2, "Megatron: attn_out + ffn_down all-reduce");
    }

    #[test]
    fn full_reduction_has_four_collectives() {
        let m = zoo::llama3_70b();
        let c = ShardingCtx::new(16, 4096, 4, TpSplitStrategy::FullReduction);
        let ops = layer_ops_at(&m, 0, &c);
        let n = ops
            .iter()
            .filter(|o| o.fwd_comm_bytes > Bytes::ZERO)
            .count();
        assert_eq!(n, 4);
    }

    #[test]
    fn sequence_parallel_shrinks_checkpoints() {
        let m = zoo::llama3_70b();
        let meg = summarize(&layer_ops_at(&m, 0, &ctx(4)));
        let c = ShardingCtx::new(16, 4096, 4, TpSplitStrategy::SequenceParallel);
        let sp = summarize(&layer_ops_at(&m, 0, &c));
        assert!(sp.ckpt_bytes < meg.ckpt_bytes);
        assert_eq!(sp.fwd_comm, meg.fwd_comm, "same collective volume");
    }

    #[test]
    fn tp_scaling_divides_flops() {
        let m = zoo::gpt_175b();
        let s1 = summarize(&layer_ops_at(&m, 0, &ctx(1)));
        let s8 = summarize(&layer_ops_at(&m, 0, &ctx(8)));
        let ratio = s1.fwd_flops.as_f64() / s8.fwd_flops.as_f64();
        assert!(ratio > 6.0 && ratio < 8.5, "ratio {ratio}");
    }

    #[test]
    fn layer_weight_bytes_match_model_params() {
        // Σ per-die weights × tp ≈ layer params × 2 bytes.
        let m = zoo::gpt_175b();
        let tp = 4;
        let s = summarize(&layer_ops_at(&m, 0, &ctx(tp)));
        let per_layer = m.layer_params() * 2.0;
        let total = s.weight_bytes.as_f64() * tp as f64;
        let rel = (total - per_layer).abs() / per_layer;
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn moe_layers_alternate_for_gshard() {
        let m = zoo::gshard_137b();
        assert!(!is_moe_layer(&m, 0));
        assert!(is_moe_layer(&m, 1));
        let dense = layer_ops_at(&m, 0, &ctx(4));
        let moe = layer_ops_at(&m, 1, &ctx(4));
        assert!(moe.iter().any(|o| o.kind == OpKind::MoeShuffle));
        assert!(!dense.iter().any(|o| o.kind == OpKind::MoeShuffle));
    }

    #[test]
    fn moe_shuffles_are_not_recomputable() {
        let m = zoo::deepseek_v3();
        let ops = layer_ops_at(&m, 0, &ctx(4));
        for op in ops.iter().filter(|o| o.kind == OpKind::MoeShuffle) {
            assert!(!op.recomputable);
        }
    }

    #[test]
    fn ssm_layers_have_scan_and_conv() {
        let m = zoo::mamba_2_8b();
        let ops = layer_ops_at(&m, 0, &ctx(2));
        assert!(ops.iter().any(|o| o.kind == OpKind::SsmScan));
        assert!(ops.iter().any(|o| o.kind == OpKind::Conv));
        assert!(!ops.iter().any(|o| o.kind == OpKind::FlashAttention));
    }

    #[test]
    fn layer_input_is_replicated_under_megatron() {
        let m = zoo::llama3_70b();
        let c4 = ctx(4);
        let c8 = ctx(8);
        assert_eq!(
            layer_input_bytes(&m, &c4),
            layer_input_bytes(&m, &c8),
            "Megatron keeps full layer input on every die"
        );
    }

    #[test]
    fn backward_is_heavier_than_forward() {
        let m = zoo::llama3_70b();
        let s = summarize(&layer_ops_at(&m, 0, &ctx(4)));
        assert!(s.bwd_flops.as_f64() > 1.8 * s.fwd_flops.as_f64());
    }
}
