//! Fundamental operator units (Fig. 10a).
//!
//! Transformer computation is decomposed into operators — Norm, the Q/K/V
//! GEMMs, FlashAttention, projection GEMMs, element-wise activations, MoE
//! routing/experts, SSM scans — each annotated with compute type and
//! checkpoint requirement, enabling fine-grained recomputation scheduling.

use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bytes, Flops};

/// Computation class of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Layer/RMS normalization (vector unit).
    Norm,
    /// Dense GEMM (PE array).
    Gemm,
    /// FlashAttention fused kernel (PE array + vector).
    FlashAttention,
    /// Element-wise activation (vector unit).
    Activation,
    /// MoE router (small GEMM + top-k).
    MoeRouter,
    /// MoE token dispatch/combine (communication-dominated).
    MoeShuffle,
    /// Selective-scan SSM kernel (vector-dominated).
    SsmScan,
    /// Short causal convolution (vector unit).
    Conv,
}

impl OpKind {
    /// True when the PE (MAC) array executes the bulk of the FLOPs.
    pub fn is_matrix(self) -> bool {
        matches!(
            self,
            OpKind::Gemm | OpKind::FlashAttention | OpKind::MoeRouter
        )
    }
}

/// Per-die GEMM dimensions after TP sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    /// Rows of the activation matrix (tokens).
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmShape {
    /// Forward FLOPs (`2·m·k·n`).
    pub fn flops(&self) -> Flops {
        Flops::new(2.0 * self.m as f64 * self.k as f64 * self.n as f64)
    }

    /// Input activation bytes at `elem` bytes per element.
    pub fn input_bytes(&self, elem: usize) -> Bytes {
        Bytes::new((self.m * self.k * elem) as u64)
    }

    /// Weight bytes at `elem` bytes per element.
    pub fn weight_bytes(&self, elem: usize) -> Bytes {
        Bytes::new((self.k * self.n * elem) as u64)
    }

    /// Output activation bytes at `elem` bytes per element.
    pub fn output_bytes(&self, elem: usize) -> Bytes {
        Bytes::new((self.m * self.n * elem) as u64)
    }
}

/// One operator instance of a layer, sized per die and per micro-batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpInstance {
    /// Operator name ("norm1", "qkv_proj", …).
    pub name: String,
    /// Computation class.
    pub kind: OpKind,
    /// GEMM dimensions when applicable (per die, after sharding).
    pub gemm: Option<GemmShape>,
    /// Forward FLOPs per die per micro-batch.
    pub fwd_flops: Flops,
    /// Backward FLOPs per die per micro-batch.
    pub bwd_flops: Flops,
    /// Output-activation bytes per die per micro-batch.
    ///
    /// This is the tensor the checkpoint of this operator stores; dropping
    /// it saves exactly these bytes and costs `fwd_flops` of recompute.
    pub output_bytes: Bytes,
    /// Weight bytes per die (FP16).
    pub weight_bytes: Bytes,
    /// TP collective volume after the forward pass (per die).
    pub fwd_comm_bytes: Bytes,
    /// TP collective volume in the backward pass (per die).
    pub bwd_comm_bytes: Bytes,
    /// Whether the recomputation scheduler may drop this checkpoint.
    pub recomputable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_formula() {
        let g = GemmShape { m: 4, k: 8, n: 2 };
        assert_eq!(g.flops().as_f64(), 2.0 * 4.0 * 8.0 * 2.0);
    }

    #[test]
    fn gemm_byte_accessors() {
        let g = GemmShape {
            m: 10,
            k: 20,
            n: 30,
        };
        assert_eq!(g.input_bytes(2).as_u64(), 400);
        assert_eq!(g.weight_bytes(2).as_u64(), 1200);
        assert_eq!(g.output_bytes(2).as_u64(), 600);
    }

    #[test]
    fn matrix_kinds() {
        assert!(OpKind::Gemm.is_matrix());
        assert!(OpKind::FlashAttention.is_matrix());
        assert!(!OpKind::Norm.is_matrix());
        assert!(!OpKind::SsmScan.is_matrix());
    }
}
