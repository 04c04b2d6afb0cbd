//! The model zoo: every workload evaluated in the paper.
//!
//! Dense: Llama2-30B, Llama-65B (Fig. 10c), Llama3-70B, GPT-175B,
//! Llama3-405B. MoE: GShard-137B, DeepSeek-V3-671B, Qwen3-Next-80B-A3B.
//! Emerging (Fig. 19): Mamba-2.8B, Stable-Diffusion-3.5-Large, GR-24.

use crate::model::{LlmModel, ModelFamily};

/// Llama-7B (used by the Fig. 7 checkpoint-strategy illustration).
pub fn llama_7b() -> LlmModel {
    LlmModel {
        name: "Llama-7B".into(),
        family: ModelFamily::DenseTransformer,
        layers: 32,
        hidden: 4096,
        heads: 32,
        kv_heads: 32,
        ffn: 11008,
        vocab: 32000,
        default_seq: 4096,
        gated_ffn: true,
    }
}

/// Llama2-30B (the 33B-class Llama shape).
pub fn llama2_30b() -> LlmModel {
    LlmModel {
        name: "Llama2-30B".into(),
        family: ModelFamily::DenseTransformer,
        layers: 60,
        hidden: 6656,
        heads: 52,
        kv_heads: 52,
        ffn: 17920,
        vocab: 32000,
        default_seq: 4096,
        gated_ffn: true,
    }
}

/// Llama-65B (used for the Fig. 10c operator table).
pub fn llama_65b() -> LlmModel {
    LlmModel {
        name: "Llama-65B".into(),
        family: ModelFamily::DenseTransformer,
        layers: 80,
        hidden: 8192,
        heads: 64,
        kv_heads: 64,
        ffn: 22016,
        vocab: 32000,
        default_seq: 4096,
        gated_ffn: true,
    }
}

/// Llama3-70B.
pub fn llama3_70b() -> LlmModel {
    LlmModel {
        name: "Llama3-70B".into(),
        family: ModelFamily::DenseTransformer,
        layers: 80,
        hidden: 8192,
        heads: 64,
        kv_heads: 8,
        ffn: 28672,
        vocab: 128256,
        default_seq: 8192,
        gated_ffn: true,
    }
}

/// GPT-175B (GPT-3 shape).
pub fn gpt_175b() -> LlmModel {
    LlmModel {
        name: "GPT-175B".into(),
        family: ModelFamily::DenseTransformer,
        layers: 96,
        hidden: 12288,
        heads: 96,
        kv_heads: 96,
        ffn: 49152,
        vocab: 50257,
        default_seq: 2048,
        gated_ffn: false,
    }
}

/// Llama3-405B (§VI-F ultra-large scaling).
pub fn llama3_405b() -> LlmModel {
    LlmModel {
        name: "Llama3-405B".into(),
        family: ModelFamily::DenseTransformer,
        layers: 126,
        hidden: 16384,
        heads: 128,
        kv_heads: 8,
        ffn: 53248,
        vocab: 128256,
        default_seq: 8192,
        gated_ffn: true,
    }
}

/// GShard-137B MoE.
pub fn gshard_137b() -> LlmModel {
    LlmModel {
        name: "Gshard-137B".into(),
        family: ModelFamily::MoeTransformer {
            experts: 48,
            top_k: 2,
            expert_ffn: 8192,
            moe_every: 2,
        },
        layers: 36,
        hidden: 8192,
        heads: 64,
        kv_heads: 64,
        ffn: 32768,
        vocab: 64000,
        default_seq: 2048,
        gated_ffn: false,
    }
}

/// DeepSeek-V3-671B MoE (37B active).
pub fn deepseek_v3() -> LlmModel {
    LlmModel {
        name: "Deepseek-V3-671B".into(),
        family: ModelFamily::MoeTransformer {
            experts: 256,
            top_k: 8,
            expert_ffn: 2048,
            moe_every: 1,
        },
        layers: 61,
        hidden: 7168,
        heads: 128,
        kv_heads: 128,
        ffn: 18432,
        vocab: 129280,
        default_seq: 4096,
        gated_ffn: true,
    }
}

/// Qwen3-Next-80B-A3B (hybrid linear-attention MoE, Fig. 19).
pub fn qwen3_next_80b() -> LlmModel {
    LlmModel {
        name: "Qwen3-Next-80B-A3B".into(),
        family: ModelFamily::MoeTransformer {
            experts: 256,
            top_k: 10,
            expert_ffn: 512,
            moe_every: 1,
        },
        layers: 48,
        hidden: 4096,
        heads: 16,
        kv_heads: 2,
        ffn: 12288,
        vocab: 151936,
        default_seq: 4096,
        gated_ffn: true,
    }
}

/// Mamba-2.8B state-space model (Fig. 19).
pub fn mamba_2_8b() -> LlmModel {
    LlmModel {
        name: "Mamba-2.8B".into(),
        family: ModelFamily::Ssm {
            state_dim: 16,
            conv_width: 4,
        },
        layers: 64,
        hidden: 2560,
        heads: 1,
        kv_heads: 1,
        ffn: 5120,
        vocab: 50280,
        default_seq: 2048,
        gated_ffn: false,
    }
}

/// Stable Diffusion 3.5 Large (8B diffusion transformer, Fig. 19).
pub fn sd35_large() -> LlmModel {
    LlmModel {
        name: "SD-3.5-Large".into(),
        family: ModelFamily::DiffusionTransformer { patch_tokens: 4096 },
        layers: 38,
        hidden: 2432,
        heads: 38,
        kv_heads: 38,
        ffn: 9728,
        vocab: 1,
        default_seq: 4096,
        gated_ffn: false,
    }
}

/// GR-24: a 24B-class generative recommender (HSTU-style, Fig. 19).
pub fn gr_24() -> LlmModel {
    LlmModel {
        name: "GR-24".into(),
        family: ModelFamily::GenerativeRecommender,
        layers: 48,
        hidden: 5120,
        heads: 40,
        kv_heads: 40,
        ffn: 13696,
        vocab: 512000,
        default_seq: 8192,
        gated_ffn: false,
    }
}

/// The four main evaluation models of Figs. 15/16/18/20.
pub fn main_eval_models() -> Vec<LlmModel> {
    vec![llama2_30b(), llama3_70b(), gshard_137b(), gpt_175b()]
}

/// The emerging-model generality set of Fig. 19.
pub fn emerging_models() -> Vec<LlmModel> {
    vec![gr_24(), sd35_large(), mamba_2_8b(), qwen3_next_80b()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_paper_model_lists() {
        assert_eq!(main_eval_models().len(), 4);
        assert_eq!(emerging_models().len(), 4);
    }

    #[test]
    fn qwen_active_params_are_a3b_class() {
        let m = qwen3_next_80b();
        let active_b = m.active_params() / 1e9;
        assert!(
            active_b < 8.0,
            "active {active_b:.1}B should be small (A3B)"
        );
        let total = m.params_b();
        assert!((total - 80.0).abs() / 80.0 < 0.35, "total {total:.1}B");
    }
}
