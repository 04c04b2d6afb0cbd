//! # wsc-sim — the evaluator substrate
//!
//! The detailed operator-level simulator that stands in for the paper's
//! ASTRA-sim-based evaluator (§IV-F): hybrid dataflows with the Fig. 14
//! EMA formulas ([`dataflow`]), a die-level roofline cost model with
//! alignment/SRAM non-idealities ([`op_cost`]), offline operator profiling
//! into lookup tables ([`profile`]), and the DNN latency/memory predictor
//! of Fig. 10b ([`predictor`]).
//!
//! ```
//! use wsc_sim::op_cost::DieModel;
//! use wsc_arch::{presets, units::Bandwidth};
//! use wsc_workload::{graph, parallel::TpSplitStrategy, zoo};
//!
//! let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
//! let ctx = graph::ShardingCtx::new(8, 4096, 4, TpSplitStrategy::Megatron);
//! let ops = graph::layer_ops_at(&zoo::llama2_30b(), 0, &ctx);
//! let cost = dm.op_cost(&ops[1]);
//! assert!(cost.time.as_secs() > 0.0);
//! ```

pub mod dataflow;
pub mod op_cost;
pub mod predictor;
pub mod profile;

pub use crate::dataflow::{best_gemm_dataflow, ema_elements, Dataflow};
pub use crate::op_cost::{analytic_cost, DieModel, OpCost};
pub use crate::predictor::{analytic_mape, generate_corpus, op_features, DnnPredictor, Sample};
pub use crate::profile::{profile_layer, LayerProfile, OpProfile, RecomputeMenu};
