//! The benchmark's workloads: each one a fixed make-up of grid, driver,
//! transport, exchange mode, checkpoint cadence, dataset size, batches and
//! iterations over the paper's Table I networks (batch 100, Cross5).

use lipiz_core::{ExchangeMode, TrainConfig};
use lipiz_data::SynthDigits;
use lipiz_tensor::Matrix;
use std::path::Path;

/// A named workload: the three of `BENCHMARK.json`, and the TCP run that
/// `tcp_fault.py` repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential driver, 3×3 grid, one thread: the compute path alone.
    Seq3x3Train,
    /// Distributed driver over the in-process fabric (ranks as threads),
    /// synchronous exchange, few batches per iteration.
    Inproc1x2SyncExchange,
    /// Distributed driver over the in-process fabric (ranks as threads),
    /// asynchronous exchange, a checkpoint after every iteration.
    Inproc1x2AsyncCkpt,
    /// `Inproc1x2SyncExchange`'s run over TCP: master plus two slave OS
    /// processes. Not a benchmark workload: the master's final-gather
    /// fault ends a few percent of these runs at random (see the README).
    Tcp1x2Exchange,
}

/// The shape of one workload's training run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub rows: usize,
    pub cols: usize,
    pub iterations: usize,
    pub batches: usize,
    pub dataset_size: usize,
    pub exchange: ExchangeMode,
    /// Checkpoint cadence in iterations (`None` = no checkpoints).
    pub checkpoint_every: Option<usize>,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Seq3x3Train,
        Workload::Inproc1x2SyncExchange,
        Workload::Inproc1x2AsyncCkpt,
        Workload::Tcp1x2Exchange,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Seq3x3Train => "seq-3x3-train",
            Workload::Inproc1x2SyncExchange => "inproc-1x2-sync-exchange",
            Workload::Inproc1x2AsyncCkpt => "inproc-1x2-async-ckpt",
            Workload::Tcp1x2Exchange => "tcp-1x2-exchange",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The run's make-up at Table I shapes, or at toy size (`toy`), which
    /// the benchmark's own tests use so the harness cannot rot.
    pub fn shape(self, toy: bool) -> Shape {
        let (rows, cols, iterations, batches, exchange, checkpoint_every) = match self {
            Workload::Seq3x3Train => (3, 3, 1, 20, ExchangeMode::Sync, None),
            Workload::Inproc1x2SyncExchange | Workload::Tcp1x2Exchange => {
                (1, 2, 12, 2, ExchangeMode::Sync, None)
            }
            Workload::Inproc1x2AsyncCkpt => (1, 2, 10, 4, ExchangeMode::Async, Some(1)),
        };
        if toy {
            return Shape {
                rows,
                cols,
                iterations: 2,
                batches: 2,
                dataset_size: 64,
                exchange,
                checkpoint_every,
            };
        }
        Shape {
            rows,
            cols,
            iterations,
            batches,
            dataset_size: 4_000,
            exchange,
            checkpoint_every,
        }
    }
}

/// The training configuration of `w` under `seed`: Table I networks and
/// hyper-parameters with the workload's shape. The seed picks both the
/// master seed and the data seed, so the same seed gives the same inputs.
/// `ckpt_dir` is where a checkpointing workload commits.
pub fn config(w: Workload, seed: u64, toy: bool, ckpt_dir: Option<&Path>) -> TrainConfig {
    let s = w.shape(toy);
    let mut cfg = TrainConfig::paper_table1();
    if toy {
        cfg.network.latent_dim = 8;
        cfg.network.hidden_layers = 1;
        cfg.network.hidden_units = 16;
        cfg.training.batch_size = 8;
        cfg.training.eval_batch = 16;
    }
    cfg.grid.rows = s.rows;
    cfg.grid.cols = s.cols;
    cfg.coevolution.iterations = s.iterations;
    cfg.training.batches_per_iteration = s.batches;
    cfg.training.dataset_size = s.dataset_size;
    cfg.seed = seed;
    cfg.training.data_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDA7A;
    cfg = cfg.with_exchange(s.exchange);
    if let (Some(every), Some(dir)) = (s.checkpoint_every, ckpt_dir) {
        cfg = cfg.with_checkpoints(dir.display().to_string(), every);
    }
    cfg
}

/// The full synthetic-digit dataset every cell trains on.
pub fn dataset(cfg: &TrainConfig) -> Matrix {
    SynthDigits::generate(cfg.training.dataset_size, cfg.training.data_seed).images
}

/// Training samples that pass through train steps in one run:
/// cells × iterations × batches × batch size.
pub fn samples(cfg: &TrainConfig) -> u64 {
    (cfg.cells()
        * cfg.coevolution.iterations
        * cfg.training.batches_per_iteration
        * cfg.training.batch_size) as u64
}
