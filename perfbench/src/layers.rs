//! The traced run: per-layer metrics from calls into each crate's public
//! functions at the workload's shapes, each layer's correctness check, and
//! the attribution of the untraced iteration time to those layers.
//!
//! The core rows come from re-driving the workload's grid through the
//! `CellEngine` phases in `SequentialTrainer`'s order (async frames
//! included), which must save the same bytes as the untraced run.

use crate::workload::{config, dataset, Workload};
use crate::{json_obj, Fields};
use lipiz_core::{persist, CellEngine, CellSnapshot, CellState, Grid, TrainConfig};
use lipiz_data::{BatchLoader, SynthDigits};
use lipiz_metrics::ScoreService;
use lipiz_mpi::wire::Wire;
use lipiz_mpi::{Comm, TcpFabric, Universe};
use lipiz_nn::mlp::Grads;
use lipiz_nn::{gan, Adam, Discriminator, GanLoss, Generator, TrainWorkspace};
use lipiz_runtime::checkpoint;
use lipiz_runtime::protocol::SnapshotMsg;
use lipiz_tensor::{ops, Matrix, Pool, Rng64};
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::time::Instant;

/// Largest |blocked − naive f64| accepted for a product of values in
/// [−1, 1] with an inner dimension of 256 (f32 accumulation error is
/// ~1e-5 there).
const MATMUL_TOL: f64 = 1e-3;

/// Median seconds per call of `f` over `reps` timed calls (after one
/// untimed warm-up call).
fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut t: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut t)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Per-layer metric rows plus the first failed check, if any.
struct Trace {
    rows: Fields,
    errors: Vec<String>,
}

impl Trace {
    fn row(&mut self, name: &str, value: f64) {
        self.rows.num(name, value);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Run the traced measurements for `w` and print one JSON line: every
/// per-layer metric, whether every check passed, and the first failure.
/// `untraced_loop_s` and `untraced_out` come from an untraced repetition
/// of the same workload and seed.
pub fn trace(
    w: Workload,
    seed: u64,
    toy: bool,
    work: &Path,
    untraced_loop_s: f64,
    untraced_out: &Path,
) -> Result<(), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let cfg = config(w, seed, toy, None);
    let reps = if toy { 3 } else { 20 };
    let mut t = Trace { rows: Fields::default(), errors: Vec::new() };

    tensor_layer(&mut t, reps);
    nn_layer(&mut t, &cfg, reps);
    let data = data_layer(&mut t, &cfg, reps);
    let mut core = core_layer(&mut t, &cfg, data, work, untraced_out);
    let mpi = mpi_layer(&mut t, &cfg, &core.snapshots, reps);
    let capture = checkpoint_layer(&mut t, &cfg, &mut core.engine, &core.snapshots, work, reps);
    scorer_check(&mut t, toy);

    // Attribution: the untraced grid-iteration time against the layer rows
    // on the workload's path (per grid iteration; distributed cells run
    // side by side, one per rank).
    let iteration_s = untraced_loop_s / cfg.coevolution.iterations as f64;
    let cell_compute = core.snapshot + core.ingest + core.mutate + core.train + core.update;
    let attributed = match w {
        Workload::Seq3x3Train => cfg.cells() as f64 * cell_compute,
        Workload::Inproc1x2SyncExchange => {
            cell_compute + mpi.encode + mpi.allgather_inproc + cfg.cells() as f64 * mpi.decode
        }
        Workload::Tcp1x2Exchange => {
            cell_compute + mpi.encode + mpi.allgather_tcp + cfg.cells() as f64 * mpi.decode
        }
        Workload::Inproc1x2AsyncCkpt => {
            cell_compute
                + mpi.encode
                + mpi.allgather_inproc
                + cfg.cells() as f64 * mpi.decode
                + capture
        }
    };
    t.row("runtime.iteration_s", iteration_s);
    t.row("runtime.unattributed_s", iteration_s - attributed);

    let mut out = Fields::default();
    out.raw("metrics", &json_obj(&t.rows));
    out.raw("ok", if t.errors.is_empty() { "true" } else { "false" });
    out.str("error", t.errors.first().map_or("", String::as_str));
    println!("{}", json_obj(&out));
    Ok(())
}

fn tensor_layer(t: &mut Trace, reps: usize) {
    let mut rng = Rng64::seed_from(11);
    let a = rng.uniform_matrix(100, 256, -1.0, 1.0);
    let b = rng.uniform_matrix(256, 784, -1.0, 1.0);
    let delta = rng.uniform_matrix(100, 784, -1.0, 1.0);
    let w = rng.uniform_matrix(256, 784, -1.0, 1.0);
    t.row("tensor.matmul_us", 1e6 * median_s(reps, || drop(black_box(ops::matmul(&a, &b)))));
    t.row(
        "tensor.matmul_at_b_us",
        1e6 * median_s(reps, || drop(black_box(ops::matmul_at_b(&a, &delta)))),
    );
    t.row(
        "tensor.matmul_a_bt_us",
        1e6 * median_s(reps, || drop(black_box(ops::matmul_a_bt(&delta, &w)))),
    );
    let products = [
        ("matmul", ops::matmul(&a, &b), naive(&a, &b, false, false)),
        ("matmul_at_b", ops::matmul_at_b(&a, &delta), naive(&a, &delta, true, false)),
        ("matmul_a_bt", ops::matmul_a_bt(&delta, &w), naive(&delta, &w, false, true)),
    ];
    for (name, got, want) in products {
        let err = got
            .as_slice()
            .iter()
            .zip(&want)
            .map(|(&g, &r)| (g as f64 - r).abs())
            .fold(0.0, f64::max);
        let shape_ok = got.len() == want.len();
        t.check(shape_ok && err <= MATMUL_TOL, || {
            format!("tensor: {name} is {err:e} from the naive f64 product")
        });
    }
}

/// Naive f64 product of `op(a) · op(b)`, row-major.
fn naive(a: &Matrix, b: &Matrix, ta: bool, tb: bool) -> Vec<f64> {
    let at = |i: usize, k: usize| if ta { a.row(k)[i] } else { a.row(i)[k] } as f64;
    let bt = |k: usize, j: usize| if tb { b.row(j)[k] } else { b.row(k)[j] } as f64;
    let (m, inner) = if ta { (a.cols(), a.rows()) } else { (a.rows(), a.cols()) };
    let n = if tb { b.rows() } else { b.cols() };
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for k in 0..inner {
            let aik = at(i, k);
            for j in 0..n {
                out[i * n + j] += aik * bt(k, j);
            }
        }
    }
    out
}

fn nn_layer(t: &mut Trace, cfg: &TrainConfig, reps: usize) {
    let net = cfg.network.to_network_config();
    let batch = cfg.training.batch_size;
    let mut rng = Rng64::seed_from(13);
    let mut g = Generator::new(&net, &mut rng);
    let mut d = Discriminator::new(&net, &mut rng);
    let mut adam_g = Adam::new(g.net.param_count());
    let mut adam_d = Adam::new(d.net.param_count());
    let real = rng.uniform_matrix(batch, net.data_dim, -0.9, 0.9);
    let fake = rng.uniform_matrix(batch, net.data_dim, -0.9, 0.9);
    let z = gan::latent_batch(&mut rng, batch, net.latent_dim);
    let mut ws = TrainWorkspace::default();
    let pool = Pool::serial();
    let lr = cfg.mutation.initial_lr;
    let gen_step = median_s(reps, || {
        black_box(gan::train_generator_step_ws(
            &mut g,
            &d,
            &mut adam_g,
            &z,
            lr,
            GanLoss::Heuristic,
            &mut ws,
            &pool,
        ));
    });
    let disc_step = median_s(reps, || {
        black_box(gan::train_discriminator_step_ws(
            &mut d,
            &mut adam_d,
            &real,
            &fake,
            lr,
            &mut ws,
            &pool,
        ));
    });
    let mut grads = Grads::zeros(g.net.param_count());
    for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
        *v = ((i % 17) as f32 - 8.0) * 1e-3;
    }
    let mut adam = Adam::new(g.net.param_count());
    let adam_step = median_s(reps * 3, || adam.step(&mut g.net, &grads, lr));
    let eval = rng.uniform_matrix(cfg.training.eval_batch, net.data_dim, -0.9, 0.9);
    let (mut logits, mut scratch) = (Matrix::default(), Matrix::default());
    let disc_logits =
        median_s(reps * 3, || d.logits_into(&eval, &mut logits, &mut scratch, &pool));
    t.check(logits.all_finite() && g.net.genome().iter().all(|v| v.is_finite()), || {
        "nn: a train step left a non-finite value".into()
    });
    t.row("nn.gen_step_ms", 1e3 * gen_step);
    t.row("nn.disc_step_ms", 1e3 * disc_step);
    t.row("nn.adam_step_us", 1e6 * adam_step);
    t.row("nn.disc_logits_ms", 1e3 * disc_logits);
}

fn data_layer(t: &mut Trace, cfg: &TrainConfig, reps: usize) -> Matrix {
    let mut data = Matrix::default();
    let synth = median_s(2, || data = dataset(cfg));
    let mut loader = BatchLoader::new(data.clone(), cfg.training.batch_size, cfg.seed);
    let mut batch = Matrix::default();
    let next = median_s(reps * 10, || loader.next_batch_into(&mut batch));
    t.check(batch.rows() == cfg.training.batch_size, || "data: short batch".into());
    t.row("data.synth_s", synth);
    t.row("data.next_batch_us", 1e6 * next);
    data
}

/// Mean per-cell-iteration phase times of the re-drive, in seconds, plus
/// what later layers reuse from it.
struct CoreRows {
    snapshot: f64,
    ingest: f64,
    mutate: f64,
    train: f64,
    update: f64,
    /// The last frame of center snapshots (cell order).
    snapshots: Vec<CellSnapshot>,
    /// An engine mid-run, for the checkpoint layer to capture.
    engine: CellEngine,
}

/// Re-drive the workload's grid in `SequentialTrainer`'s order: snapshot
/// every center, then for each cell fan out its neighbors from the frame
/// (the previous generation's under async exchange, from iteration 1 on)
/// and run ingest → mutate → train → update. The winning ensemble must
/// equal the untraced run's byte for byte.
fn core_layer(
    t: &mut Trace,
    cfg: &TrainConfig,
    data: Matrix,
    work: &Path,
    untraced_out: &Path,
) -> CoreRows {
    let grid = Grid::from_config(&cfg.grid);
    let pool = Pool::new(cfg.training.workers_per_cell);
    let mut engines: Vec<CellEngine> = (0..grid.cell_count())
        .map(|i| CellEngine::with_pool(i, cfg, data.clone(), pool.clone()))
        .collect();
    drop(data);
    let stale_frames = cfg.exchange.is_async();
    let mut frame: Vec<CellSnapshot> = Vec::new();
    let mut prev: Vec<CellSnapshot> = Vec::new();
    let mut neighbors: Vec<CellSnapshot> = Vec::new();
    let (mut snap, mut ingest, mut mutate, mut train, mut update) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut grid_iter = Vec::new();
    let time = |v: &mut Vec<f64>, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        v.push(start.elapsed().as_secs_f64());
    };
    for iter in 0..cfg.coevolution.iterations {
        let start = Instant::now();
        frame.resize_with(engines.len(), CellSnapshot::empty);
        for (e, s) in engines.iter_mut().zip(&mut frame) {
            time(&mut snap, &mut || e.snapshot_into(s));
        }
        let source = if stale_frames && iter >= 1 { &prev } else { &frame };
        for (idx, e) in engines.iter_mut().enumerate() {
            let ids = grid.neighbors(idx);
            neighbors.resize_with(ids.len(), CellSnapshot::empty);
            for (slot, &n) in neighbors.iter_mut().zip(&ids) {
                slot.copy_from(&source[n]);
            }
            time(&mut ingest, &mut || e.ingest_neighbors(&neighbors));
            time(&mut mutate, &mut || e.mutate_phase());
            time(&mut train, &mut || e.train_phase());
            time(&mut update, &mut || e.update_phase());
            e.advance_iteration();
        }
        if stale_frames {
            std::mem::swap(&mut frame, &mut prev);
        }
        grid_iter.push(start.elapsed().as_secs_f64());
    }

    // The winner as `SequentialTrainer::finish` picks it: the first cell
    // with the lowest best-generator fitness.
    let mut best = 0;
    for i in 1..engines.len() {
        if engines[i].best_gen_fitness() < engines[best].best_gen_fitness() {
            best = i;
        }
    }
    let redrive_out = work.join("redrive.lpz");
    let saved = persist::save_ensemble(&redrive_out, &engines[best].ensemble());
    let same =
        saved.is_ok() && std::fs::read(&redrive_out).ok() == std::fs::read(untraced_out).ok();
    t.check(same, || {
        format!(
            "core: the traced re-drive saved other bytes than the untraced run ({})",
            untraced_out.display()
        )
    });

    let population = grid.neighbors(0).len() + 1;
    let rows = CoreRows {
        snapshot: mean(&snap),
        ingest: mean(&ingest),
        mutate: mean(&mutate),
        train: mean(&train),
        update: mean(&update),
        snapshots: if stale_frames { prev } else { frame },
        engine: engines.swap_remove(0),
    };
    t.row("core.snapshot_ms", 1e3 * rows.snapshot);
    t.row("core.ingest_ms", 1e3 * rows.ingest);
    t.row("core.mutate_us", 1e6 * rows.mutate);
    t.row("core.train_phase_ms", 1e3 * rows.train);
    t.row("core.update_phase_ms", 1e3 * rows.update);
    // Computed: each of the population's discriminators scores the real
    // batch and every generator's fake batch.
    t.row("core.update_forwards", (population * (population + 1)) as f64);
    t.row("core.grid_iteration_s", mean(&grid_iter));
    rows
}

/// Median seconds of the snapshot wire format and of one allgather.
struct MpiRows {
    encode: f64,
    decode: f64,
    allgather_inproc: f64,
    allgather_tcp: f64,
}

fn mpi_layer(t: &mut Trace, cfg: &TrainConfig, frame: &[CellSnapshot], reps: usize) -> MpiRows {
    let snap = &frame[0];
    let mut buf = Vec::new();
    let encode = median_s(reps, || {
        buf.clear();
        SnapshotMsg::encode_snapshot(snap, &mut buf);
    });
    let mut decoded = CellSnapshot::empty();
    let decode = median_s(reps, || {
        decoded = SnapshotMsg::from_bytes(&buf).expect("snapshot decode").into_snapshot();
    });
    t.check(same_snapshot(&decoded, snap), || {
        "mpi: a snapshot did not round-trip bit-exactly".into()
    });

    // Two ranks, each contributing a real (distinct) snapshot.
    let payloads: Vec<Vec<u8>> = frame
        .iter()
        .cycle()
        .take(2)
        .map(|s| {
            let mut b = Vec::new();
            SnapshotMsg::encode_snapshot(s, &mut b);
            b
        })
        .collect();
    let inproc = Universe::run(2, |comm: Comm| allgather_loop(&comm, &payloads, reps));
    let tcp = tcp_allgather(&payloads, reps);
    let mut all_ok = inproc.iter().all(|r| r.1);
    let allgather_tcp = match &tcp {
        Ok(r) => {
            all_ok &= r.iter().all(|r| r.1);
            r[0].0
        }
        Err(e) => {
            t.errors.push(format!("mpi: tcp allgather failed: {e}"));
            f64::NAN
        }
    };
    t.check(all_ok, || "mpi: an allgather rank received a payload that differs".into());

    // Computed from the collective's pattern: ranks-1 contributions fan in
    // to rank 0, which sends the concatenation back to every other rank.
    let ranks = cfg.cells();
    let parts: Vec<Vec<u8>> = (0..ranks).map(|_| buf.clone()).collect();
    let concat = parts.to_bytes().len();
    let exchange_bytes = (ranks - 1) * (buf.len() + concat);
    t.row("mpi.snapshot_encode_ms", 1e3 * encode);
    t.row("mpi.snapshot_decode_ms", 1e3 * decode);
    t.row("mpi.snapshot_bytes", buf.len() as f64);
    t.row("mpi.allgather_inproc_ms", 1e3 * inproc[0].0);
    t.row("mpi.allgather_tcp_ms", 1e3 * allgather_tcp);
    t.row("mpi.exchange_bytes", exchange_bytes as f64);
    t.row("mpi.exchange_msgs", (2 * (ranks - 1)) as f64);
    MpiRows { encode, decode, allgather_inproc: inproc[0].0, allgather_tcp }
}

fn same_snapshot(a: &CellSnapshot, b: &CellSnapshot) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.cell == b.cell
        && bits(&a.gen_genome) == bits(&b.gen_genome)
        && bits(&a.disc_genome) == bits(&b.disc_genome)
        && a.gen_lr.to_bits() == b.gen_lr.to_bits()
        && a.disc_lr.to_bits() == b.disc_lr.to_bits()
        && a.gen_loss == b.gen_loss
        && a.gen_fitness.to_bits() == b.gen_fitness.to_bits()
        && a.disc_fitness.to_bits() == b.disc_fitness.to_bits()
}

/// Median seconds per allgather on this rank, and whether every round
/// delivered every rank's payload byte-exact.
fn allgather_loop(comm: &Comm, payloads: &[Vec<u8>], reps: usize) -> (f64, bool) {
    let mine = &payloads[comm.rank()];
    let mut ok = true;
    let s = median_s(reps, || {
        let parts = comm.allgather_bytes(mine);
        ok &= parts.as_slice() == payloads;
    });
    (s, ok)
}

/// The same allgather loop over the TCP transport: two ranks on loopback,
/// one per thread of this process.
fn tcp_allgather(payloads: &[Vec<u8>], reps: usize) -> std::io::Result<Vec<(f64, bool)>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let peer = s.spawn(move || -> std::io::Result<(f64, bool)> {
            let fabric = TcpFabric::slave(addr)?;
            let comm = Universe::attach(fabric.clone(), fabric.rank());
            let r = allgather_loop(&comm, payloads, reps);
            // Last word goes to the root, so its shutdown loses nothing.
            comm.gather(0, &1u64);
            fabric.shutdown_when_drained();
            Ok(r)
        });
        let fabric = TcpFabric::master(listener, 2)?;
        let comm = Universe::attach(fabric.clone(), 0);
        let root = allgather_loop(&comm, payloads, reps);
        comm.gather(0, &1u64);
        fabric.shutdown();
        let peer = peer.join().expect("tcp peer thread")?;
        Ok(vec![root, peer])
    })
}

/// Checkpoint capture, write and read of `engine`'s state (with `frame` as
/// the exchange frame under async exchange); the state read back must
/// equal the captured one. Returns the capture time.
fn checkpoint_layer(
    t: &mut Trace,
    cfg: &TrainConfig,
    engine: &mut CellEngine,
    frame: &[CellSnapshot],
    work: &Path,
    reps: usize,
) -> f64 {
    let mut state = engine.capture_state();
    let capture = median_s(reps, || engine.capture_state_into(&mut state));
    if cfg.exchange.is_async() {
        // Async cuts carry the frame the next iteration consumes.
        state.exchange_frame = frame.to_vec();
    }
    let dir = work.join("ckpt");
    let mut scratch = Vec::new();
    let mut path = dir.clone();
    let write = median_s(reps.min(5), || {
        path = checkpoint::write_cell_state_with(&dir, &state, &mut scratch)
            .expect("writing a checkpoint");
    });
    let mut back: Option<CellState> = None;
    let read = median_s(reps.min(5), || back = checkpoint::read_cell_state(&path, cfg).ok());
    t.check(back.as_ref() == Some(&state), || {
        "runtime: the checkpoint read back differs from the captured CellState".into()
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    t.row("runtime.ckpt_capture_ms", 1e3 * capture);
    t.row("runtime.ckpt_write_ms", 1e3 * write);
    t.row("runtime.ckpt_read_ms", 1e3 * read);
    t.row("runtime.ckpt_bytes", bytes as f64);
    capture
}

/// The quality scorer must tell held-out real digits from uniform noise
/// by a wide margin (it is not a benchmark metric; see the README).
fn scorer_check(t: &mut Trace, toy: bool) {
    let (n, holdout) = if toy { (200, 100) } else { (600, 300) };
    let scorer = ScoreService::bootstrap(&SynthDigits::generate(n, 77), 3, 78);
    let real = scorer.fid_of(&SynthDigits::generate(holdout, 79).images);
    let noise = scorer.fid_of(&Rng64::seed_from(80).uniform_matrix(holdout, 784, -1.0, 1.0));
    t.check(real.is_finite() && real * 10.0 < noise, || {
        format!("metrics: FID of held-out digits {real:.3} is not far below noise {noise:.3}")
    });
}
