//! One repetition of a workload: a whole training run from a fresh
//! process, timed from process start until its ensemble is saved and
//! verified. A TCP run's slaves are further OS processes of this same
//! binary (see [`slave`]).

use crate::checks::verify_ensemble;
use crate::workload::{config, dataset, samples, Workload};
use crate::{json_obj, peak_rss_kb, unix_now, Fields};
use lipiz_core::sequential::SequentialTrainer;
use lipiz_core::{persist, Routine, TrainConfig};
use lipiz_runtime::driver::{
    run_distributed, run_tcp_master_monitored, run_tcp_slave, DistributedOptions,
};
use lipiz_runtime::master::MasterOutcome;
use lipiz_tensor::Matrix;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Where a repetition writes, and what it is checked against.
pub struct RepArgs {
    pub workload: Workload,
    pub seed: u64,
    pub toy: bool,
    /// Scratch directory owned by this repetition (checkpoints, output).
    pub work: PathBuf,
    /// Ensemble the output must equal byte for byte, if any.
    pub reference: Option<PathBuf>,
}

/// What one repetition measured.
pub struct RepResult {
    pub setup_s: f64,
    pub loop_s: f64,
    pub wall_s: f64,
    /// Samples through train steps, computed from the config.
    pub samples: u64,
    /// Peak resident memory summed over the run's processes.
    pub peak_rss_kb: u64,
    pub out: PathBuf,
    pub check: Result<(), String>,
}

impl RepResult {
    pub fn to_json(&self) -> String {
        let mut f = Fields::default();
        f.num("setup_s", self.setup_s);
        f.num("loop_s", self.loop_s);
        f.num("wall_s", self.wall_s);
        f.int("samples", self.samples);
        f.int("peak_rss_kb", self.peak_rss_kb);
        f.str("out", &self.out.display().to_string());
        f.raw("ok", if self.check.is_ok() { "true" } else { "false" });
        f.str("error", self.check.as_ref().err().map_or("", String::as_str));
        json_obj(&f)
    }
}

/// Run one repetition. `t0`/`t0_unix` mark the process start.
pub fn run(args: &RepArgs, t0: Instant, t0_unix: f64) -> RepResult {
    std::fs::create_dir_all(&args.work).expect("creating the repetition's work directory");
    let out = args.work.join("ensemble.lpz");
    let ckpt = args.work.join("ckpt");
    let cfg = config(args.workload, args.seed, args.toy, Some(&ckpt));
    let reference = args
        .reference
        .as_ref()
        .map(|p| std::fs::read(p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display())));
    let run = match args.workload {
        Workload::Seq3x3Train => run_sequential(&cfg, t0, &out),
        Workload::Tcp1x2Exchange => run_tcp(&cfg, t0_unix, &out),
        Workload::Inproc1x2SyncExchange | Workload::Inproc1x2AsyncCkpt => {
            run_inproc(&cfg, t0, &out)
        }
    };
    let expected = samples(&cfg);
    let check =
        run.saved.and_then(|()| verify_ensemble(&out, reference.as_deref())).and_then(|()| {
            if run.reported_samples == expected {
                Ok(())
            } else {
                Err(format!(
                    "the run reports {} samples trained, not {expected}",
                    run.reported_samples
                ))
            }
        });
    let wall_s = t0.elapsed().as_secs_f64();
    RepResult {
        setup_s: run.setup_s,
        loop_s: run.loop_s,
        wall_s,
        samples: expected,
        peak_rss_kb: peak_rss_kb() + run.slaves_rss_kb,
        out,
        check,
    }
}

/// Samples the run's own report says went through train steps: train
/// phases recorded (one per cell-iteration) × batches × batch size.
fn reported_samples(cfg: &TrainConfig, train_calls: u64) -> u64 {
    train_calls * (cfg.training.batches_per_iteration * cfg.training.batch_size) as u64
}

/// One driver's training run, as the repetition sees it.
struct Run {
    setup_s: f64,
    loop_s: f64,
    /// Peak memory of the run's other processes (TCP slaves).
    slaves_rss_kb: u64,
    /// Samples trained according to the run's own report.
    reported_samples: u64,
    /// Whether the winning ensemble was saved.
    saved: Result<(), String>,
}

impl Run {
    fn failed(error: String) -> Run {
        Run {
            setup_s: 0.0,
            loop_s: 0.0,
            slaves_rss_kb: 0,
            reported_samples: 0,
            saved: Err(error),
        }
    }
}

fn run_sequential(cfg: &TrainConfig, t0: Instant, out: &Path) -> Run {
    let full = dataset(cfg);
    let mut trainer = SequentialTrainer::new(cfg, |_| full.clone());
    drop(full);
    let setup_s = t0.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = trainer.run();
    let loop_s = start.elapsed().as_secs_f64();
    let train = Routine::Train.name();
    let train_calls: u64 =
        report.profile.rows.iter().filter(|r| r.routine == train).map(|r| r.calls).sum();
    let best = trainer.ensembles().swap_remove(report.best_cell);
    let saved = persist::save_ensemble(out, &best).map_err(|e| format!("saving: {e}"));
    Run {
        setup_s,
        loop_s,
        slaves_rss_kb: 0,
        reported_samples: reported_samples(cfg, train_calls),
        saved,
    }
}

/// Train calls summed over the slaves' own profiles.
fn slave_train_calls(outcome: &MasterOutcome) -> u64 {
    let train = Routine::Train.name();
    outcome
        .slave_results
        .iter()
        .flat_map(|r| &r.profile)
        .filter(|row| row.routine == train)
        .map(|row| row.calls)
        .sum()
}

fn save_outcome(cfg: &TrainConfig, outcome: &MasterOutcome, out: &Path) -> Result<(), String> {
    persist::save_ensemble(out, &outcome.best_ensemble(cfg)).map_err(|e| format!("saving: {e}"))
}

fn run_inproc(cfg: &TrainConfig, t0: Instant, out: &Path) -> Run {
    // The slaves synthesize their data on their own threads; the last one
    // to finish marks the end of set-up.
    let ready: Mutex<Option<Instant>> = Mutex::new(None);
    let make_data = |_cell: usize, cfg: &TrainConfig| -> Matrix {
        let data = dataset(cfg);
        let now = Instant::now();
        let mut last = ready.lock().expect("ready lock");
        *last = Some(last.map_or(now, |t| t.max(now)));
        data
    };
    let outcome = run_distributed(cfg, make_data, DistributedOptions::default());
    let end = Instant::now();
    let setup_end = ready.lock().expect("ready lock").expect("every slave built its data");
    let setup_s = setup_end.duration_since(t0).as_secs_f64();
    let loop_s = end.duration_since(setup_end).as_secs_f64();
    Run {
        setup_s,
        loop_s,
        slaves_rss_kb: 0,
        reported_samples: reported_samples(cfg, slave_train_calls(&outcome)),
        saved: save_outcome(cfg, &outcome, out),
    }
}

/// What a slave process reports on its standard output when it exits.
struct SlaveReport {
    data_ready_unix: f64,
    peak_rss_kb: u64,
}

fn parse_slave_report(line: &str) -> Option<SlaveReport> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    };
    Some(SlaveReport {
        data_ready_unix: field("data_ready_unix")?.parse().ok()?,
        peak_rss_kb: field("peak_rss_kb")?.parse().ok()?,
    })
}

fn run_tcp(cfg: &TrainConfig, t0_unix: f64, out: &Path) -> Run {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding the master's listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    let exe = std::env::current_exe().expect("locating this binary");
    let mut children: Vec<_> = (0..cfg.cells())
        .map(|_| {
            Command::new(&exe)
                .args(["slave", "--connect", &addr])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawning a slave process")
        })
        .collect();
    let outcome = run_tcp_master_monitored(listener, cfg, DistributedOptions::default());
    let end_unix = unix_now();
    if !matches!(outcome, Ok(Ok(_))) {
        for c in &mut children {
            let _ = c.kill();
        }
    }
    let reports: Vec<Option<SlaveReport>> = children
        .into_iter()
        .map(|mut c| {
            let stdout = c.stdout.take().expect("piped stdout");
            let last = BufReader::new(stdout).lines().map_while(Result::ok).last();
            let _ = c.wait();
            last.as_deref().and_then(parse_slave_report)
        })
        .collect();
    let outcome = match outcome {
        Ok(Ok(o)) => o,
        Ok(Err(abort)) => return Run::failed(format!("master aborted: {abort}")),
        Err(e) => return Run::failed(format!("tcp bootstrap failed: {e}")),
    };
    let Some(reports) = reports.into_iter().collect::<Option<Vec<_>>>() else {
        return Run::failed("a slave exited without its report".into());
    };
    let setup_end = reports.iter().map(|r| r.data_ready_unix).fold(f64::MIN, f64::max);
    Run {
        setup_s: setup_end - t0_unix,
        loop_s: end_unix - setup_end,
        slaves_rss_kb: reports.iter().map(|r| r.peak_rss_kb).sum(),
        reported_samples: reported_samples(cfg, slave_train_calls(&outcome)),
        saved: save_outcome(cfg, &outcome, out),
    }
}

/// A TCP slave process: the program's own slave (`run_tcp_slave`, as
/// `lipizzaner slave` runs it), with the data synthesized from the wire
/// config. It prints when its data was ready and its peak memory.
pub fn slave(connect: &str) -> std::io::Result<()> {
    let ready = Mutex::new(0.0f64);
    let make_data = |_cell: usize, cfg: &TrainConfig| -> Matrix {
        let data = dataset(cfg);
        *ready.lock().expect("ready lock") = unix_now();
        data
    };
    run_tcp_slave(connect, make_data)?;
    let mut f = Fields::default();
    f.num("data_ready_unix", *ready.lock().expect("ready lock"));
    f.int("peak_rss_kb", peak_rss_kb());
    println!("{}", json_obj(&f));
    Ok(())
}

/// The sequential driver's ensemble for `w`'s config and seed: the
/// reference the distributed workloads must reproduce byte for byte
/// (sync and async exchange alike; checkpointing changes no weight).
pub fn reference(w: Workload, seed: u64, toy: bool, out: &Path) -> Result<(), String> {
    let cfg = config(w, seed, toy, None);
    run_sequential(&cfg, Instant::now(), out).saved?;
    verify_ensemble(out, None)
}
