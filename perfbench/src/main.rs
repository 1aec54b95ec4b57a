//! `perfbench`: the measuring half of the benchmark. `run.py` starts it in
//! a fresh process for every repetition and reads the JSON line it prints
//! last.
//!
//! ```text
//! perfbench rep --workload W --seed N --work DIR [--reference FILE] [--toy]
//! perfbench reference --workload W --seed N --out FILE [--toy]
//! perfbench trace --workload W --seed N --work DIR --untraced-loop-s S --untraced-out FILE [--toy]
//! perfbench slave --connect HOST:PORT
//! ```

mod checks;
mod layers;
mod rep;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workload::Workload;

/// Ordered JSON object fields, rendered by [`json_obj`].
#[derive(Default)]
pub struct Fields(Vec<(String, String)>);

impl Fields {
    pub fn num(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() { format!("{v}") } else { "null".into() };
        self.0.push((key.into(), v));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), v.to_string()));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        let mut quoted = String::from('"');
        for c in v.chars() {
            match c {
                '"' | '\\' => quoted.extend(['\\', c]),
                c if c.is_control() => quoted.push(' '),
                c => quoted.push(c),
            }
        }
        quoted.push('"');
        self.0.push((key.into(), quoted));
    }

    pub fn raw(&mut self, key: &str, v: &str) {
        self.0.push((key.into(), v.into()));
    }
}

pub fn json_obj(f: &Fields) -> String {
    let body: Vec<String> = f.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Wall-clock seconds since the Unix epoch: comparable across the
/// processes of one host, unlike `Instant`.
pub fn unix_now() -> f64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64())
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn workload_and_seed(args: &[String]) -> Result<(Workload, u64), String> {
    let name = required(args, "--workload")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = required(args, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    Ok((w, seed))
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let t0_unix = unix_now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let toy = present(&args, "--toy");
    let result = match args.first().map(String::as_str) {
        Some("rep") => workload_and_seed(&args).and_then(|(workload, seed)| {
            let rep = rep::run(
                &rep::RepArgs {
                    workload,
                    seed,
                    toy,
                    work: PathBuf::from(required(&args, "--work")?),
                    reference: flag(&args, "--reference").map(PathBuf::from),
                },
                t0,
                t0_unix,
            );
            println!("{}", rep.to_json());
            Ok(())
        }),
        Some("reference") => workload_and_seed(&args).and_then(|(w, seed)| {
            rep::reference(w, seed, toy, &PathBuf::from(required(&args, "--out")?))?;
            println!("{{\"ok\":true,\"error\":\"\"}}");
            Ok(())
        }),
        Some("trace") => workload_and_seed(&args).and_then(|(w, seed)| {
            let work = PathBuf::from(required(&args, "--work")?);
            let loop_s = required(&args, "--untraced-loop-s")?
                .parse()
                .map_err(|e| format!("--untraced-loop-s: {e}"))?;
            let untraced = PathBuf::from(required(&args, "--untraced-out")?);
            layers::trace(w, seed, toy, &work, loop_s, &untraced)
        }),
        Some("slave") => required(&args, "--connect")
            .and_then(|addr| rep::slave(addr).map_err(|e| format!("slave: {e}"))),
        _ => Err("usage: perfbench rep|reference|trace|slave ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
