//! Run orchestration: repeats as fresh child processes, medians across
//! them, the results document and the host fingerprint.
//!
//! The harness process never touches the program under test. Each repeat is
//! a child (`benchmark repeat …`) so it starts with an empty `NttPlan`
//! cache and metrics registry, and so `/proc/self/stat` of that child is
//! the repeat's CPU time, children of its own included.

use crate::e2e::RepeatResult;
use crate::json::Json;
use crate::stats::Summary;
use crate::workload::{Workload, E2E_METRICS, LAYER_METRICS, REFERENCE_SECONDS, WARMUP_MIN};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

pub const SCHEMA: &str = "prio-benchmark/v1";

/// Where the harness finds things; `run.sh` passes both.
#[derive(Clone, Debug)]
pub struct Env {
    /// Directory holding `prio-node` and `prio-submit` (and this binary).
    pub bin_dir: PathBuf,
    /// Where result and trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// How a run is sized.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Sizing {
    /// Run length the batch counts are scaled to (`--seconds`).
    pub seconds: u64,
    pub warmup_min: Duration,
    /// Client-encode time per run, split evenly over the repeats.
    pub encode_budget: Duration,
    /// `run.sh --quick`: one repeat, a tenth of the batch counts.
    pub quick: bool,
}

impl Sizing {
    /// The gate's shape: the workload's repeats, counts scaled to
    /// `seconds`, a seventh of the run (2 s of 14) in the client loops.
    pub fn full(seconds: u64) -> Sizing {
        Sizing {
            seconds,
            warmup_min: WARMUP_MIN,
            encode_budget: Duration::from_millis(seconds * 1000 / 7),
            quick: false,
        }
    }

    /// `run.sh --quick`: one repeat, a tenth of the batch counts. A smoke
    /// test of the harness, not a measurement — `compare` refuses it.
    pub fn quick() -> Sizing {
        Sizing {
            seconds: REFERENCE_SECONDS,
            warmup_min: Duration::from_millis(50),
            encode_budget: Duration::from_millis(100),
            quick: true,
        }
    }

    pub fn repeats(&self, w: &Workload) -> usize {
        if self.quick {
            1
        } else {
            w.repeats
        }
    }

    /// Timed batches per repeat of `w`.
    pub fn timed_batches(&self, w: &Workload) -> usize {
        let full = w.timed_batches_for(self.seconds);
        if self.quick {
            (full / 10).max(w.pool_batches)
        } else {
            full
        }
    }

    /// Most repeats a run may spend on `w`: perturbed repeats (see
    /// [`is_calm`]) are made up for, up to as many again.
    pub fn max_repeats(&self, w: &Workload) -> usize {
        if self.quick {
            1
        } else {
            2 * w.repeats
        }
    }
}

/// A repeat whose host-speed probe read more than this factor slower than
/// the fastest reading of the run was measured on a perturbed host. Quiet
/// readings scatter by ±1.5 %; a busy sibling hardware thread costs 30 % or
/// more, so nothing in between is cut.
pub const PERTURBED_FACTOR: f64 = 1.15;

/// Whether `r` ran while the host's CPU was as fast as at its best in this
/// run (`best_probe_ns`). The probe is a fixed arithmetic loop outside the
/// program under test, so no change to the program can move this verdict.
pub fn is_calm(r: &RepeatResult, best_probe_ns: f64) -> bool {
    r.host_probe_ns <= best_probe_ns * PERTURBED_FACTOR
}

/// Fastest host probe among the repeats that produced a result.
pub fn best_probe_ns<'a>(repeats: impl Iterator<Item = &'a Result<RepeatResult, String>>) -> f64 {
    repeats
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.host_probe_ns)
        .fold(f64::INFINITY, f64::min)
}

/// Runs this executable as a child, with the arguments `configure` adds,
/// and parses the last line of its standard output as JSON.
fn run_child(configure: impl FnOnce(&mut Command)) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut command = Command::new(exe);
    configure(&mut command);
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().ok_or("child printed nothing")?)
}

/// Runs one repeat of `w` in a fresh child process.
pub fn spawn_repeat(
    env: &Env,
    w: &Workload,
    seed: u64,
    sizing: &Sizing,
) -> Result<RepeatResult, String> {
    let encode_ms = sizing.encode_budget.as_millis() / sizing.repeats(w) as u128;
    let doc = run_child(|command| {
        command
            .arg("repeat")
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--batches", &sizing.timed_batches(w).to_string()])
            .args(["--warmup-ms", &sizing.warmup_min.as_millis().to_string()])
            .args(["--encode-ms", &encode_ms.to_string()])
            .arg("--bin-dir")
            .arg(&env.bin_dir);
    })?;
    RepeatResult::from_json(&doc)
}

/// The end-to-end metrics of one workload over a run's repeats.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// `(metric name, summary)`, in table order.
    pub metrics: Vec<(String, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl WorkloadResult {
    /// Folds repeats into per-metric summaries. `planned_per_repeat` is
    /// what a repeat that produced no result is charged as failed;
    /// `best_probe_ns` is the run's fastest host probe. Correctness counts
    /// every repeat; the timing medians count the calm ones, as long as
    /// three are left.
    pub fn from_repeats(
        repeats: &[Result<RepeatResult, String>],
        planned_per_repeat: u64,
        best_probe_ns: f64,
    ) -> Option<WorkloadResult> {
        let all: Vec<&RepeatResult> = repeats.iter().filter_map(|r| r.as_ref().ok()).collect();
        let mut attempted: u64 = all.iter().map(|r| r.attempted).sum();
        let mut failed: u64 = all.iter().map(|r| r.failed).sum();
        let mut notes: Vec<String> = all.iter().flat_map(|r| r.notes.iter().cloned()).collect();
        for error in repeats.iter().filter_map(|r| r.as_ref().err()) {
            attempted += planned_per_repeat;
            failed += planned_per_repeat;
            notes.push(format!("repeat produced no result: {error}"));
        }
        if all.is_empty() {
            return None;
        }
        let calm: Vec<&RepeatResult> = all
            .iter()
            .copied()
            .filter(|r| is_calm(r, best_probe_ns))
            .collect();
        let ok = if calm.len() >= 3 { calm } else { all.clone() };
        if ok.len() < all.len() {
            notes.push(format!(
                "{} of {} repeats set aside: the host probe read over {PERTURBED_FACTOR}x the run's best",
                all.len() - ok.len(),
                all.len()
            ));
        }
        let column = |f: fn(&RepeatResult) -> f64| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();
        let failed_share = failed as f64 / attempted as f64;
        let values: [Vec<f64>; 9] = [
            column(|r| r.throughput_sub_per_s),
            column(|r| r.batch_latency_p50_ms),
            column(|r| r.batch_latency_p95_ms),
            column(|r| r.cpu_us_per_sub),
            column(|r| r.client_encode_us_per_sub),
            column(|r| r.upload_bytes_per_sub),
            column(|r| r.leader_tx_bytes_per_sub),
            // One value per run: the share of all submissions attempted.
            vec![1.0 - failed_share],
            column(|r| r.setup_s),
        ];
        let metrics = E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), samples)| (name.to_string(), Summary::new(unit, samples)))
            .collect();
        Some(WorkloadResult {
            metrics,
            attempted,
            failed,
            notes,
        })
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, s)| (n.clone(), s.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<WorkloadResult, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("workload result lacks {key}"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("workload result lacks metrics")?
            .iter()
            .map(|(name, s)| Ok((name.clone(), Summary::from_json(s)?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(WorkloadResult {
            metrics,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            notes: v
                .get("notes")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// A results document: what `run.sh` writes and `compare` reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    /// `full` or `quick`.
    pub mode: String,
    pub seed: u64,
    pub host: Json,
    pub workloads: Vec<(String, WorkloadResult)>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("mode", Json::str(&self.mode)),
            ("seed", Json::Num(self.seed as f64)),
            ("host", self.host.clone()),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(n, w)| (n.clone(), w.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Results, String> {
        if v.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let workloads = v
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("document lacks workloads")?
            .iter()
            .map(|(name, w)| Ok((name.clone(), WorkloadResult::from_json(w)?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Results {
            mode: v
                .get("mode")
                .and_then(Json::as_str)
                .ok_or("document lacks mode")?
                .to_string(),
            seed: v
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("document lacks seed")? as u64,
            host: v.get("host").cloned().unwrap_or(Json::Null),
            workloads,
        })
    }
}

/// Runs every workload's repeats round-robin (w1 r1, w2 r1, …, w1 r2, …):
/// a burst on a shared host then lands on one repeat of several workloads,
/// not on all repeats of one. A workload is done when it has its number of
/// calm repeats (or has used up [`Sizing::max_repeats`]).
pub fn run_set(
    env: &Env,
    workloads: &[&Workload],
    seed: u64,
    sizing: &Sizing,
) -> Vec<(String, Option<WorkloadResult>)> {
    let mut repeats: Vec<Vec<Result<RepeatResult, String>>> = vec![Vec::new(); workloads.len()];
    loop {
        let mut ran = false;
        for (i, w) in workloads.iter().enumerate() {
            let best = best_probe_ns(repeats.iter().flatten());
            // A repeat without a result is not retried: it is a failure.
            let settled = repeats[i]
                .iter()
                .filter(|r| r.as_ref().map_or(true, |r| is_calm(r, best)))
                .count();
            if settled >= sizing.repeats(w) || repeats[i].len() >= sizing.max_repeats(w) {
                continue;
            }
            ran = true;
            let result = spawn_repeat(env, w, seed, sizing);
            let n = repeats[i].len() + 1;
            match &result {
                Ok(rep) => eprintln!(
                    "  {} repeat {n}: {:.0} sub/s, p50 {:.3} ms, host probe {:.4} ns, failed {}/{}",
                    w.name,
                    rep.throughput_sub_per_s,
                    rep.batch_latency_p50_ms,
                    rep.host_probe_ns,
                    rep.failed,
                    rep.attempted
                ),
                Err(e) => eprintln!("  {} repeat {n}: FAILED: {e}", w.name),
            }
            repeats[i].push(result);
        }
        if !ran {
            break;
        }
    }
    let best = best_probe_ns(repeats.iter().flatten());
    workloads
        .iter()
        .zip(repeats)
        .map(|(w, reps)| {
            let planned = (sizing.timed_batches(w) * w.batch) as u64;
            (
                w.name.to_string(),
                WorkloadResult::from_repeats(&reps, planned, best),
            )
        })
        .collect()
}

/// Runs the layer ladder of one workload in a fresh child process and
/// returns its `(metric, value)` rows.
pub fn spawn_layers(
    env: &Env,
    w: &Workload,
    seed: u64,
    seconds: u64,
) -> Result<Vec<(String, f64)>, String> {
    let doc = run_child(|command| {
        command
            .arg("layers")
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--bin-dir")
            .arg(&env.bin_dir)
            .arg("--out-dir")
            .arg(&env.out_dir);
    })?;
    layer_rows_from_json(&doc)
}

pub fn layer_rows_to_json(rows: &[(String, f64)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(n, v)| (n.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// Reads layer rows back, insisting on exactly the forty metrics.
pub fn layer_rows_from_json(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    LAYER_METRICS
        .iter()
        .map(|(name, _)| {
            doc.get(name)
                .and_then(Json::as_f64)
                .map(|v| (name.to_string(), v))
                .ok_or(format!("layer metric {name} missing or not a number"))
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// What the numbers were measured on. Results from different fingerprints
/// are not comparable; `compare` says so when they differ.
pub fn host_fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::str(cpu_model)),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        // The PR driver's checkout is not a git repository.
        (
            "git_sha",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeat(throughput: f64, failed: u64) -> RepeatResult {
        RepeatResult {
            throughput_sub_per_s: throughput,
            batch_latency_p50_ms: 1.0,
            batch_latency_p95_ms: 2.0,
            cpu_us_per_sub: 3.0,
            client_encode_us_per_sub: 4.0,
            upload_bytes_per_sub: 5.0,
            leader_tx_bytes_per_sub: 6.0,
            setup_s: 0.5,
            host_probe_ns: 1.0,
            attempted: 100,
            failed,
            notes: Vec::new(),
        }
    }

    #[test]
    fn repeats_fold_into_medians_and_failures_add_up() {
        let reps = vec![
            Ok(repeat(10.0, 0)),
            Ok(repeat(30.0, 2)),
            Ok(repeat(20.0, 0)),
            Err("boom".to_string()),
        ];
        let w = WorkloadResult::from_repeats(&reps, 50, 1.0).unwrap();
        assert_eq!(w.metrics.len(), 9);
        assert_eq!(w.metrics[0].0, "throughput_sub_per_s");
        assert_eq!(w.metrics[0].1.median(), 20.0);
        assert_eq!((w.attempted, w.failed), (350, 52));
        let correct = &w
            .metrics
            .iter()
            .find(|(n, _)| n == "correct_share")
            .unwrap()
            .1;
        assert!((correct.median() - (1.0 - 52.0 / 350.0)).abs() < 1e-12);
        assert!(WorkloadResult::from_repeats(&[Err("x".to_string())], 50, 1.0).is_none());
    }

    #[test]
    fn perturbed_repeats_keep_their_failures_but_leave_the_medians() {
        let slow_host = |throughput: f64, failed: u64| RepeatResult {
            host_probe_ns: 1.4,
            ..repeat(throughput, failed)
        };
        let reps = vec![
            Ok(repeat(100.0, 0)),
            Ok(slow_host(60.0, 3)),
            Ok(repeat(102.0, 0)),
            Ok(repeat(98.0, 0)),
            Ok(slow_host(55.0, 0)),
        ];
        let best = best_probe_ns(reps.iter());
        assert_eq!(best, 1.0);
        let w = WorkloadResult::from_repeats(&reps, 0, best).unwrap();
        assert_eq!(w.metrics[0].1.samples, vec![100.0, 102.0, 98.0]);
        assert_eq!((w.attempted, w.failed), (500, 3));
        assert!(w
            .notes
            .iter()
            .any(|n| n.starts_with("2 of 5 repeats set aside")));
        // With fewer than three calm repeats nothing is set aside.
        let w = WorkloadResult::from_repeats(&reps[..3], 0, best).unwrap();
        assert_eq!(w.metrics[0].1.samples.len(), 3);
    }

    #[test]
    fn results_document_roundtrips_through_text() {
        let w = WorkloadResult::from_repeats(&[Ok(repeat(10.5, 0)), Ok(repeat(11.25, 1))], 0, 1.0)
            .unwrap();
        let doc = Results {
            mode: "full".into(),
            seed: 0x5052_494f,
            host: host_fingerprint(),
            workloads: vec![("sum16_sim_s3".into(), w)],
        };
        let text = doc.to_json().to_pretty();
        assert_eq!(
            Results::from_json(&Json::parse(&text).unwrap()).unwrap(),
            doc
        );
        assert!(Results::from_json(&Json::obj(vec![("schema", Json::str("other"))])).is_err());
    }

    #[test]
    fn layer_rows_need_all_forty() {
        let rows: Vec<(String, f64)> = LAYER_METRICS
            .iter()
            .map(|(n, _)| (n.to_string(), 1.5))
            .collect();
        assert_eq!(
            layer_rows_from_json(&layer_rows_to_json(&rows)).unwrap(),
            rows
        );
        assert!(layer_rows_from_json(&layer_rows_to_json(&rows[1..])).is_err());
    }
}
