//! The gate benchmark for the Prio reproduction. See README.md.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one gate run (the PR driver's form)
//! benchmark set [--quick | --traced] [--seed N]             a full run set → out/results.json
//! benchmark compare A.json B.json [--spec BENCHMARK.json]   before/after, bound by bound
//! benchmark repeat … | layers …                             (internal: one child process each)
//! ```

mod compare;
mod e2e;
mod harness;
mod json;
mod layers;
mod oracle;
mod spans;
mod stats;
mod workload;

use e2e::{RepeatPlan, RepeatResult};
use harness::{Env, Results, Sizing, WorkloadResult};
use json::Json;
use prio_field::FieldElement;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::{BenchAfe, Workload, DEFAULT_SEED, LAYER_METRICS, REFERENCE_SECONDS, WORKLOADS};

/// `--key value` pairs, bare `--flag`s and positionals.
struct Args {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            options: HashMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if flags.contains(&name) => args.flags.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.insert(name.to_string(), value.clone());
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.options
            .get(name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{name} takes a whole number, got {v:?}"))
            })
            .transpose()
    }

    fn required_number(&self, name: &str) -> Result<u64, String> {
        self.number(name)?.ok_or(format!("--{name} is required"))
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self
            .options
            .get("workload")
            .ok_or("--workload is required")?;
        workload::find(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?}; the workloads are {}",
                known.join(", ")
            )
        })
    }

    /// `prio-node`/`prio-submit` sit next to this binary unless told
    /// otherwise: `run.sh` builds all three into one target directory.
    fn env(&self) -> Result<Env, String> {
        let bin_dir = match self.options.get("bin-dir") {
            Some(dir) => PathBuf::from(dir),
            None => std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(Path::to_path_buf))
                .ok_or("cannot locate own executable; pass --bin-dir")?,
        };
        let out_dir = PathBuf::from(
            self.options
                .get("out-dir")
                .map_or("benchmark/out", String::as_str),
        );
        Ok(Env { bin_dir, out_dir })
    }
}

fn repeat_typed<F: FieldElement, A: BenchAfe<F>>(
    afe: A,
    w: &Workload,
    plan: &RepeatPlan,
) -> Result<RepeatResult, String> {
    e2e::run_repeat::<F, A>(afe, w, plan, &e2e::tamper_rule)
}

/// `benchmark repeat`: one repeat, one JSON line.
fn cmd_repeat(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let env = args.env()?;
    let plan = RepeatPlan {
        seed: args.required_number("seed")?,
        timed_batches: args.required_number("batches")? as usize,
        warmup_min: Duration::from_millis(args.required_number("warmup-ms")?),
        encode_budget: Duration::from_millis(args.required_number("encode-ms")?),
        bin_dir: &env.bin_dir,
    };
    let result = with_workload_types!(w, repeat_typed(w, &plan))?;
    println!("{}", result.to_json().to_compact());
    Ok(ExitCode::SUCCESS)
}

/// `benchmark layers`: the layer ladder of one workload, one JSON line.
fn cmd_layers(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let env = args.env()?;
    let seed = args.required_number("seed")?;
    let seconds = args.required_number("seconds")?;
    let rows = layers::run(w, seed, seconds, &env)?;
    println!("{}", harness::layer_rows_to_json(&rows).to_compact());
    Ok(ExitCode::SUCCESS)
}

fn print_e2e(name: &str, w: &WorkloadResult) {
    println!("{name}");
    for (metric, s) in &w.metrics {
        println!(
            "  {metric:<26} {:>16.6} {:<6} (min {:.6}, max {:.6}, n={})",
            s.median(),
            s.unit,
            s.min(),
            s.max(),
            s.samples.len()
        );
    }
    println!(
        "  {:<26} {:>16.6} ratio  ({} of {} submissions)",
        "failed_share",
        w.failed_share(),
        w.failed,
        w.attempted
    );
    for note in &w.notes {
        println!("  ! {note}");
    }
}

fn print_layers(name: &str, rows: &[(String, f64)]) {
    println!("{name}");
    for ((metric, value), (_, unit)) in rows.iter().zip(&LAYER_METRICS) {
        println!("  {metric:<40} {value:>16.4} {unit}");
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The PR driver's form: one workload, one run, one JSON object as the last
/// line of standard output.
fn cmd_gate(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let env = args.env()?;
    let seed = args.number("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args.number("seconds")?.unwrap_or(REFERENCE_SECONDS);
    let trace = match args.number("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let metric = |value: f64, unit: &str| {
        Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
    };

    let (correct, attempted, failed, metrics) = if trace {
        // The ladder checks its own replay against the oracle; it reports
        // the submissions it replayed as attempted.
        let rows = layers::run(w, seed, seconds, &env)?;
        print_layers(w.name, &rows);
        let metrics = rows
            .iter()
            .zip(&LAYER_METRICS)
            .map(|((name, value), (_, unit))| (name.clone(), metric(*value, unit)))
            .collect();
        let replayed = layers::replay_batches(w, seconds) as u64 * w.batch as u64;
        (true, replayed, 0, Json::Obj(metrics))
    } else {
        let sizing = Sizing::full(seconds);
        let (_, result) = harness::run_set(&env, &[w], seed, &sizing).remove(0);
        let result = result.ok_or("no repeat produced a result")?;
        print_e2e(w.name, &result);
        let metrics = result
            .metrics
            .iter()
            .map(|(name, s)| (name.clone(), metric(s.median(), &s.unit)))
            .collect();
        (
            result.failed == 0,
            result.attempted,
            result.failed,
            Json::Obj(metrics),
        )
    };
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_compact());
    Ok(ExitCode::SUCCESS)
}

/// `benchmark set`: every workload, five repeats round-robin (or the layer
/// ladder of every workload with `--traced`), printed and written to
/// `out/results.json` (`out/layers.json`). Exits non-zero if any output was
/// wrong.
fn cmd_set(args: &Args) -> Result<ExitCode, String> {
    let env = args.env()?;
    let seed = args.number("seed")?.unwrap_or(DEFAULT_SEED);
    let all: Vec<&Workload> = WORKLOADS.iter().collect();
    let host = harness::host_fingerprint();
    eprintln!("host: {}", host.to_compact());

    if args.flag("traced") {
        let seconds = args.number("seconds")?.unwrap_or(REFERENCE_SECONDS);
        let mut doc = Vec::new();
        for w in &all {
            eprintln!("  {} layer ladder…", w.name);
            let rows = harness::spawn_layers(&env, w, seed, seconds)
                .map_err(|e| format!("{}: {e}", w.name))?;
            print_layers(w.name, &rows);
            doc.push((w.name.to_string(), harness::layer_rows_to_json(&rows)));
        }
        let doc = Json::obj(vec![
            ("schema", Json::str(harness::SCHEMA)),
            ("mode", Json::str("traced")),
            ("seed", Json::Num(seed as f64)),
            ("host", host),
            ("workloads", Json::Obj(doc)),
        ]);
        let path = env.out_dir.join("layers.json");
        write_file(&path, &doc.to_pretty())?;
        eprintln!(
            "wrote {} and one <workload>.trace.json per workload",
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let sizing = if args.flag("quick") {
        Sizing::quick()
    } else {
        Sizing::full(args.number("seconds")?.unwrap_or(REFERENCE_SECONDS))
    };
    let results = harness::run_set(&env, &all, seed, &sizing);
    let mut workloads = Vec::new();
    let mut clean = true;
    for (name, result) in results {
        match result {
            Some(result) => {
                print_e2e(&name, &result);
                clean &= result.failed == 0;
                workloads.push((name, result));
            }
            None => {
                println!("{name}\n  ! no repeat produced a result");
                clean = false;
            }
        }
    }
    let doc = Results {
        mode: if sizing.quick { "quick" } else { "full" }.into(),
        seed,
        host,
        workloads,
    };
    let path = PathBuf::from(args.options.get("out").cloned().unwrap_or_else(|| {
        env.out_dir
            .join("results.json")
            .to_string_lossy()
            .into_owned()
    }));
    write_file(&path, &doc.to_json().to_pretty())?;
    eprintln!("wrote {}", path.display());
    if !clean {
        eprintln!("benchmark: some outputs were wrong (failed_share > 0)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: benchmark compare A.json B.json [--spec BENCHMARK.json]".into());
    };
    let spec = args
        .options
        .get("spec")
        .map_or("BENCHMARK.json", String::as_str);
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = compare::Bounds::from_spec(&read(spec)?)?;
    let before = Results::from_json(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let after = Results::from_json(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let report = compare::compare(&bounds, &before, &after)?;
    print!("{}", report.render());
    Ok(if report.any_worse() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("repeat" | "layers" | "set" | "compare")) => (c, &raw[1..]),
        _ => ("gate", &raw[..]),
    };
    let outcome = Args::parse(rest, &["quick", "traced"]).and_then(|args| match command {
        "repeat" => cmd_repeat(&args),
        "layers" => cmd_layers(&args),
        "set" => cmd_set(&args),
        "compare" => cmd_compare(&args),
        _ => cmd_gate(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::E2E_METRICS;

    /// `BENCHMARK.json` and the tables in `workload.rs` must name the same
    /// workloads and metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let table = |t: &[(&str, &str)], i: usize| -> Vec<String> {
            t.iter()
                .map(|m| if i == 0 { m.0 } else { m.1 }.to_string())
                .collect()
        };
        assert_eq!(
            names("workloads", "name"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(names("end_to_end", "name"), table(&E2E_METRICS, 0));
        assert_eq!(names("end_to_end", "unit"), table(&E2E_METRICS, 1));
        assert_eq!(names("per_layer", "name"), table(&LAYER_METRICS, 0));
        assert_eq!(names("per_layer", "unit"), table(&LAYER_METRICS, 1));
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(REFERENCE_SECONDS as f64)
        );
        assert!(compare::Bounds::from_spec(&spec).is_ok());
    }

    #[test]
    fn argument_parsing() {
        let raw: Vec<String> = ["a.json", "--seed", "7", "--quick", "b.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw, &["quick"]).unwrap();
        assert_eq!(args.positional, ["a.json", "b.json"]);
        assert_eq!(args.number("seed").unwrap(), Some(7));
        assert!(args.flag("quick") && !args.flag("traced"));
        assert!(Args::parse(&["--seed".to_string()], &[]).is_err());
        assert!(args.required_number("seconds").is_err());
    }
}
