//! Time-to-solution benchmark for the optpar speculative runtime.
//!
//! ```text
//! optpar-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! optpar-benchmark [--seed N] [--seconds S]                           every workload, both modes
//! optpar-benchmark --compare a.json b.json                            two result sets against the bounds
//! ```
//!
//! One run = one workload in one process (so `peak_rss_mb` is the
//! workload's own). `--trace 0` measures the end-to-end metrics with
//! nothing attached; `--trace 1` is a separate run that reports the
//! per-layer metrics and writes the span file. The last line of a run's
//! standard output is its result as one JSON object. See README.md.

mod baselines;
mod drain;
mod json;
mod metrics;
mod probes;
mod service;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::{WorkloadInfo, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The arguments of one run.
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One run's outcome: verification tally and the metrics of its mode.
pub struct Run {
    workload: &'static str,
    seed: u64,
    traced: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, Summary)>,
    notes: Vec<String>,
    /// The span file's content (traced runs).
    pub trace: Option<Value>,
}

impl Run {
    pub fn new(args: &RunArgs) -> Run {
        Run {
            workload: args.workload,
            seed: args.seed,
            traced: args.traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            trace: None,
        }
    }

    /// Tally one verified drain.
    pub fn count(&mut self, ok: bool) {
        self.count_many(1, usize::from(ok));
    }

    /// Tally `attempted` operations of which `ok` verified.
    pub fn count_many(&mut self, attempted: usize, ok: usize) {
        self.attempted += attempted;
        self.failed += attempted - ok;
    }

    pub fn put(&mut self, name: &'static str, s: Summary) {
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, s));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A layer this workload's path does not cross reports 0.
    pub fn zero_unreported_layers(&mut self) {
        for m in &PER_LAYER {
            if !self.metrics.iter().any(|(n, _)| *n == m.name) {
                self.metrics.push((m.name, Summary::single(0.0)));
            }
        }
    }

    /// `(name, unit)` of every metric this run's mode must report, in
    /// table order.
    fn expected_metrics(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Correct = every output verified and every metric of the mode is
    /// present and finite.
    fn correct(&self) -> bool {
        let complete = self.expected_metrics().iter().all(|(name, _)| {
            self.metrics
                .iter()
                .any(|(n, s)| n == name && s.value.is_finite())
        });
        self.failed == 0
            && self.attempted > 0
            && complete
            && self.metrics.len() == self.expected_metrics().len()
    }

    /// The result line, or with `detailed` the full record: the same keys
    /// plus each metric's min/median/max/n and the run's notes.
    fn to_json(&self, detailed: bool) -> Value {
        let metrics = self
            .expected_metrics()
            .into_iter()
            .filter_map(|(name, unit)| {
                let (_, s) = self.metrics.iter().find(|(n, _)| *n == name)?;
                let v = if detailed {
                    s.to_json(unit)
                } else {
                    Value::obj([("value", Value::Num(s.value)), ("unit", Value::str(unit))])
                };
                Some((name, v))
            });
        let mut pairs = Vec::new();
        if detailed {
            pairs.push(("workload".to_string(), Value::str(self.workload)));
            pairs.push(("seed".to_string(), Value::Num(self.seed as f64)));
            pairs.push((
                "trace".to_string(),
                Value::Num(f64::from(u8::from(self.traced))),
            ));
            pairs.push((
                "notes".to_string(),
                Value::Arr(self.notes.iter().map(Value::str).collect()),
            ));
        }
        pairs.push(("correct".to_string(), Value::Bool(self.correct())));
        pairs.push(("attempted".to_string(), Value::Num(self.attempted as f64)));
        pairs.push(("failed".to_string(), Value::Num(self.failed as f64)));
        pairs.push(("metrics".to_string(), Value::obj(metrics)));
        Value::Obj(pairs)
    }

    /// Print every metric by name with its unit, write the run's files
    /// under `out`, and print the result line last.
    fn emit(&self, out: &Path) -> std::io::Result<()> {
        println!(
            "# {} seed {} trace {} nproc {}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            nproc()
        );
        if let Some(w) = WorkloadInfo::named(self.workload) {
            println!("# {}", w.why);
        }
        for (name, unit) in self.expected_metrics() {
            match self.metrics.iter().find(|(n, _)| *n == name) {
                Some((_, s)) if s.n > 1 => println!(
                    "{name} {} {unit}  (min {} median {} max {} n {})",
                    s.value, s.min, s.median, s.max, s.n
                ),
                Some((_, s)) => println!("{name} {} {unit}", s.value),
                None => println!("{name} MISSING"),
            }
        }
        for note in &self.notes {
            println!("# {note}");
        }
        std::fs::create_dir_all(out)?;
        let tag = u8::from(self.traced);
        std::fs::write(
            out.join(format!("run-{}-t{tag}.json", self.workload)),
            self.to_json(true).pretty(),
        )?;
        if let Some(trace) = &self.trace {
            std::fs::write(
                out.join(format!("trace-{}.json", self.workload)),
                trace.pretty(),
            )?;
        }
        println!("{}", self.to_json(false));
        Ok(())
    }
}

fn run_workload(args: &RunArgs) -> Run {
    use drain::{run_traced, run_untraced};
    use workloads::{BoruvkaRand, CcMirrorRoad, DelaunayRefine, SsspGrid, SsspRmat};
    macro_rules! drain {
        ($w:ty) => {
            if args.traced {
                run_traced::<$w>(args)
            } else {
                run_untraced::<$w>(args)
            }
        };
    }
    match args.workload {
        "sssp-rmat15" => drain!(SsspRmat),
        "sssp-grid128" => drain!(SsspGrid),
        "delaunay-refine" => drain!(DelaunayRefine),
        "boruvka-rand8k" => drain!(BoruvkaRand),
        "ccmirror-road400k" => drain!(CcMirrorRoad),
        "service-mix" if args.traced => service::run_traced(args),
        "service-mix" => service::run_untraced(args),
        other => unreachable!("{other} is not in metrics::WORKLOADS"),
    }
}

/// Parsed command line.
struct Cli {
    out: PathBuf,
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 16.0;

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => cli.out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                let known = WorkloadInfo::named(name);
                cli.workload = Some(
                    known
                        .ok_or_else(|| format!("unknown workload {name}"))?
                        .name,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn command_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, untraced then traced, each in its own child process;
/// the children's records are rolled up into `results.json`.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for traced in [false, true] {
        for w in &WORKLOADS {
            let tag = u8::from(traced);
            let status = Command::new(&exe)
                .arg("--out")
                .arg(&cli.out)
                .args(["--workload", w.name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", &tag.to_string()])
                .status()
                .map_err(|e| format!("spawning {}: {e}", w.name))?;
            let path = cli.out.join(format!("run-{}-t{tag}.json", w.name));
            let record = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| json::parse(&s));
            match record {
                Ok(r) if status.success() => runs.push(r),
                _ => {
                    eprintln!("FAILED: {} --trace {tag} ({status})", w.name);
                    all_ok = false;
                }
            }
        }
    }
    let env = Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        (
            "git_rev",
            Value::str(command_line_of("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "rustc",
            Value::str(command_line_of("rustc", &["--version"])),
        ),
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.seconds)),
    ]);
    let doc = Value::obj([("env", env), ("runs", Value::Arr(runs))]);
    let path = cli.out.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(all_ok)
}

/// The untraced runs of a results file: `workload → metric → median`.
fn end_to_end_medians(doc: &Value) -> Vec<(String, Vec<(String, f64)>)> {
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap_or_default();
    runs.iter()
        .filter(|r| r.get("trace").and_then(Value::as_f64) == Some(0.0))
        .filter_map(|r| {
            let name = r.get("workload")?.as_str()?.to_string();
            let metrics = r
                .get("metrics")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            Some((name, metrics))
        })
        .collect()
}

/// Print each end-to-end metric's relative difference against its
/// bound; `Ok(true)` when `b` is within every bound of `a`.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|s| json::parse(&s))
            .map(|doc| end_to_end_medians(&doc))
    };
    let (old, new) = (load(a)?, load(b)?);
    let mut within = true;
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (workload, old_metrics) in &old {
        let Some((_, new_metrics)) = new.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<20} missing from {}", b.display());
            within = false;
            continue;
        };
        for m in &END_TO_END {
            let find = |ms: &[(String, f64)]| ms.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (find(old_metrics), find(new_metrics)) else {
                println!("{workload:<20} {:<16} missing", m.name);
                within = false;
                continue;
            };
            let bad = stats::regressed(x, y, m.better, m.bound, m.floor);
            within &= !bad;
            println!(
                "{workload:<20} {:<16} {x:>12.6} {y:>12.6} {:>+8.1}% {:>6.0}%  {}",
                m.name,
                100.0 * stats::worsening(x, y, m.better),
                100.0 * m.bound,
                if bad { "REGRESSED" } else { "ok" }
            );
        }
    }
    Ok(within && !old.is_empty())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("optpar-benchmark: refusing to measure a debug build; use --release (benchmark/run.sh does)");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("optpar-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &cli.compare {
        compare(a, b)
    } else if let Some(workload) = cli.workload {
        let run = run_workload(&RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            traced: cli.traced,
        });
        run.emit(&cli.out)
            .map(|()| run.correct())
            .map_err(|e| e.to_string())
    } else {
        run_all(&cli)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("optpar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse_cli(&args(&[
            "--workload",
            "service-mix",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload, Some("service-mix"));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (42, 10.0, true));
        assert!(parse_cli(&args(&["--workload", "nope"])).is_err());
        assert!(parse_cli(&args(&["--trace", "2"])).is_err());
        assert!(parse_cli(&args(&["--seconds", "0"])).is_err());
        assert!(parse_cli(&args(&["--seed"])).is_err());
    }

    fn sample_run(traced: bool) -> Run {
        let mut run = Run::new(&RunArgs {
            workload: "sssp-grid128",
            seed: 7,
            seconds: 1.0,
            traced,
        });
        run.count(true);
        run
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut run = sample_run(false);
        for (i, m) in END_TO_END.iter().enumerate() {
            run.put(
                m.name,
                Summary::typical(&[0.25 + i as f64, 0.5 + i as f64, 0.75 + i as f64]),
            );
        }
        let line = run.to_json(false).to_string();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").unwrap().to_string(), "1");
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), spec) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, spec.name);
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
            assert_eq!(m.get("unit").unwrap().as_str(), Some(spec.unit));
        }
        // The detailed record adds the spread.
        let detail = run.to_json(true);
        let m = detail.get("metrics").unwrap().get("solve_w1_s").unwrap();
        assert_eq!(m.get("min").unwrap().as_f64(), Some(0.25));
        assert_eq!(m.get("median").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.get("max").unwrap().as_f64(), Some(0.75));
        assert_eq!(m.get("n").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn a_failed_drain_a_missing_or_a_non_finite_metric_is_not_correct() {
        let fill = |run: &mut Run| {
            for m in &END_TO_END {
                run.put(m.name, Summary::single(1.0));
            }
        };
        let mut ok = sample_run(false);
        fill(&mut ok);
        assert!(ok.correct());

        let mut failed = sample_run(false);
        fill(&mut failed);
        failed.count(false);
        assert!(!failed.correct());
        assert_eq!(
            failed.to_json(false).get("failed").unwrap().as_f64(),
            Some(1.0)
        );

        let missing = sample_run(false);
        assert!(!missing.correct());

        let mut nan = sample_run(false);
        for m in &END_TO_END[1..] {
            nan.put(m.name, Summary::single(1.0));
        }
        nan.put(END_TO_END[0].name, Summary::single(f64::NAN));
        assert!(!nan.correct());
    }

    #[test]
    fn a_traced_run_reports_every_layer_with_zeros_for_layers_not_crossed() {
        let mut run = sample_run(true);
        run.put("graph.nodes", Summary::single(16384.0));
        run.zero_unreported_layers();
        assert!(run.correct());
        let v = run.to_json(false);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("graph.nodes")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(16384.0)
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("runtime.shard.placed_ratio")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    /// `BENCHMARK.json` is what the driver reads; the tables in
    /// `metrics.rs` are what the harness prints. They must agree.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<Vec<(String, Value)>> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_obj().unwrap().to_vec())
                .collect()
        };
        let field =
            |o: &[(String, Value)], k: &str| o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());

        let workloads = names("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (o, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(o, "name"), Some(Value::str(w.name)));
            assert_eq!(field(o, "why"), Some(Value::str(w.why)));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e = names("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (o, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(o, "name"), Some(Value::str(m.name)));
            assert_eq!(field(o, "unit"), Some(Value::str(m.unit)));
            assert_eq!(field(o, "better"), Some(Value::str(m.better.as_str())));
            assert_eq!(field(o, "bound"), Some(Value::Num(m.bound)));
            assert!(m.bound <= 0.25);
        }
        let layers = names("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (o, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(o, "name"), Some(Value::str(m.name)));
            assert_eq!(field(o, "unit"), Some(Value::str(m.unit)));
            assert_eq!(field(o, "better"), Some(Value::str(m.better.as_str())));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn compare_reads_back_what_run_all_writes() {
        let dir =
            std::env::temp_dir().join(format!("optpar-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, solve: f64| {
            let mut run = sample_run(false);
            for m in &END_TO_END {
                run.put(
                    m.name,
                    Summary::single(if m.name == "solve_w1_s" { solve } else { 1.0 }),
                );
            }
            let doc = Value::obj([
                ("env", Value::Obj(vec![])),
                ("runs", Value::Arr(vec![run.to_json(true)])),
            ]);
            let path = dir.join(name);
            std::fs::write(&path, doc.pretty()).unwrap();
            path
        };
        let (a, close, far) = (
            write("a.json", 1.0),
            write("close.json", 1.05),
            write("far.json", 1.5),
        );
        assert_eq!(compare(&a, &close), Ok(true));
        assert_eq!(compare(&a, &far), Ok(false));
        assert_eq!(
            compare(&far, &a),
            Ok(true),
            "an improvement is not a regression"
        );
        assert!(compare(&a, &dir.join("absent.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
