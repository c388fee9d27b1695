//! `perfbench`: run one workload as a closed loop and print its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> [--runs k] [--seconds s] [--first-seed n]
//! ```
//!
//! The first form sets the workload up (several times; the median is
//! `setup_s`), computes the independent references once, then runs one
//! operation at a time until `--seconds` have passed, checking each
//! output. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it runs one plain operation and then traced ones, and
//! prints the per-layer metrics. The last line of standard output is a
//! JSON object `{correct, attempted, failed, metrics}`.
//!
//! The second form runs the first `k` times (one process each, seeds
//! `n..n+k`) and prints each end-to-end metric's interquartile spread
//! next to its bound in `BENCHMARK.json`.

use perfbench::workloads::{self, Verdict};
use perfbench::{host, stats, END_TO_END, PER_LAYER};
use serde_json::{Map, Value};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench steady --workload <name> [--runs k] [--seconds s] [--first-seed n]",
        workloads::WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.to_string(),
            "--seed" | "--first-seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--runs" => a.runs = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) || a.runs < 2 {
        return Err("--seconds must be positive and --runs at least 2".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let steady = argv.first().is_some_and(|a| a == "steady");
    let parsed = parse(&argv[usize::from(steady)..]);
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if steady {
        steady_runs(&args)
    } else {
        run(&args);
        ExitCode::SUCCESS
    }
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = Map::new();
    m.insert("value".into(), Value::F64(value));
    m.insert("unit".into(), Value::String(unit.into()));
    Value::Object(m)
}

fn run(args: &Args) {
    let threads = host::threads();
    // Sweeps and seed batches read their worker count from here.
    std::env::set_var(rtsdf::core::threads::THREADS_ENV, threads.to_string());
    println!("{}", host::describe(threads));
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        workload = workloads::setup(&args.workload);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("workload name was validated");
    let t0 = Instant::now();
    w.prepare_reference(threads, args.seed);
    println!("reference_s={:.3}", t0.elapsed().as_secs_f64());
    println!("{}", w.reference_summary());

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut correct = true;
    let mut fault_seen = false;
    let mut record = |v: &Verdict| {
        attempted += 1;
        if v.failed() {
            failed += 1;
        }
        // Every operation repeats the same computation: report the
        // first failure of each kind, not one per operation.
        if !v.unexpected.is_empty() {
            if correct {
                eprintln!("FAILED op {attempted}: {}", v.unexpected.join(" | "));
            }
            correct = false;
        }
        if let Some(msg) = v.known_fault.as_ref().filter(|_| !fault_seen) {
            eprintln!("FAILED op {attempted} (known fault): {msg}");
            fault_seen = true;
        }
    };
    let mut metrics = Map::new();
    let start = Instant::now();
    if !args.trace {
        let mut op_ms = Vec::new();
        while op_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let t0 = Instant::now();
            let out = w.op();
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            record(&w.check(&out));
        }
        let min = op_ms.iter().copied().fold(f64::INFINITY, f64::min);
        if op_ms.len() >= 2 {
            let [q1, q2, q3] = stats::quartiles(&op_ms);
            let max = op_ms.iter().copied().fold(0.0, f64::max);
            println!(
                "op_ms over {} ops: min {min:.3} q1 {q1:.3} median {q2:.3} q3 {q3:.3} max {max:.3}",
                op_ms.len()
            );
        }
        let values = [
            min,
            stats::median(&setups),
            host::peak_rss_mb().unwrap_or(f64::NAN),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.insert(name.to_string(), metric(v, unit));
        }
    } else {
        let t0 = Instant::now();
        let out = w.op();
        let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
        record(&w.check(&out));
        drop(out);
        let mut traced_ms = Vec::new();
        let mut layers: Vec<(&str, Vec<f64>)> = Vec::new();
        while traced_ms.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            let t0 = Instant::now();
            for (name, v) in w.traced_op(threads) {
                match layers.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(v),
                    None => layers.push((name, vec![v])),
                }
            }
            traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        layers.push((
            "bench.trace.overhead",
            vec![stats::median(&traced_ms) / plain_ms],
        ));
        for (name, unit) in PER_LAYER {
            let v = layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, vs)| stats::median(vs));
            metrics.insert(name.to_string(), metric(v, unit));
        }
    }
    for (name, m) in metrics.iter() {
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("{name:<40} {v:>16.4} {unit}");
    }
    let mut result = Map::new();
    result.insert("correct".into(), Value::Bool(correct));
    result.insert("attempted".into(), Value::U64(attempted));
    result.insert("failed".into(), Value::U64(failed));
    result.insert("metrics".into(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("result serializes")
    );
}

/// Run the workload `args.runs` times in child processes and print each
/// end-to-end metric's spread next to its bound.
fn steady_runs(args: &Args) -> ExitCode {
    let bounds: Value = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or(Value::Null);
    let bound_of = |name: &str| -> Option<f64> {
        bounds
            .get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let exe = std::env::current_exe().expect("own executable");
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut shares = Vec::new();
    for i in 0..args.runs as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed: Option<Value> = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok());
        let Some(result) = parsed.filter(|_| out.status.success()) else {
            eprintln!(
                "run with seed {seed} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return ExitCode::FAILURE;
        };
        let count = |k: &str| result.get(k).and_then(Value::as_u64).unwrap_or(0);
        shares.push(format!("{}/{}", count("failed"), count("attempted")));
        let mut line = format!("seed {seed}:");
        for ((name, _), vs) in END_TO_END.iter().zip(&mut values) {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            vs.push(v);
            line.push_str(&format!(" {name}={v:.4}"));
        }
        println!("{line} failed={}", shares.last().expect("pushed"));
    }
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>8} {:>7}  within a third of bound",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((name, unit), vs) in END_TO_END.iter().zip(&values) {
        let [q1, q2, q3] = stats::quartiles(vs);
        let spread = stats::spread(vs);
        let bound = bound_of(name);
        let verdict = match bound {
            _ if *name == "setup_s" => "n/a (not gated on spread)",
            Some(b) if spread <= b / 3.0 => "yes",
            Some(_) => "NO",
            None => "no bound",
        };
        println!(
            "{:<14} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {:>7}  {verdict}  [{unit}]",
            name,
            bound.map_or("-".into(), |b| format!("{b}")),
        );
    }
    println!("failed/attempted per run: {}", shares.join(" "));
    ExitCode::SUCCESS
}
