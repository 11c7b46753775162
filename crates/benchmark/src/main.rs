//! `ssbench` — run the benchmark's workloads, or compare two result files.
//!
//! ```text
//! ssbench run --workload W [--seed S] [--seconds N] [--trace [0|1]] [--no-retry] [--out FILE]
//! ssbench run --all [--sets N] [--seed S] [--seconds N] [--out FILE]
//! ssbench compare A.json B.json
//! ```
//!
//! `run` prints every metric by name with unit, direction, bound and sample
//! count, and ends standard output with one JSON line
//! (`correct`/`attempted`/`failed`/`metrics`).  It exits nonzero when an
//! oracle failed; `compare` exits nonzero on a regression.

use ss_benchmark::compare::{self, Status};
use ss_benchmark::host::Provenance;
use ss_benchmark::metrics::WORKLOADS;
use ss_benchmark::record::{BenchFile, RunRecord};
use ss_benchmark::workloads::{self, Size};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  ssbench run --workload W [--seed S] [--seconds N] [--trace [0|1]] [--no-retry] [--out FILE]
  ssbench run --all [--sets N] [--seed S] [--seconds N] [--out FILE]
  ssbench compare A.json B.json
workloads: compile_catalogue exec_proven exec_wavefront native_kernels daemon_mix";

struct RunArgs {
    workload: Option<String>,
    all: bool,
    sets: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    retry: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        sets: 1,
        seed: 1,
        seconds: 20.0,
        trace: false,
        retry: true,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--all" => parsed.all = true,
            "--sets" => {
                parsed.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--no-retry" => parsed.retry = false,
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload W and --all".to_string());
    }
    if parsed.sets == 0 || parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--sets and --seconds must be positive".to_string());
    }
    Ok(parsed)
}

/// Where result and trace files go: beside the build, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("ssbench")
}

fn write_file(path: &Path, file: &BenchFile) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run; a run the noise guard flags is repeated once when `retry`.
fn run_guarded(args: &RunArgs, workload: &str, traced: bool) -> Result<Vec<RunRecord>, String> {
    let trace_out = out_dir().join(format!("trace-{workload}.json"));
    let mut runs = Vec::new();
    loop {
        let record = workloads::run(
            workload,
            args.seed,
            args.seconds,
            Size::Full,
            traced,
            Some(&trace_out),
        )?;
        print!("{}", record.table());
        let again = record.flagged && args.retry && runs.is_empty();
        runs.push(record);
        if !again {
            return Ok(runs);
        }
        println!("  calibration drifted more than 10 %: repeating the run once");
    }
}

/// One run of `--all`, made by this binary again: one process per workload
/// run, so peak memory, the allocator and the thread teams start fresh.
fn run_in_child(
    args: &RunArgs,
    workload: &str,
    traced: bool,
    set: usize,
) -> Result<Vec<RunRecord>, String> {
    let out = out_dir().join(format!("run-{workload}-{}.json", u8::from(traced)));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if !args.retry {
        child.arg("--no-retry");
    }
    let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
    // Exit 1 is an oracle failure: the result file says which.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{workload}: run ended with {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut runs = BenchFile::parse(&text)?.runs;
    for record in &mut runs {
        record.set = set;
    }
    Ok(runs)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let mut file = BenchFile {
        host: Provenance::read(),
        runs: Vec::new(),
    };
    println!(
        "ssbench · git {} · {} · nproc {} · T {} · seed {} · seconds {}",
        file.host.git_rev,
        file.host.rustc,
        file.host.nproc,
        file.host.threads,
        args.seed,
        args.seconds
    );
    if let Some(workload) = &args.workload {
        file.runs = run_guarded(&args, workload, args.trace)?;
        let default_out = out_dir().join(format!("run-{workload}-{}.json", u8::from(args.trace)));
        write_file(args.out.as_deref().unwrap_or(&default_out), &file)?;
        let last = file.runs.last().expect("at least one run was made");
        println!("{}", last.contract_line());
        return Ok(if last.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    for set in 0..args.sets {
        // Odd sets run the workloads in reverse, so position in the
        // sequence does not favour a side of the self-comparison.
        let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            file.runs.extend(run_in_child(&args, workload, false, set)?);
            if set == 0 {
                file.runs.extend(run_in_child(&args, workload, true, set)?);
            }
        }
    }
    write_file(
        args.out.as_deref().unwrap_or(&out_dir().join("all.json")),
        &file,
    )?;
    let mut ok = file.runs.iter().all(RunRecord::correct);
    if args.sets > 1 {
        let side = |parity: usize| -> Vec<RunRecord> {
            file.runs
                .iter()
                .filter(|r| r.set % 2 == parity)
                .cloned()
                .collect()
        };
        let verdicts = compare::compare(&side(0), &side(1));
        println!("self-comparison: even sets (A) vs odd sets (B)");
        print!("{}", compare::table(&verdicts));
        ok &= verdicts.iter().all(|v| v.status != Status::Regressed);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &String| -> Result<BenchFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "A: git {} · {} · nproc {} · T {}",
        a.host.git_rev, a.host.rustc, a.host.nproc, a.host.threads
    );
    println!(
        "B: git {} · {} · nproc {} · T {}",
        b.host.git_rev, b.host.rustc, b.host.nproc, b.host.threads
    );
    let verdicts = compare::compare(&a.runs, &b.runs);
    print!("{}", compare::table(&verdicts));
    let regressed = verdicts.iter().any(|v| v.status == Status::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((verb, rest)) if verb == "run" => run(rest),
        Some((verb, rest)) if verb == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("ssbench: {why}");
            ExitCode::from(2)
        }
    }
}
