//! Command-line entry: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Config, Scale, Workload, FORBIDDEN_ENV};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <sync-mis|async-mis|service> --seed <n> \
         --seconds <s> --trace <0|1> [--out-dir <dir>] [--rev <git revision>] [--rustc <version>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return usage(&format!(
                "{var} is set; it swaps the measured code path, so the benchmark refuses to run"
            ));
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let (mut rev, mut rustc) = ("unknown".to_string(), "unknown".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed must be a non-negative integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage("--seconds must be a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace must be 0 or 1"),
            },
            "--out-dir" => out_dir = PathBuf::from(value),
            "--rev" => rev = value.clone(),
            "--rustc" => rustc = value.clone(),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        out_dir,
        tamper_expected: false,
    };
    let result = perfbench::run(&cfg);
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut method = vec![
        ("workload".to_string(), workload.name().to_string()),
        ("seed".to_string(), seed.to_string()),
        ("seconds".to_string(), seconds.to_string()),
        ("trace".to_string(), trace.to_string()),
        ("host_cpus".to_string(), host_cpus.to_string()),
        (
            "features".to_string(),
            "stoneage-sim/parallel,stoneage-server/parallel".to_string(),
        ),
        ("rustc".to_string(), rustc),
        ("rev".to_string(), rev),
    ];
    method.extend(result.method.iter().cloned());
    let method_line: Vec<String> = method
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
        .collect();
    let method_line = format!("{{{}}}", method_line.join(","));
    let line = result.result_line(trace);
    if let Err(e) = perfbench::write_record(&cfg, &method_line, &result, &line) {
        eprintln!("perfbench: could not write the run record: {e}");
        return ExitCode::from(1);
    }
    for note in &result.gate.notes {
        println!("# failure: {note}");
    }
    println!("# method: {method_line}");
    println!("{line}");
    ExitCode::SUCCESS
}
