//! `conch-perfbench --workload <serve|storm|verify> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit and base), then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when an output check fails, 2 on bad arguments.

use std::process::ExitCode;

use conch_perfbench::trace::CountingAlloc;
use conch_perfbench::workloads::{timed, traced, Outcome, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    })
}

/// JSON numbers cannot be NaN or infinite.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("conch-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(args.workload, args.seed)
    } else {
        timed(args.workload, args.seed, args.seconds)
    };
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &out.spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("conch-perfbench: writing spans: {e}"),
        }
        for (name, self_s, calls) in &out.self_times {
            println!("span {name:<24} self {self_s:>12.6} s over {calls} calls");
        }
    }
    for problem in &out.problems {
        println!("CHECK FAILED: {problem}");
    }
    for m in &out.metrics {
        println!(
            "{:<40} {:>16.6} {:<14} ({})",
            m.name, m.value, m.unit, m.base
        );
    }
    if !args.trace {
        // Printed, but kept out of the result line's metrics: it reads
        // zero on every correct run, and a zero median bounds nothing.
        let share = out.failed as f64 / out.attempted.max(1) as f64;
        let base = format!("{} failed / {} attempted", out.failed, out.attempted);
        println!(
            "{:<40} {:>16.6} {:<14} ({base})",
            "failed_share", share, "ratio"
        );
    }
    println!("{}", result_line(&out));
    if out.problems.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
