//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is the JSON result. The result file (with provenance) and, on
//! traced runs, the span trace go to `perfbench/out/`. Exits 1 when any
//! output failed verification, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use slab_perfbench::{report, run, Config, Sizes, Workload};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
        corrupt_oracle: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    let result = run(&cfg);

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{stem}.json")),
                report::result_file(&cfg, &result),
            )
        })
        .and_then(|()| match &result.spans {
            Some(spans) => spans.write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results under {}: {e}",
            out_dir.display()
        );
    }

    print!("{}", report::table(&cfg, &result));
    println!("{}", report::result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs failed verification");
        ExitCode::from(1)
    }
}
