//! Command line of the end-to-end benchmark:
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload bend_paper --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Prints a stamp line, the span table of a traced run, and as the last
//! line the result JSON.

use e2ebench::workload::Workload;
use e2ebench::{Options, HELD_OUT_SEED};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Worker lanes: `BOSON_THREADS` when set, the host's available
/// parallelism otherwise; more lanes than the host has is refused.
fn lanes(nproc: usize) -> Result<usize, String> {
    match std::env::var("BOSON_THREADS") {
        Err(_) => Ok(nproc),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(t) if (1..=nproc).contains(&t) => Ok(t),
            Ok(t) if t > nproc => Err(format!(
                "BOSON_THREADS={t} asks for more lanes than this host has ({nproc}); \
                 the benchmark runs at most one lane per CPU"
            )),
            _ => Err(format!(
                "BOSON_THREADS must be an integer >= 1, got {raw:?}"
            )),
        },
    }
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checkout's commit when it is a git work tree (with a loose ref),
/// otherwise a digest of the library sources (`src-<fnv64>`), so every
/// result names the code it measured.
fn commit() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        let id = match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head.to_owned()),
        };
        if let Some(id) = id {
            return id.trim().to_owned();
        }
    }
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
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
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("bad trace {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = match lanes(nproc) {
        Ok(l) => l,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let opts = Options {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        scale: workload.scale(),
        lanes,
        poison: false,
    };
    println!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \"lanes\": {lanes}, \"cpu\": \"{}\", \
         \"commit\": \"{}\", \"iterations\": {}, \"samples\": {}}}}}",
        workload.name(),
        cpu_model().replace('"', "'"),
        commit(),
        opts.scale.iterations,
        opts.scale.samples,
    );
    let report = e2ebench::run(&opts);
    for line in &report.detail {
        println!("{line}");
    }
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
