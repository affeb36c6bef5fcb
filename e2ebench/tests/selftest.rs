//! Self-test of the benchmark harness. Run in release mode (the fine
//! workload is slow unoptimised):
//!
//! ```sh
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```

use boson_core::baselines::{run_method, BaseRunConfig, MethodSpec};
use boson_fdfd::sim::SolverStrategy;
use e2ebench::workload::{Scale, Setup, Workload};
use e2ebench::{run, Options, Report, END_TO_END, PER_LAYER};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny(workload: Workload, trace: bool, poison: bool) -> Report {
    run(&Options {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        scale: Scale::tiny(),
        lanes: std::thread::available_parallelism().map_or(1, |n| n.get()),
        poison,
    })
}

fn names_and_units(report: &Report) -> Vec<(&'static str, &'static str)> {
    report.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of one metric section of `BENCHMARK.json`, read with a
/// plain scan (the file is flat: one `{"name": …, "unit": …}` per entry).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("string closes")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    let layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e, "BENCHMARK.json end_to_end");
    assert_eq!(declared("per_layer"), layer, "BENCHMARK.json per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = tiny(workload, trace, false);
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(names_and_units(&report), expected, "{}", workload.name());
            assert!(
                report.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                report.notes
            );
            assert_eq!(report.failed, 0);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            let json = report.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}

#[test]
fn poisoned_theta_is_counted_as_failed_without_aborting() {
    for trace in [false, true] {
        let report = tiny(Workload::BendPaper, trace, true);
        assert!(!report.correct);
        assert!(report.failed > 0, "trace={trace}: {report:?}");
        assert!(report.failed <= report.attempted);
        assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn bend_paper_configuration_is_the_paper_method() {
    let iterations = 2;
    let lanes = 2;
    let setup = Setup::new(Workload::BendPaper, iterations, 5, lanes);
    let via_method = run_method(
        &setup.compiled,
        &MethodSpec::boson1(iterations),
        &BaseRunConfig {
            iterations,
            seed: 5,
            threads: lanes,
            solver: SolverStrategy::Direct,
            ..BaseRunConfig::default()
        },
    );
    let mut designer = setup.designer(setup.config.clone());
    let theta0 = designer.initial_theta(&mut StdRng::seed_from_u64(5));
    let ours = designer.run(theta0);
    assert_eq!(via_method.mask, ours.mask);
}
