//! Runs the benchmark's smoke mode and checks its output against the
//! metric lists in the repository's `BENCHMARK.json`: every workload
//! runs untraced and traced, correctly, and each result line carries
//! exactly the listed metrics, each with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build runs the crypto many times slower).

use std::process::Command;

/// `(name, unit)` of every entry of the array under `key`. The file's
/// entries are flat objects whose strings hold no brackets or braces.
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let from = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[from..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |obj: &str, name: &str| {
        let at = obj
            .find(&format!("\"{name}\""))
            .map(|i| &obj[i + name.len() + 2..])?;
        let at = &at[at.find('"')? + 1..];
        Some(at[..at.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            let name = field(obj, "name").expect("entry has a name");
            let unit = field(obj, "unit").unwrap_or_default();
            (name, unit)
        })
        .collect()
}

#[test]
fn smoke_prints_every_listed_metric_with_its_unit() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json beside perfbench");
    let workloads = entries(&json, "workloads");
    let end_to_end = entries(&json, "end_to_end");
    let per_layer = entries(&json, "per_layer");

    let data = tempdir();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .current_dir(&data)
        .output()
        .expect("runs the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let _ = std::fs::remove_dir_all(&data);
    assert!(out.status.success(), "smoke mode failed:\n{stdout}");
    assert!(stdout.contains("smoke ok"), "{stdout}");

    let lines: Vec<&str> = stdout.lines().collect();
    for (workload, _) in &workloads {
        for (trace, listed) in [(0, &end_to_end), (1, &per_layer)] {
            let header = format!("workload {workload} trace={trace} ");
            let at = lines
                .iter()
                .position(|l| l.starts_with(&header))
                .unwrap_or_else(|| panic!("no run of {workload} trace={trace}:\n{stdout}"));
            let result = lines[at..]
                .iter()
                .find(|l| l.starts_with("{\"correct\": true"))
                .unwrap_or_else(|| panic!("no correct result for {workload} trace={trace}"));
            assert_eq!(
                result.matches("\"value\": ").count(),
                listed.len(),
                "{workload} trace={trace} prints other metrics than listed: {result}"
            );
            for (name, unit) in listed {
                let at = result
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}: {result}"));
                let rest = &result[at..];
                let end = rest.find('}').expect("metric object closes");
                assert!(
                    rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name} lacks unit {unit}: {result}"
                );
                assert!(
                    !rest[..end].contains("null"),
                    "{name} is not a number: {result}"
                );
            }
        }
    }
}

/// A fresh directory for the run's data, under the build's temporary
/// directory.
fn tempdir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates the data directory");
    dir
}
