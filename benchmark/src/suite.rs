//! Everything that runs more than one workload: the full suite, the
//! A/A comparison of two sets of runs, and the smoke test. Each
//! workload run is a child process of its own, so its peak resident set
//! is its own.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use oocp_obs::Json;

use crate::exit_code;
use crate::metrics::{declared_json, metrics_json, Metric, END_TO_END, PER_LAYER};
use crate::probes;
use crate::run::{self, Options};
use crate::stats::{median, spread};
use crate::workload::{cells, WORKLOADS};

/// What one child run printed.
struct ChildRun {
    correct: bool,
    /// Every `name value unit` row, declared or report-only.
    rows: Vec<Metric>,
}

fn parse_row(line: &str) -> Option<Metric> {
    let mut it = line.split_whitespace();
    let (name, value, unit) = (it.next()?, it.next()?, it.next()?);
    if it.next().is_some() {
        return None;
    }
    Some(Metric::new(name, value.parse().ok()?, unit))
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        oocp_obs::json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let correct = result.get("correct") == Some(&Json::Bool(true)) && out.status.success();
    Ok(ChildRun {
        correct,
        rows: stdout.lines().filter_map(parse_row).collect(),
    })
}

fn write_results(out_dir: &Path, doc: Json) -> bool {
    let path = out_dir.join("results.json");
    let written =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc.to_string()));
    match written {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            false
        }
    }
}

/// All four workloads untraced, then traced, then the layer probes.
pub fn suite(seed: u64, seconds: f64, out_dir: &Path) -> ExitCode {
    let mut ok = true;
    let mut by_workload = Vec::new();
    for trace in [false, true] {
        for w in WORKLOADS {
            println!("== {w} --trace {}", u8::from(trace));
            match run_child(w, seed, seconds, trace) {
                Ok(child) => {
                    for m in &child.rows {
                        println!("{m}");
                    }
                    ok &= child.correct;
                    let key = format!("{w}.{}", if trace { "traced" } else { "untraced" });
                    by_workload.push((key, metrics_json(&child.rows)));
                }
                Err(e) => {
                    eprintln!("FAILED {e}");
                    ok = false;
                }
            }
        }
    }
    println!("== probes");
    let probe_rows = probes();
    println!("model unvalidated against numeric reference: the repository holds the paper's figures only as prose bands, so no error figure is given");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("seed", Json::U64(seed)),
        ("seconds", Json::F64(seconds)),
        ("nproc", Json::U64(nproc as u64)),
        ("declared", declared_json()),
        ("workloads", Json::Obj(by_workload)),
        ("probes", Json::Arr(probe_rows)),
    ]);
    ok &= write_results(out_dir, doc);
    exit_code(ok)
}

/// Run and print the layer probes. A probe whose MAD exceeds a tenth of
/// its median is flagged: compare it only after a steadier capture.
fn probes() -> Vec<Json> {
    let mut rows = Vec::new();
    probes::run_all(|p| {
        let noise = p.mad / p.median;
        let verdict = if p.report_only {
            "report-only"
        } else if noise <= 0.10 {
            "steady"
        } else {
            "NOISY"
        };
        let relative = p.relative.map_or(String::new(), |r| format!(" rel {r:.3}"));
        println!(
            "{} {} {} mad {:.4} ({:.1}%){relative} {verdict}",
            p.name,
            p.median,
            p.unit,
            p.mad,
            noise * 100.0
        );
        rows.push(Json::obj([
            ("name", Json::Str(p.name.clone())),
            ("unit", Json::Str(p.unit.to_string())),
            ("median", Json::F64(p.median)),
            ("mad", Json::F64(p.mad)),
            ("relative", p.relative.map_or(Json::Null, Json::F64)),
            ("report_only", Json::Bool(p.report_only)),
        ]));
    });
    rows
}

pub fn probes_only() -> ExitCode {
    probes();
    ExitCode::SUCCESS
}

/// Two sets of `runs` untraced runs per workload, seeds `seed..`, the
/// same seeds in both sets. Per workload and end-to-end metric: both
/// medians, both quartile spreads, and whether the medians agree
/// within the metric's bound and the spreads stay inside it (set-up
/// time's spread is reported, not judged). Every simulated row must be
/// identical between the two runs of one seed.
pub fn aa(seed: u64, seconds: f64, runs: u64) -> ExitCode {
    let mut ok = true;
    println!("workload metric median_a median_b differ spread_a spread_b bound verdict");
    for w in WORKLOADS {
        let mut sets: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..runs {
                match run_child(w, seed + i, seconds, false) {
                    Ok(child) => {
                        ok &= child.correct;
                        set.push(child);
                    }
                    Err(e) => {
                        eprintln!("FAILED {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (i, (a, b)) in sets[0].iter().zip(&sets[1]).enumerate() {
            for (ra, rb) in a.rows.iter().zip(&b.rows) {
                if !ra.host_dependent() && ra != rb {
                    println!(
                        "{w} seed {}: simulated {} does not repeat ({} then {})",
                        seed + i as u64,
                        ra.name,
                        ra.value,
                        rb.value
                    );
                    ok = false;
                }
            }
        }
        for m in &END_TO_END {
            let values = |set: &[ChildRun]| -> Vec<f64> {
                set.iter()
                    .flat_map(|c| c.rows.iter().find(|r| r.name == m.name))
                    .map(|r| r.value)
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() != runs as usize || b.len() != runs as usize {
                println!("{w} {} missing from a run", m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let differ = (mb - ma).abs() / ma.abs();
            let (sa, sb) = if runs >= 2 {
                (spread(&a), spread(&b))
            } else {
                (0.0, 0.0)
            };
            let steady = m.name == "setup_s" || sa.max(sb) <= m.bound;
            let verdict = if differ <= m.bound && steady {
                "agree"
            } else {
                "DISAGREE"
            };
            ok &= verdict == "agree";
            println!(
                "{w} {} {ma} {mb} {differ:.4} {sa:.4} {sb:.4} {} {verdict}",
                m.name, m.bound
            );
        }
    }
    exit_code(ok)
}

/// Every workload at 1/64 scale, untraced and traced, all checks on,
/// and the reported names held against the declared tables.
pub fn smoke(out_dir: &Path) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        let cells = cells(w, 64).expect("known workload");
        for trace in [false, true] {
            let opts = Options {
                workload: w,
                seed: crate::DEFAULT_SEED,
                seconds: 0.0,
                trace,
                out_dir,
            };
            let outcome = run::run(&cells, &opts);
            for p in &outcome.problems {
                eprintln!("FAILED {w}: {p}");
            }
            // The reported names are exactly the declared table's.
            let mut got: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            let mut want: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            got.sort_unstable();
            want.sort_unstable();
            let names_ok = got == want;
            if !names_ok {
                eprintln!("FAILED {w}: reported metrics differ from the declared table");
            }
            let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
            if !finite {
                eprintln!("FAILED {w}: a metric is not a finite number");
            }
            let pass = outcome.correct && outcome.failed == 0 && names_ok && finite;
            println!(
                "smoke {w} --trace {}: {} ({} cell runs)",
                u8::from(trace),
                if pass { "ok" } else { "FAILED" },
                outcome.attempted
            );
            ok &= pass;
        }
    }
    exit_code(ok)
}
