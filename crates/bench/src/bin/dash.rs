//! `dash` — render an exported telemetry time series (the
//! `<prefix>.jsonl` file written by `--metrics-out`) as a per-run
//! phase timeline: late-rate, queue depth, and stall composition over
//! sim time, as an ASCII summary on stdout and optionally a
//! self-contained HTML page with inline SVG charts.
//!
//! The dump's counters are cumulative; the dashboard differentiates
//! them per sampling interval so phase changes (e.g. a kernel stage
//! flipping from streaming to transpose) show up as level shifts.
//!
//! Usage:
//!   dash METRICS.jsonl [--out DASH.html] [--report REPORT.json]
//!   dash --flame CAPTURE.prof [--out FLAME.svg]
//!
//! `--report` attaches the whylate cause table from a run report to
//! the page, so one artifact answers both "when was it slow" and "why
//! were prefetches late". `--flame` instead renders a host-time
//! profile capture (written by the `profile` bin) as a self-contained
//! SVG flamegraph — where the *host* spends wall-clock time, the
//! sibling question to the simulated-time charts.

use oocp_obs::json::{self, Json};
use oocp_obs::{JsonlDump, WhylateSummary};

/// Raw sampled values of one series (gauge semantics).
fn series(dump: &JsonlDump, name: &str) -> Vec<f64> {
    match dump.series.iter().position(|n| n == name) {
        Some(i) => dump.rows.iter().map(|(_, v)| v[i] as f64).collect(),
        None => Vec::new(),
    }
}

/// Per-interval increments of a cumulative counter series.
fn deltas(dump: &JsonlDump, name: &str) -> Vec<f64> {
    let s = series(dump, name);
    s.windows(2).map(|w| (w[1] - w[0]).max(0.0)).collect()
}

/// Sum across every series whose name matches the prefix+suffix
/// pattern (e.g. all `disk*.queue_len`), row by row.
fn gauge_sum(dump: &JsonlDump, prefix: &str, suffix: &str) -> Vec<f64> {
    let cols: Vec<usize> = dump
        .series
        .iter()
        .enumerate()
        .filter(|(_, n)| n.starts_with(prefix) && n.ends_with(suffix))
        .map(|(i, _)| i)
        .collect();
    dump.rows
        .iter()
        .map(|(_, v)| cols.iter().map(|&i| v[i] as f64).sum())
        .collect()
}

/// Downsample to `width` buckets by averaging, then render one block
/// character per bucket (8 levels, scaled to the series max).
fn spark(vals: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if vals.is_empty() {
        return "(no samples)".into();
    }
    let buckets: Vec<f64> = (0..width.min(vals.len()))
        .map(|b| {
            let lo = b * vals.len() / width.min(vals.len());
            let hi = ((b + 1) * vals.len() / width.min(vals.len())).max(lo + 1);
            vals[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    let max = buckets.iter().cloned().fold(0.0f64, f64::max);
    buckets
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BLOCKS[0]
            } else {
                BLOCKS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// One chart line: label, sparkline, and the series' max for scale.
fn ascii_row(label: &str, vals: &[f64]) -> String {
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    format!("{label:<22} {} max={max:.1}", spark(vals, 60))
}

/// An inline-SVG polyline chart, normalized into an 800x140 viewbox.
fn svg_chart(title: &str, series: &[(&str, &[f64], &str)]) -> String {
    const W: f64 = 800.0;
    const H: f64 = 140.0;
    let max = series
        .iter()
        .flat_map(|(_, v, _)| v.iter().cloned())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let mut s = format!(
        "<h3>{title}</h3><svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
         style=\"background:#fafafa;border:1px solid #ddd\">"
    );
    for (name, vals, color) in series {
        if vals.is_empty() {
            continue;
        }
        let n = vals.len().max(2) as f64 - 1.0;
        let pts: Vec<String> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| format!("{:.1},{:.1}", i as f64 / n * W, H - v / max * (H - 10.0)))
            .collect();
        s.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>\
             <text x=\"4\" y=\"0\" fill=\"{color}\" font-size=\"11\"></text>",
            pts.join(" ")
        ));
        s.push_str(&format!(
            "<!-- series {name}: {} points, max {max:.1} -->",
            vals.len()
        ));
    }
    s.push_str("</svg><p style=\"font-size:11px;color:#666\">");
    for (name, _, color) in series {
        s.push_str(&format!(
            "<span style=\"color:{color}\">&#9632; {name}</span>&nbsp;&nbsp;"
        ));
    }
    s.push_str(&format!("y-max {max:.1}</p>"));
    s
}

/// Extract the per-run whylate rows from a run report document.
fn whylate_rows(doc: &Json) -> Vec<(String, WhylateSummary)> {
    let mut out = Vec::new();
    if let Some(runs) = doc.get("runs").and_then(Json::as_arr) {
        for run in runs {
            let name = run
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            if let Some(w) = run
                .get("obs")
                .and_then(|o| o.get("whylate"))
                .and_then(|w| WhylateSummary::parse(w).ok())
            {
                out.push((name, w));
            }
        }
    }
    out
}

/// `dash --flame CAPTURE.prof --out FLAME.svg`: render a host-time
/// profile (written by the `profile` bin) as a self-contained SVG
/// flamegraph. Exits the process either way.
fn flame_mode(prof_path: &str, out: Option<&str>) -> ! {
    let text = std::fs::read_to_string(prof_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {prof_path}: {e}");
        std::process::exit(1);
    });
    let prof = oocp_obs::prof::Profile::parse_text(&text).unwrap_or_else(|e| {
        eprintln!("error: {prof_path}: {e}");
        std::process::exit(1);
    });
    let svg = oocp_obs::flamegraph_svg(&prof);
    match out {
        Some(path) => {
            std::fs::write(path, &svg).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "wrote {path} ({} sites, {} host ns)",
                prof.rows().len(),
                prof.total_ns()
            );
        }
        None => print!("{svg}"),
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut jsonl: Option<String> = None;
    let mut out: Option<String> = None;
    let mut report: Option<String> = None;
    let mut flame: Option<String> = None;
    let mut it = argv.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            "--report" => report = it.next().cloned(),
            "--flame" => flame = it.next().cloned(),
            _ => jsonl = Some(a.clone()),
        }
    }
    if let Some(prof_path) = flame {
        flame_mode(&prof_path, out.as_deref());
    }
    let Some(jsonl) = jsonl else {
        eprintln!(
            "usage: dash METRICS.jsonl [--out DASH.html] [--report REPORT.json]\n\
             \x20      dash --flame CAPTURE.prof [--out FLAME.svg]"
        );
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&jsonl).unwrap_or_else(|e| {
        eprintln!("error: cannot read {jsonl}: {e}");
        std::process::exit(1);
    });
    let dump = oocp_obs::read_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("error: {jsonl}: {e}");
        std::process::exit(1);
    });

    // Derived phase-timeline series. Counters are differentiated per
    // interval; gauges are plotted as sampled.
    let late_stall = deltas(&dump, "os.late_prefetch_stall_ns");
    let demand = deltas(&dump, "disk.demand_wait_ns");
    let write = deltas(&dump, "disk.write_wait_ns");
    let timely = deltas(&dump, "ledger.timely_hits");
    let late = deltas(&dump, "ledger.late_inflight");
    let late_rate: Vec<f64> = timely
        .iter()
        .zip(&late)
        .map(|(&t, &l)| if t + l > 0.0 { l / (t + l) } else { 0.0 })
        .collect();
    let queue = gauge_sum(&dump, "disk", ".queue_len");
    let inflight = series(&dump, "os.inflight_prefetch");
    let free = series(&dump, "os.free_frames");

    let span_ns = dump.rows.last().map(|(t, _)| *t).unwrap_or(0);
    println!(
        "telemetry dashboard: {} samples @ {} us over {:.3} sim-s ({} series)\n",
        dump.rows.len(),
        dump.interval_ns / 1_000,
        span_ns as f64 / 1e9,
        dump.series.len()
    );
    println!("{}", ascii_row("late-rate", &late_rate));
    println!("{}", ascii_row("late stall ns/intvl", &late_stall));
    println!("{}", ascii_row("demand wait ns/intvl", &demand));
    println!("{}", ascii_row("write wait ns/intvl", &write));
    println!("{}", ascii_row("disk queue depth", &queue));
    println!("{}", ascii_row("inflight prefetch", &inflight));
    println!("{}", ascii_row("free frames", &free));

    let rep_doc = report.as_ref().map(|p| {
        let t = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("error: cannot read {p}: {e}");
            std::process::exit(1);
        });
        json::parse(&t).unwrap_or_else(|e| {
            eprintln!("error: {p}: {e}");
            std::process::exit(1);
        })
    });
    if let Some(doc) = &rep_doc {
        let rows = whylate_rows(doc);
        if !rows.is_empty() {
            println!("\nwhylate causes (from {}):", report.as_deref().unwrap());
            for (name, w) in &rows {
                println!(
                    "  {name:<12} late {} (issue {} / queue {} / svc {} / jrnl {} / degrade {}), \
                     dropped {}, wasted {}",
                    w.late_total(),
                    w.late_issue_lag,
                    w.late_queue_wait,
                    w.late_service_time,
                    w.late_journal_stall,
                    w.late_degraded_pause,
                    w.drop_total(),
                    w.wasted_total(),
                );
            }
        }
    }

    if let Some(out_path) = out {
        let mut html = String::from(
            "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
             <title>oocp telemetry</title></head>\
             <body style=\"font-family:sans-serif;max-width:860px;margin:auto\">\
             <h2>oocp run telemetry</h2>",
        );
        html.push_str(&format!(
            "<p>{} samples @ {} us interval, {:.3} simulated seconds</p>",
            dump.rows.len(),
            dump.interval_ns / 1_000,
            span_ns as f64 / 1e9
        ));
        html.push_str(&svg_chart(
            "Late-prefetch rate",
            &[("late-rate", &late_rate, "#c0392b")],
        ));
        html.push_str(&svg_chart(
            "Stall composition (ns per interval)",
            &[
                ("late stall", &late_stall, "#c0392b"),
                ("demand wait", &demand, "#2980b9"),
                ("write wait", &write, "#8e44ad"),
            ],
        ));
        html.push_str(&svg_chart(
            "Queue depth and inflight",
            &[
                ("disk queue depth", &queue, "#27ae60"),
                ("inflight prefetch", &inflight, "#e67e22"),
            ],
        ));
        html.push_str(&svg_chart(
            "Free frames",
            &[("free frames", &free, "#16a085")],
        ));
        if let Some(doc) = &rep_doc {
            let rows = whylate_rows(doc);
            if !rows.is_empty() {
                html.push_str(
                    "<h3>Why late</h3><table border=\"1\" cellpadding=\"4\" \
                     style=\"border-collapse:collapse;font-size:13px\">\
                     <tr><th>run</th><th>late</th><th>issue</th><th>queue</th>\
                     <th>svc</th><th>jrnl</th><th>degrade</th>\
                     <th>dropped</th><th>wasted</th></tr>",
                );
                for (name, w) in &rows {
                    html.push_str(&format!(
                        "<tr><td>{name}</td><td>{}</td><td>{}</td><td>{}</td>\
                         <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                        w.late_total(),
                        w.late_issue_lag,
                        w.late_queue_wait,
                        w.late_service_time,
                        w.late_journal_stall,
                        w.late_degraded_pause,
                        w.drop_total(),
                        w.wasted_total(),
                    ));
                }
                html.push_str("</table>");
            }
        }
        html.push_str("</body></html>");
        std::fs::write(&out_path, html).unwrap_or_else(|e| {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote {out_path}");
    }
}
