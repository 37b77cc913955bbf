//! `upp-trace` — analysis CLI over flight-recorder traces and profiles.
//!
//! ```text
//! upp-trace analyze <input> [--json] [--out FILE]
//! upp-trace heatmap <input> [--csv-out FILE] [--svg-out FILE]
//! upp-trace critical-path <input> [--top N]
//! upp-trace diff <a> <b>
//! upp-trace obs <input> [--csv-out FILE] [--svg-out FILE] [--metric NAME]
//! ```
//!
//! `<input>` is either a profile summary JSON written by
//! `simulate --profile-out` (detected by its `"upp_profile": 1` marker) or
//! a raw JSONL flight-recorder trace from `simulate --trace`; both yield
//! the same `ProfileSummary`. Use `--system`/`--scheme` to label raw
//! traces (profiles carry their own labels).
//!
//! `obs` instead reads protocol-state telemetry: a summary JSON from
//! `simulate --obs` (also embedded as the `"obs"` field of `--json`
//! payloads) or an epoch JSONL stream from `--obs-every`/`--obs-out`,
//! auto-detected by their markers.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{BufReader, Read};
use std::process::ExitCode;

use upp_tracetools::render;
use upp_tracetools::summary::ProfileSummary;

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         upp-trace analyze <input> [--json] [--out FILE] [--system S] [--scheme S]\n\
         upp-trace heatmap <input> [--csv-out FILE] [--svg-out FILE] [--system S]\n\
         upp-trace critical-path <input> [--top N] [--system S] [--scheme S]\n\
         upp-trace diff <a> <b>\n\
         upp-trace obs <input> [--csv-out FILE] [--svg-out FILE] [--metric NAME]\n\
         upp-trace alerts <input> [--csv-out FILE] [--svg-out FILE]\n\
         upp-trace live <input> [--follow] [--poll-ms N] [--idle-ms N]\n\
         \n\
         <input>: profile JSON from `simulate --profile-out` or JSONL from\n\
         `simulate --trace`; the kind is auto-detected. `obs` reads telemetry\n\
         summaries (`simulate --obs`, or `--json` payloads embedding one) and\n\
         epoch streams (`--obs-every`/`--obs-out`); repeat --metric to select\n\
         the series plotted by --svg-out (default: all). `alerts` renders an\n\
         upp-alerts/v1 stream (`simulate --watch-out`) as a table, CSV\n\
         timeline or SVG lane chart. `live` tails an alert or obs-epoch JSONL\n\
         stream as it is written: --follow keeps polling for appended lines\n\
         (every --poll-ms, default 200) until the file goes --idle-ms\n\
         (default 5000) without growth; without --follow it renders what is\n\
         there and exits."
    );
    std::process::exit(2)
}

/// Loads either input shape into a summary; `system`/`scheme` label raw
/// JSONL traces and are ignored when the profile document carries its own.
fn load(path: &str, system: &str, scheme: &str) -> Result<ProfileSummary, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("{path}: {e}"))?;
    let head = text.trim_start();
    if head.starts_with('{') {
        if let Ok(v) = serde_json::from_str(head) {
            if ProfileSummary::is_profile_value(&v) {
                return ProfileSummary::from_json(head).map_err(|e| format!("{path}: {e}"));
            }
        }
    }
    let (summary, malformed) =
        ProfileSummary::from_jsonl(BufReader::new(text.as_bytes()), system, scheme)
            .map_err(|e| format!("{path}: {e}"))?;
    if malformed > 0 {
        eprintln!("warning: {path}: skipped {malformed} malformed trace lines");
    }
    Ok(summary)
}

fn write_or_die(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };

    // Shared flag parsing: positional inputs plus `--flag value` pairs.
    let mut inputs: Vec<&str> = Vec::new();
    let mut json = false;
    let mut out: Option<&str> = None;
    let mut csv_out: Option<&str> = None;
    let mut svg_out: Option<&str> = None;
    let mut system = String::new();
    let mut scheme = String::new();
    let mut top = 10usize;
    let mut metrics: Vec<String> = Vec::new();
    let mut follow = false;
    let mut poll_ms = 200u64;
    let mut idle_ms = 5_000u64;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match a.as_str() {
            "--json" => json = true,
            "--out" => out = Some(val()),
            "--csv-out" => csv_out = Some(val()),
            "--svg-out" => svg_out = Some(val()),
            "--system" => system = val().to_string(),
            "--scheme" => scheme = val().to_string(),
            "--top" => top = val().parse().unwrap_or_else(|_| usage()),
            "--metric" => metrics.push(val().to_string()),
            "--follow" => follow = true,
            "--poll-ms" => poll_ms = val().parse().unwrap_or_else(|_| usage()),
            "--idle-ms" => idle_ms = val().parse().unwrap_or_else(|_| usage()),
            flag if flag.starts_with("--") => usage(),
            input => inputs.push(input),
        }
    }

    let one_input = || -> &str {
        if inputs.len() != 1 {
            usage()
        }
        inputs[0]
    };
    let load_or_die = |path: &str| -> ProfileSummary {
        match load(path, &system, &scheme) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    };

    match cmd.as_str() {
        "analyze" => {
            let p = load_or_die(one_input());
            let rendered = if json {
                p.to_json()
            } else {
                render::analyze_text(&p)
            };
            match out {
                Some(path) => write_or_die(path, &rendered),
                None => print!("{rendered}"),
            }
        }
        "heatmap" => {
            let p = load_or_die(one_input());
            let csv = format!("{}\n{}", render::router_csv(&p), render::link_csv(&p));
            match csv_out {
                Some(path) => write_or_die(path, &csv),
                None => print!("{csv}"),
            }
            if let Some(path) = svg_out {
                match render::heatmap_svg(&p) {
                    Some(svg) => write_or_die(path, &svg),
                    None => {
                        eprintln!(
                            "error: unknown system {:?}; pass --system \
                             baseline|large|b2|b8 for SVG layout",
                            p.system
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        "critical-path" => {
            let p = load_or_die(one_input());
            print!("{}", render::critical_path_text(&p, top));
        }
        "diff" => {
            if inputs.len() != 2 {
                usage()
            }
            let a = load_or_die(inputs[0]);
            let b = load_or_die(inputs[1]);
            print!("{}", render::diff_text(&a, &b));
        }
        "obs" => {
            let path = one_input();
            let mut text = String::new();
            if let Err(e) = File::open(path).and_then(|mut f| f.read_to_string(&mut text)) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            let report = match upp_tracetools::obs::ObsReport::parse(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", upp_tracetools::obs::report_text(&report));
            if let Some(p) = csv_out {
                match upp_tracetools::obs::timeseries_csv(&report) {
                    Some(csv) => write_or_die(p, &csv),
                    None => eprintln!("error: --csv-out needs epoch input (simulate --obs-every)"),
                }
            }
            if let Some(p) = svg_out {
                match upp_tracetools::obs::timeseries_svg(&report, &metrics) {
                    Some(svg) => write_or_die(p, &svg),
                    None => eprintln!("error: --svg-out needs epoch input (simulate --obs-every)"),
                }
            }
        }
        "alerts" => {
            let path = one_input();
            let mut text = String::new();
            if let Err(e) = File::open(path).and_then(|mut f| f.read_to_string(&mut text)) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            let report = match upp_tracetools::alerts::AlertsReport::parse(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", upp_tracetools::alerts::report_text(&report));
            if let Some(p) = csv_out {
                write_or_die(p, &upp_tracetools::alerts::timeline_csv(&report));
            }
            if let Some(p) = svg_out {
                write_or_die(p, &upp_tracetools::alerts::lanes_svg(&report));
            }
        }
        "live" => {
            let path = one_input();
            if let Err(e) = live_tail(path, follow, poll_ms, idle_ms) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        _ => usage(),
    }
    ExitCode::SUCCESS
}

/// Renders one freshly appended JSONL line for `live`: alert headers and
/// records get the alert table shape, obs epoch streams a compact cut
/// line, anything else is echoed raw.
fn render_live_line(line: &str) {
    if let Some(rec) = upp_tracetools::alerts::AlertRecord::from_json_line(line) {
        println!("{}", rec.render_line());
        return;
    }
    let parsed: Result<serde_json::Value, _> = serde_json::from_str(line);
    match parsed {
        Ok(v) if upp_tracetools::alerts::is_alerts_header(&v) => {
            let every = v
                .get("every")
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0);
            println!("live: upp-alerts stream (epoch {every} cycles)");
        }
        Ok(v) if upp_tracetools::obs::is_obs_epochs_header(&v) => {
            println!("live: obs epoch stream");
        }
        Ok(v) => match v.get("cycle").and_then(serde_json::Value::as_u64) {
            Some(c) => println!("epoch cut at cycle {c}"),
            None => println!("{line}"),
        },
        Err(_) => println!("{line}"),
    }
}

/// Tails `path`, rendering complete lines as they appear. With `follow`,
/// polls every `poll_ms` until the file stops growing for `idle_ms`
/// (bounded, so scripted pipelines terminate); without it, renders the
/// current contents once. Partial trailing lines (a writer mid-append)
/// are held back until their newline arrives.
fn live_tail(path: &str, follow: bool, poll_ms: u64, idle_ms: u64) -> Result<(), String> {
    use std::io::{Seek, SeekFrom};
    let mut offset = 0u64;
    let mut carry = String::new();
    let mut idle = 0u64;
    loop {
        let mut f = File::open(path).map_err(|e| e.to_string())?;
        let len = f.metadata().map_err(|e| e.to_string())?.len();
        if len > offset {
            f.seek(SeekFrom::Start(offset)).map_err(|e| e.to_string())?;
            let mut new = String::new();
            f.read_to_string(&mut new).map_err(|e| e.to_string())?;
            offset = len;
            idle = 0;
            carry.push_str(&new);
            while let Some(nl) = carry.find('\n') {
                let line: String = carry.drain(..=nl).collect();
                let line = line.trim_end();
                if !line.is_empty() {
                    render_live_line(line);
                }
            }
        } else if !follow {
            break;
        } else {
            idle += poll_ms;
            if idle >= idle_ms {
                eprintln!("live: idle for {idle_ms} ms, exiting");
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1)));
        }
        if !follow && len <= offset {
            break;
        }
    }
    if !carry.trim().is_empty() {
        render_live_line(carry.trim_end());
    }
    Ok(())
}
