//! `dssoc-emu` — the command-line emulation framework executable.

use dssoc_cli::{execute, parse_run_args, stats_to_json};

const USAGE: &str = "\
dssoc-emu — user-space DSSoC emulation framework

USAGE:
  dssoc-emu run [OPTIONS]          run an emulation
  dssoc-emu submit <job.json> [OPTIONS]
                                   submit a job to a dssoc-serve daemon,
                                   wait for it, and print the result JSON
  dssoc-emu apps                   list the bundled applications
  dssoc-emu export-app <name>      print an application's JSON DAG
  dssoc-emu help                   show this help

SUBMIT OPTIONS:
  --addr <host:port>         daemon address      (default 127.0.0.1:8093)
  --tenant <name>            X-Tenant header     (default the user name)
  --no-wait                  print the submission receipt and exit

SUBMIT EXIT CODES:
  0 done   1 failed/cancelled/transport error   2 usage
  3 deadline_exceeded (attempts and last_error reported on stderr)

RUN OPTIONS:
  --platform <spec>          zcu102:<n>C+<m>F or odroid:<n>B+<m>L
  --platform-file <path>     platform configuration JSON
  --scheduler <name>         frfs | met | eft | random   (default frfs)
  --engine <name>            threaded | des               (default threaded)
  --validation <counts>      validation mode, e.g. range_detection=2,wifi_rx=1
  --inject <app:per:prob>    performance mode injection, e.g. wifi_tx:1ms:0.8
                             (repeatable; requires --frame-ms)
  --frame-ms <n>             performance-mode time frame
  --seed <n>                 performance-mode RNG seed (default 0)
  --workload-file <path>     workload specification JSON
  --timing <mode>            modeled | wallclock          (default modeled)
  --reservation-depth <n>    PE-level work-queue depth    (default 0;
                             threaded engine only)
  --iterations <n>           repetitions                  (default 1)
  --json                     print machine-readable JSON
  --trace <path>             write a Chrome/Perfetto trace of the final
                             iteration and print a text timeline
  --metrics <addr>           serve live metrics over HTTP (OpenMetrics at
                             /metrics, JSON at /snapshot.json); port 0
                             binds ephemerally, address printed to stderr
  --metrics-linger <ms>      keep the metrics endpoint alive this long
                             after the run (requires --metrics)
  --progress                 render a live progress line on stderr

EXAMPLES:
  dssoc-emu run --platform zcu102:3C+2F --scheduler frfs \\
                --validation pulse_doppler=1,range_detection=1
  dssoc-emu run --platform odroid:3B+2L --scheduler eft \\
                --inject range_detection:500us:1.0 --frame-ms 50
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("apps") => cmd_apps(),
        Some("export-app") => cmd_export_app(args.get(1).map(String::as_str)),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn cmd_run(args: &[String]) -> i32 {
    let run = match parse_run_args(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}\n\nrun `dssoc-emu help` for usage");
            return 2;
        }
    };
    match execute(&run) {
        Ok(out) => {
            let makespans = &out.makespans_ms;
            if run.json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&stats_to_json(
                        &out.stats,
                        makespans,
                        out.metrics.as_ref()
                    ))
                    .expect("json")
                );
            } else {
                print!("{}", out.stats.summary());
                if makespans.len() > 1 {
                    let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
                    println!(
                        "iterations: {} (mean makespan {:.3} ms, min {:.3}, max {:.3})",
                        makespans.len(),
                        mean,
                        makespans.iter().cloned().fold(f64::INFINITY, f64::min),
                        makespans.iter().cloned().fold(0.0, f64::max),
                    );
                }
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Submits a job file to a running `dssoc-serve` daemon over its JSON
/// HTTP API, long-polls until the job is terminal, and prints the
/// result document — the thin-client counterpart of `run`.
fn cmd_submit(args: &[String]) -> i32 {
    let mut addr = "127.0.0.1:8093".to_string();
    let mut tenant = std::env::var("USER").unwrap_or_else(|_| "anonymous".into());
    let mut wait = true;
    let mut file: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" | "--tenant" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("error: {} needs a value", args[i]);
                    return 2;
                };
                if args[i] == "--addr" {
                    addr = value.clone();
                } else {
                    tenant = value.clone();
                }
                i += 1;
            }
            "--no-wait" => wait = false,
            other if file.is_none() && !other.starts_with('-') => file = Some(other),
            other => {
                eprintln!("error: unexpected argument '{other}'");
                return 2;
            }
        }
        i += 1;
    }
    let Some(file) = file else {
        eprintln!("usage: dssoc-emu submit <job.json> [--addr host:port] [--tenant name]");
        return 2;
    };
    let body = match std::fs::read(file) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return 1;
        }
    };
    let post = dssoc_metrics::http::request(
        addr.as_str(),
        "POST",
        "/jobs",
        &[("X-Tenant", tenant.as_str()), ("Content-Type", "application/json")],
        Some(&body),
    );
    let receipt = match post {
        Ok(resp) if resp.status == 202 => resp.body,
        Ok(resp) => {
            eprintln!("error: daemon rejected the job ({}):\n{}", resp.status, resp.body);
            return 1;
        }
        Err(e) => {
            eprintln!("error: cannot reach daemon at {addr}: {e}");
            return 1;
        }
    };
    let id =
        serde_json::from_str::<serde_json::Value>(&receipt).ok().and_then(|v| v["job"].as_u64());
    let Some(id) = id else {
        eprintln!("error: malformed submission receipt:\n{receipt}");
        return 1;
    };
    if !wait {
        println!("{receipt}");
        return 0;
    }
    eprintln!("submitted job {id} as tenant '{tenant}', waiting ...");
    loop {
        let poll = dssoc_metrics::http::request(
            addr.as_str(),
            "GET",
            &format!("/jobs/{id}?wait_ms=5000"),
            &[],
            None,
        );
        let status = match poll {
            Ok(resp) if resp.is_success() => resp.body,
            Ok(resp) => {
                eprintln!("error: poll failed ({}):\n{}", resp.status, resp.body);
                return 1;
            }
            Err(e) => {
                eprintln!("error: lost the daemon at {addr}: {e}");
                return 1;
            }
        };
        let state = serde_json::from_str::<serde_json::Value>(&status)
            .ok()
            .and_then(|v| v["status"].as_str().map(str::to_string))
            .unwrap_or_default();
        match state.as_str() {
            "queued" | "running" => continue,
            "done" => {
                let result = dssoc_metrics::http::request(
                    addr.as_str(),
                    "GET",
                    &format!("/jobs/{id}/result"),
                    &[],
                    None,
                );
                match result {
                    Ok(resp) if resp.is_success() => {
                        println!("{}", resp.body);
                        return 0;
                    }
                    Ok(resp) => {
                        eprintln!("error: result fetch failed ({}):\n{}", resp.status, resp.body);
                        return 1;
                    }
                    Err(e) => {
                        eprintln!("error: lost the daemon at {addr}: {e}");
                        return 1;
                    }
                }
            }
            _ => {
                let parsed = serde_json::from_str::<serde_json::Value>(&status).ok();
                let attempts = parsed.as_ref().and_then(|v| v["attempts"].as_u64()).unwrap_or(0);
                let last_error = parsed
                    .as_ref()
                    .and_then(|v| v["last_error"].as_str().map(str::to_string))
                    .or_else(|| {
                        parsed.as_ref().and_then(|v| v["error"].as_str().map(str::to_string))
                    });
                eprintln!("job {id} ended in state '{state}' after {attempts} attempt(s)");
                if let Some(err) = last_error {
                    eprintln!("last error: {err}");
                }
                eprintln!("{status}");
                // Deadline misses get their own exit code so scripts can
                // tell "too slow" apart from "broken".
                return if state == "deadline_exceeded" { 3 } else { 1 };
            }
        }
    }
}

fn cmd_apps() -> i32 {
    let (library, _registry) = dssoc_apps::standard_library();
    println!("bundled applications:");
    for name in library.names() {
        let spec = library.get(name).expect("listed app");
        println!("  {name:<18} {} tasks", spec.task_count());
    }
    0
}

fn cmd_export_app(name: Option<&str>) -> i32 {
    let Some(name) = name else {
        eprintln!("usage: dssoc-emu export-app <name>");
        return 2;
    };
    let json = match name {
        "range_detection" => {
            dssoc_apps::range_detection::build_app(&dssoc_apps::range_detection::Params::default())
        }
        "pulse_doppler" => {
            dssoc_apps::pulse_doppler::build_app(&dssoc_apps::pulse_doppler::Params::default())
        }
        "wifi_tx" => dssoc_apps::wifi::build_tx_app(&dssoc_apps::wifi::Params::default()),
        "wifi_rx" => dssoc_apps::wifi::build_rx_app(&dssoc_apps::wifi::Params::default()),
        other => {
            eprintln!("unknown application '{other}' (see `dssoc-emu apps`)");
            return 2;
        }
    };
    println!("{}", json.to_pretty());
    0
}
