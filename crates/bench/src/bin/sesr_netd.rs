//! `sesr-netd` — stand up a defense gateway behind the network front-end.
//!
//! ```text
//! sesr-netd [flags]
//!
//!   --addr HOST:PORT        bind address (default 127.0.0.1:0 = OS-chosen
//!                           port; the bound address is printed either way)
//!   --per-client B:R        per-connection token bucket, burst B refilled
//!                           at R tokens/s (default 256:512; 0:0 disables)
//!   --telemetry PATH        export the telemetry snapshot to PATH once a
//!                           second (readable live with sesr-top)
//!   --max-runtime-secs N    exit cleanly after N seconds (CI harnesses;
//!                           default: run until killed)
//! ```
//!
//! The gateway serves three interpolation routes — cheap enough that the
//! front-end, not the SR math, is what loopback load measures — each
//! with the default [`RouteConfig`](sesr_serve::RouteConfig) (2 workers, a
//! 64-deep queue) behind a 256-entry output cache; the front admits at most
//! [`MAX_CONNECTIONS`](sesr_net::MAX_CONNECTIONS) connections:
//!
//! ```text
//! nearest-neighbor:x2:raw                 (default route)
//! bicubic:x2:raw
//! nearest-neighbor:x2:jpeg75+wavelet2     (full paper preprocessing)
//! ```
//!
//! Every flag may be given at most once; unknown or duplicate flags are a
//! usage error (exit 2).

#![forbid(unsafe_code)]

use sesr_bench::cli::Cli;
use sesr_bench::demo_routes;
use sesr_net::{NetConfig, NetServer, RateLimit};
use sesr_serve::GatewayBuilder;
use std::time::Duration;

const USAGE: &str = "usage: sesr-netd [--addr HOST:PORT] [--per-client B:R] [--telemetry PATH] \
     [--max-runtime-secs N]";

struct Args {
    addr: String,
    per_client: Option<RateLimit>,
    telemetry: Option<String>,
    max_runtime: Option<Duration>,
}

/// Parse the `BURST:RATE` value of `flag` into a limit; `0:0` means
/// "disabled".
fn parse_limit(cli: &mut Cli, flag: &str) -> Option<RateLimit> {
    let value = cli.value(flag);
    let Some((burst, rate)) = value.split_once(':') else {
        cli.fail(&format!("{flag} needs BURST:RATE (e.g. 256:512)"))
    };
    match (burst.parse::<u64>(), rate.parse::<u64>()) {
        (Ok(0), Ok(0)) => None,
        (Ok(burst), Ok(rate)) if burst > 0 => Some(RateLimit::new(burst, rate)),
        _ => cli.fail(&format!(
            "{flag} needs BURST:RATE with a positive burst (or 0:0 to disable)"
        )),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        per_client: Some(RateLimit::new(256, 512)),
        telemetry: None,
        max_runtime: None,
    };
    let mut cli = Cli::from_env(USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--addr" => args.addr = cli.value(&arg),
            "--per-client" => args.per_client = parse_limit(&mut cli, &arg),
            "--telemetry" => args.telemetry = Some(cli.value(&arg)),
            "--max-runtime-secs" => {
                args.max_runtime = Some(Duration::from_secs(cli.positive(&arg)));
            }
            _ => cli.unknown(&arg),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    let routes = demo_routes();
    let mut builder = GatewayBuilder::new();
    for route in routes {
        builder = builder.route(route);
    }
    let gateway = match builder.default_route(routes[0]).build() {
        Ok(gateway) => gateway,
        Err(err) => {
            eprintln!("cannot build gateway: {err}");
            std::process::exit(1);
        }
    };
    let client = gateway.client();

    let exporter = args.telemetry.as_ref().map(|path| {
        match client.export_telemetry(path, Duration::from_secs(1)) {
            Ok(exporter) => exporter,
            Err(err) => {
                eprintln!("cannot export telemetry to {path}: {err}");
                std::process::exit(1);
            }
        }
    });

    let config = NetConfig {
        per_client_limit: args.per_client,
        ..NetConfig::default()
    };
    let server = match NetServer::bind(&args.addr, config, client) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cannot bind {}: {err}", args.addr);
            std::process::exit(1);
        }
    };
    // The harness contract: exactly one "listening on ADDR" line on stdout,
    // flushed before traffic starts (CI greps the port out of it).
    println!("listening on {}", server.local_addr());
    for route in routes {
        println!("route {route}");
    }
    println!("default route {}", routes[0]);

    let deadline = args
        .max_runtime
        .map(|runtime| std::time::Instant::now() + runtime);
    loop {
        if server.is_finished() {
            eprintln!("reactor thread exited unexpectedly");
            std::process::exit(1);
        }
        if deadline.is_some_and(|deadline| std::time::Instant::now() >= deadline) {
            break;
        }
        std::thread::sleep(Duration::from_millis(250));
    }

    server.stop();
    if let Some(exporter) = exporter {
        if let Err(err) = exporter.stop() {
            eprintln!("telemetry export error: {err}");
        }
    }
    gateway.shutdown();
    println!("clean shutdown");
}
