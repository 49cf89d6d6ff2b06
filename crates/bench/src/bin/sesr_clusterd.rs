//! `sesr-clusterd` — a multi-process defense federation on one machine.
//!
//! ```text
//! sesr-clusterd [flags]                         (front tier)
//!
//!   --addr HOST:PORT        front bind address (default 127.0.0.1:0; the
//!                           bound address is printed either way)
//!   --members N             worker processes to spawn (default 3)
//!   --store PATH            shared model-store directory; adds the
//!                           store-backed route below, and the supervisor's
//!                           promotion policy (health gate on the fleet,
//!                           probation rollback) promotes new artifacts in
//!                           PATH with a reload pinned to each member
//!   --telemetry PATH        export the front's telemetry snapshot to PATH
//!                           once a second (readable live with sesr-top)
//!   --max-runtime-secs N    exit cleanly after N seconds (CI harnesses;
//!                           default: run until killed)
//!
//! sesr-clusterd --worker [--store PATH]         (one worker, internal)
//! ```
//!
//! The front role binds the public socket, then spawns `--members` copies
//! of *this same binary* in the worker role and supervises them: health
//! probes over the wire, crash restarts with backoff, gated store
//! promotion with pinned reloads. Each worker is a full single-process gateway (the same engine
//! `sesr-netd` runs) bound to an OS-chosen loopback port, announced to the
//! supervisor with the `listening on ADDR` stdout contract and tethered to
//! it by stdin — if the front dies, every worker sees EOF and exits rather
//! than leaking.
//!
//! The fleet serves the same three interpolation routes as `sesr-netd`
//! (cheap enough that a loopback driver measures the federation, not the
//! SR math), plus `sesr-m2:x2:raw` when `--store` is given — that route
//! loads its weights from the store, so an artifact saved into PATH is
//! promoted across every member, each building exactly that artifact:
//!
//! ```text
//! nearest-neighbor:x2:raw                 (default route)
//! bicubic:x2:raw
//! nearest-neighbor:x2:jpeg75+wavelet2     (full paper preprocessing)
//! sesr-m2:x2:raw                          (with --store only)
//! ```
//!
//! With `--store`, an artifact for SESR-M2 ×2 must already exist in PATH
//! when the cluster starts (`ModelStore::save` one before launching).
//!
//! A worker runs no SLO engine (`SloRuntime`), so every member's
//! `route.<label>.health` gauge reads Healthy for its whole life: here the
//! supervisor promotes each new artifact as soon as it is stored, and its
//! fleet-health gate, probation and rollback never fire. They act for
//! embedders of `sesr-cluster` whose workers run an `SloRuntime`.
//!
//! Every flag may be given at most once; unknown or duplicate flags are a
//! usage error (exit 2).

#![forbid(unsafe_code)]

use sesr_bench::cli::Cli;
use sesr_bench::demo_routes;
use sesr_cluster::{serve_member, Cluster, ClusterConfig, WorkerCommand};
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_serve::{GatewayBuilder, RouteKey};
use std::time::Duration;

const USAGE: &str = "usage: sesr-clusterd [--addr HOST:PORT] [--members N] [--store PATH] \
     [--telemetry PATH] [--max-runtime-secs N]\n\
     \u{20}      sesr-clusterd --worker [--store PATH]";

struct Args {
    worker: bool,
    addr: String,
    members: u32,
    store: Option<String>,
    telemetry: Option<String>,
    max_runtime: Option<Duration>,
}

fn parse_args() -> Args {
    let mut args = Args {
        worker: false,
        addr: "127.0.0.1:0".to_string(),
        members: 3,
        store: None,
        telemetry: None,
        max_runtime: None,
    };
    let mut cli = Cli::from_env(USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--worker" => args.worker = true,
            "--addr" => args.addr = cli.value(&arg),
            "--members" => args.members = cli.positive(&arg),
            "--store" => args.store = Some(cli.value(&arg)),
            "--telemetry" => args.telemetry = Some(cli.value(&arg)),
            "--max-runtime-secs" => {
                args.max_runtime = Some(Duration::from_secs(cli.positive(&arg)));
            }
            _ => cli.unknown(&arg),
        }
    }
    if args.worker && (args.telemetry.is_some() || args.max_runtime.is_some()) {
        cli.fail("--worker takes only --store");
    }
    args
}

/// The routes every member serves (and the front routes on). The
/// store-backed SESR-M2 route exists only when a store is configured.
fn fleet_routes(with_store: bool) -> Vec<RouteKey> {
    let mut routes = demo_routes().to_vec();
    if with_store {
        routes.push(RouteKey::new(
            SrModelKind::SesrM2,
            2,
            PreprocessConfig::none(),
        ));
    }
    routes
}

fn main() {
    let args = parse_args();
    if args.worker {
        run_worker(&args)
    } else {
        run_front(&args)
    }
}

/// One worker: build the member gateway, then hand it to
/// [`serve_member`] for the rest of the process's life.
fn run_worker(args: &Args) -> ! {
    let routes = fleet_routes(args.store.is_some());
    let mut builder = GatewayBuilder::new();
    if let Some(path) = &args.store {
        builder = match builder.open_store(path) {
            Ok(builder) => builder,
            Err(err) => {
                eprintln!("cannot open store {path}: {err}");
                std::process::exit(1);
            }
        };
    }
    for route in &routes {
        builder = builder.route(*route);
    }
    let gateway = match builder.default_route(routes[0]).build() {
        Ok(gateway) => gateway,
        Err(err) => {
            eprintln!("cannot build worker gateway: {err}");
            std::process::exit(1);
        }
    };

    if let Err(err) = serve_member(gateway) {
        eprintln!("worker failed: {err}");
        std::process::exit(1);
    }
    println!("clean shutdown");
    std::process::exit(0);
}

/// The front tier: bind the public socket, spawn the fleet, supervise.
fn run_front(args: &Args) -> ! {
    let program = match std::env::current_exe() {
        Ok(program) => program,
        Err(err) => {
            eprintln!("cannot resolve own executable: {err}");
            std::process::exit(1);
        }
    };
    let mut worker_args = vec!["--worker".to_string()];
    if let Some(path) = &args.store {
        worker_args.push("--store".to_string());
        worker_args.push(path.clone());
    }
    let routes = fleet_routes(args.store.is_some());
    let config = ClusterConfig {
        routes: routes.clone(),
        store_dir: args.store.as_ref().map(Into::into),
        ..ClusterConfig::new(
            args.members,
            WorkerCommand {
                program,
                args: worker_args,
            },
        )
    };
    let cluster = match Cluster::start(&args.addr, config) {
        Ok(cluster) => cluster,
        Err(err) => {
            eprintln!("cannot start cluster on {}: {err}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", cluster.local_addr());
    for route in &routes {
        println!("route {route}");
    }
    println!("default route {}", routes[0]);

    // An unwritable telemetry path fails before any worker is declared
    // ready; the exporter's final write leaves a valid file after short runs.
    let exporter = args.telemetry.as_ref().map(|path| {
        cluster
            .export_telemetry(path, Duration::from_secs(1))
            .unwrap_or_else(|err| {
                eprintln!("cannot export telemetry to {path}: {err}");
                std::process::exit(1);
            })
    });

    if cluster.wait_ready(Duration::from_secs(60)) {
        for info in cluster.members() {
            if let Some(addr) = info.addr {
                println!("member {} up at {addr}", info.id);
            }
        }
        println!("cluster ready: {} members", args.members);
    } else {
        eprintln!("cluster not ready after 60s; serving whatever came up");
    }

    match args.max_runtime {
        Some(runtime) => std::thread::sleep(runtime),
        None => loop {
            std::thread::park();
        },
    }
    if let Some(Err(err)) = exporter.map(|exporter| exporter.stop()) {
        eprintln!("telemetry export error: {err}");
    }
    cluster.shutdown();
    println!("clean shutdown");
    std::process::exit(0);
}
