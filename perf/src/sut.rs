//! The systems under test, built only through the crates' public functions.
//!
//! Three shapes: the in-process gateway of the paper's edge deployment, the
//! same gateway behind the wire front on loopback, and a two-member process
//! cluster whose members are this binary re-executed in the `--worker` role.
//! Weights are fixed constants: `--seed` changes inputs only.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_classifiers::ClassifierKind;
use sesr_cluster::{Cluster, ClusterConfig, WorkerCommand};
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::SrModelKind;
use sesr_net::{NetClient, NetConfig, NetServer};
use sesr_nn::Layer;
use sesr_serve::{
    DefenseGateway, GatewayBuilder, GatewayClient, RouteConfig, RouteKey, WorkerAssets,
};
use sesr_store::{Checkpoint, ModelRegistry, ModelStore};
use std::io::Read as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The SR network every workload serves.
pub const MODEL: SrModelKind = SrModelKind::SesrM2;
/// Seed of the SR weights (seeded route and stored artifact alike).
pub const WEIGHT_SEED: u64 = 9;
/// Seed and class count of the edge route's MobileNet-V2.
const CLASSIFIER_SEED: u64 = 3;
const NUM_CLASSES: usize = 10;
/// Members of the `cluster-hot` fleet.
pub const MEMBERS: u32 = 2;
/// Longest the driver waits for any single reply or for the fleet to come
/// up before it counts a failure.
pub const PATIENCE: Duration = Duration::from_secs(20);

/// The paper's deployment: JPEG + wavelet, then SESR-M2 ×2.
pub fn edge_route() -> RouteKey {
    RouteKey::paper(MODEL, 2)
}

/// The wire workloads' route: SESR-M2 ×2 on the raw image.
pub fn wire_route() -> RouteKey {
    RouteKey::new(MODEL, 2, PreprocessConfig::none())
}

/// Every benchmarked route runs one worker, so no run needs more busy
/// threads than the two cores this is measured on.
fn edge_config() -> RouteConfig {
    RouteConfig {
        num_workers: 1,
        max_batch: 1,
        max_linger: Duration::ZERO,
        ..RouteConfig::default()
    }
}

/// Largest batch on the wire route: half the `wire-unique` window, so while
/// one batch computes the next is already queued and the worker never
/// idles, whatever way arrivals pair up. (At window 4 with the default
/// batch of 8 the loop flips between one batch of 4 with an idle worker in
/// between and two alternating smaller ones, and latency flips with it by
/// 20 % from run to run.)
pub const WIRE_MAX_BATCH: usize = 2;

fn wire_config() -> RouteConfig {
    RouteConfig {
        num_workers: 1,
        max_batch: WIRE_MAX_BATCH,
        ..RouteConfig::default()
    }
}

/// The front's admission settings: one driver connection carries all the
/// traffic, so the per-client bucket is off.
fn net_config() -> NetConfig {
    NetConfig {
        per_client_limit: None,
        ..NetConfig::default()
    }
}

/// The edge route's pipeline, built the way its worker factory builds it.
pub fn edge_pipeline() -> sesr_tensor::Result<DefensePipeline> {
    Ok(DefensePipeline::new(
        PreprocessConfig::paper(),
        MODEL.build_seeded_upscaler(2, WEIGHT_SEED)?,
    ))
}

/// The edge route's classifier.
pub fn edge_classifier() -> Box<dyn Layer> {
    let mut rng = StdRng::seed_from_u64(CLASSIFIER_SEED);
    ClassifierKind::MobileNetV2.build_local(NUM_CLASSES, &mut rng)
}

/// The wire route's pipeline, hydrated from the artifact in `store_dir`
/// exactly as the gateway's auto route hydrates it.
pub fn wire_pipeline(store_dir: &Path) -> Result<DefensePipeline, String> {
    let store = ModelStore::open(store_dir).map_err(|e| e.to_string())?;
    let upscaler = MODEL
        .build_from_store(2, &ModelRegistry::new(store), 0)
        .map_err(|e| e.to_string())?;
    Ok(DefensePipeline::new(PreprocessConfig::none(), upscaler))
}

/// Write the SESR-M2 ×2 artifact the wire and cluster workloads hydrate
/// from. Runs before any clock starts.
pub fn write_artifact(store_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    let store = ModelStore::open(store_dir).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    let network = MODEL
        .build_local_network(&mut rng)
        .ok_or("SESR-M2 is a learned model")?;
    store
        .save(&Checkpoint::from_layer(
            MODEL.name(),
            2,
            0,
            network.as_ref(),
        ))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The in-process edge gateway: one route, built the production way.
pub fn edge_gateway() -> Result<DefenseGateway, String> {
    GatewayBuilder::new()
        .route_with_factory(edge_route(), edge_config(), |_| {
            Ok(WorkerAssets::with_classifier(
                edge_pipeline()?,
                edge_classifier(),
            ))
        })
        .build()
        .map_err(|e| e.to_string())
}

/// The gateway behind the wire front (and inside every cluster member).
pub fn wire_gateway(store_dir: &Path) -> Result<DefenseGateway, String> {
    GatewayBuilder::new()
        .open_store(store_dir)
        .map_err(|e| e.to_string())?
        .route_with(wire_route(), wire_config())
        .build()
        .map_err(|e| e.to_string())
}

/// Which system a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `DefenseGateway`.
    Edge,
    /// `NetServer` + gateway in this process, over loopback TCP.
    Wire,
    /// `Cluster` front in this process, two member processes.
    Cluster,
}

/// A running system under test.
pub struct Sut {
    gateway: Option<DefenseGateway>,
    server: Option<NetServer>,
    cluster: Option<Cluster>,
}

impl Sut {
    /// Build and start the system. Everything a user of the system would
    /// wait for before the first request is inside this call.
    pub fn start(kind: Kind, store_dir: &Path) -> Result<Sut, String> {
        let mut sut = Sut {
            gateway: None,
            server: None,
            cluster: None,
        };
        match kind {
            Kind::Edge => sut.gateway = Some(edge_gateway()?),
            Kind::Wire => {
                let gateway = wire_gateway(store_dir)?;
                let server = NetServer::bind("127.0.0.1:0", net_config(), gateway.client())
                    .map_err(|e| format!("bind: {e}"))?;
                sut.gateway = Some(gateway);
                sut.server = Some(server);
            }
            Kind::Cluster => {
                let program =
                    std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
                let worker = WorkerCommand {
                    program,
                    args: vec![
                        "--worker".to_string(),
                        "--store".to_string(),
                        store_dir.display().to_string(),
                    ],
                };
                let config = ClusterConfig {
                    routes: vec![wire_route()],
                    net: net_config(),
                    ..ClusterConfig::new(MEMBERS, worker)
                };
                let cluster =
                    Cluster::start("127.0.0.1:0", config).map_err(|e| format!("cluster: {e}"))?;
                let ready = cluster.wait_ready(PATIENCE);
                sut.cluster = Some(cluster);
                if !ready {
                    return Err("cluster members did not come up".to_string());
                }
            }
        }
        Ok(sut)
    }

    /// The in-process gateway client (edge and wire systems).
    pub fn gateway_client(&self) -> Option<GatewayClient> {
        self.gateway.as_ref().map(DefenseGateway::client)
    }

    /// The address clients dial (wire and cluster systems).
    pub fn addr(&self) -> Option<SocketAddr> {
        match (&self.server, &self.cluster) {
            (Some(server), _) => Some(server.local_addr()),
            (_, Some(cluster)) => Some(cluster.local_addr()),
            _ => None,
        }
    }

    /// `(pid, address)` of every cluster member.
    pub fn members(&self) -> Vec<(u32, SocketAddr)> {
        self.cluster
            .iter()
            .flat_map(|cluster| cluster.members())
            .filter_map(|info| Some((info.pid?, info.addr?)))
            .collect()
    }

    /// Pids whose CPU and memory the run accounts for: this process and
    /// every member.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![std::process::id()];
        pids.extend(self.members().into_iter().map(|(pid, _)| pid));
        pids
    }

    /// The program's own telemetry as one JSON document: the gateway hub for
    /// the edge system, a Stats frame over the wire otherwise (the cluster
    /// front answers with its hub plus the `cluster.fleet.*` rollup).
    pub fn stats_json(&self) -> Result<String, String> {
        match (self.addr(), &self.gateway) {
            (Some(addr), _) => dial(addr)?.stats(PATIENCE).map_err(|e| e.to_string()),
            (None, Some(gateway)) => Ok(gateway.telemetry_snapshot().to_json()),
            (None, None) => Err("no system".to_string()),
        }
    }

    /// Stop everything and wait until it has ended: front first, then the
    /// gateway; a cluster drains and reaps its member processes.
    pub fn shutdown(self) {
        if let Some(server) = self.server {
            server.stop();
        }
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        if let Some(cluster) = self.cluster {
            cluster.shutdown();
        }
    }
}

/// Dial a wire front.
pub fn dial(addr: SocketAddr) -> Result<NetClient, String> {
    NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// The `--worker` role: one cluster member. A full wire-route gateway
/// behind a private reactor, announced on stdout with the supervisor's
/// `listening on ADDR` contract and tethered to it by stdin (EOF = exit).
pub fn run_worker(store_dir: &Path) -> Result<(), String> {
    let gateway = wire_gateway(store_dir)?;
    // The front is this member's only client and carries its whole arc over
    // one connection, so admission control stays at the front tier.
    let config = NetConfig {
        max_inflight_per_conn: 256,
        ..net_config()
    };
    let server = NetServer::bind("127.0.0.1:0", config, gateway.client())
        .map_err(|e| format!("bind: {e}"))?;
    println!("listening on {}", server.local_addr());

    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    server.stop();
    gateway.shutdown();
    Ok(())
}

/// A per-run scratch directory for the model store, removed on drop.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    /// `<out_dir>/store-<tag>-<pid>`, holding a freshly written artifact.
    pub fn create(out_dir: &Path, tag: &str) -> Result<StoreDir, String> {
        let dir = StoreDir(out_dir.join(format!("store-{tag}-{}", std::process::id())));
        write_artifact(&dir.0)?;
        Ok(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
