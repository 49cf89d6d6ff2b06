//! A pinned wire reload builds exactly the stored artifact it names, not
//! the newest: the contract the cluster supervisor's fan-out relies on so
//! that every member serves the artifact its promotion policy chose.

use rand::{rngs::StdRng, SeedableRng};
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_net::{Backend, LocalBackend};
use sesr_serve::{ArtifactId, DefenseRequest, GatewayBuilder, RouteKey};
use sesr_store::{Checkpoint, ModelStore};
use sesr_tensor::{Shape, Tensor};

fn save(store: &ModelStore, seed: u64) -> ArtifactId {
    let mut rng = StdRng::seed_from_u64(seed);
    let network = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
    let artifact = store
        .save(&Checkpoint::from_layer("SESR-M2", 2, 0, network.as_ref()))
        .unwrap();
    (artifact.version, artifact.digest)
}

#[test]
fn reload_pinned_to_an_older_artifact_serves_it_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("sesr_net_pinned_{}", std::process::id()));
    let store = ModelStore::open(&dir).unwrap();
    let v1 = save(&store, 101);
    let route = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .with_store(store.clone())
        .route(route)
        .build()
        .unwrap();
    let client = gateway.client();
    let image = Tensor::full(Shape::new(&[1, 3, 6, 6]), 0.25);
    let serve = || -> Vec<u32> {
        let response = client
            .defend_blocking(DefenseRequest::new(image.clone()).on(route))
            .unwrap();
        response
            .defended
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let v1_bits = serve();

    let v2 = save(&store, 102);
    assert!(v2 > v1, "v2 is the newest");
    let mut backend = LocalBackend::new(client.clone());
    let label = route.label();
    backend.reload(&label, None).unwrap();
    assert_ne!(serve(), v1_bits, "an unpinned reload builds the newest");
    backend.reload(&label, Some(v1)).unwrap();
    assert_eq!(serve(), v1_bits, "a reload pinned to v1 serves v1");
    assert!(
        backend.reload(&label, Some((9, 0))).is_err(),
        "an unstored pin fails"
    );
    assert!(
        backend.reload("", Some(v1)).is_err(),
        "a pin names one route"
    );
    assert_eq!(serve(), v1_bits, "a failed reload keeps the pinned weights");

    drop(backend);
    drop(client);
    gateway.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
