//! The SR model zoo enumeration used by every experiment, mapping one-to-one
//! onto the "SR method" rows of Tables I, II and IV of the paper.

use crate::edsr::{Edsr, EdsrConfig};
use crate::fsrcnn::{Fsrcnn, FsrcnnConfig};
use crate::sesr::{Sesr, SesrConfig};
use crate::upscaler::{InterpolationUpscaler, NetworkUpscaler, Upscaler};
use rand::{Rng, SeedableRng};
use sesr_nn::spec::NetworkSpec;
use sesr_nn::Layer;

/// Every upscaler compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrModelKind {
    /// Nearest-neighbour interpolation (the cheap non-learned baseline).
    NearestNeighbor,
    /// Bicubic interpolation (extra baseline, not in the paper tables).
    Bicubic,
    /// EDSR-base (16 residual blocks, 64 channels at paper scale).
    EdsrBase,
    /// Full EDSR (32 residual blocks, 256 channels at paper scale).
    Edsr,
    /// FSRCNN (d=56, s=12, m=4 at paper scale).
    Fsrcnn,
    /// SESR-M2 (2 collapsible blocks, 16 channels).
    SesrM2,
    /// SESR-M3 (3 collapsible blocks, 16 channels).
    SesrM3,
    /// SESR-M5 (5 collapsible blocks, 16 channels).
    SesrM5,
    /// SESR-XL (11 collapsible blocks, 32 channels).
    SesrXl,
}

impl SrModelKind {
    /// Every kind, in the row order used by Table II of the paper (with the
    /// extra bicubic baseline appended). Returns a static slice so hot
    /// callers (table drivers, the benchmark) never allocate.
    pub fn all() -> &'static [SrModelKind] {
        const ALL: [SrModelKind; 9] = [
            SrModelKind::NearestNeighbor,
            SrModelKind::EdsrBase,
            SrModelKind::Edsr,
            SrModelKind::Fsrcnn,
            SrModelKind::SesrM2,
            SrModelKind::SesrM3,
            SrModelKind::SesrM5,
            SrModelKind::SesrXl,
            SrModelKind::Bicubic,
        ];
        &ALL
    }

    /// The deep-learning models only (the rows of Table I).
    pub fn learned() -> Vec<SrModelKind> {
        SrModelKind::all()
            .iter()
            .copied()
            .filter(|k| k.is_learned())
            .collect()
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SrModelKind::NearestNeighbor => "Nearest Neighbor",
            SrModelKind::Bicubic => "Bicubic",
            SrModelKind::EdsrBase => "EDSR-base",
            SrModelKind::Edsr => "EDSR",
            SrModelKind::Fsrcnn => "FSRCNN",
            SrModelKind::SesrM2 => "SESR-M2",
            SrModelKind::SesrM3 => "SESR-M3",
            SrModelKind::SesrM5 => "SESR-M5",
            SrModelKind::SesrXl => "SESR-XL",
        }
    }

    /// `true` for deep-learning SR models, `false` for interpolation.
    pub fn is_learned(&self) -> bool {
        !matches!(self, SrModelKind::NearestNeighbor | SrModelKind::Bicubic)
    }

    /// Filesystem/route-safe identity slug of the display name
    /// (`"SESR-M2"` → `"sesr-m2"`, `"Nearest Neighbor"` →
    /// `"nearest-neighbor"`): [`sesr_store::slugify`], the same mapping the
    /// artifact store uses for its directories, so a store listing maps back
    /// to a kind with [`SrModelKind::parse`].
    pub fn slug(&self) -> String {
        sesr_store::slugify(self.name())
    }

    /// Parse a display name (`"SESR-M2"`), slug (`"sesr-m2"`) or
    /// space/underscore variant back into a kind; `None` for anything that is
    /// not an SR model (e.g. a classifier artifact id in a shared store).
    ///
    /// This is the inverse of [`SrModelKind::name`]/[`SrModelKind::slug`] and
    /// is what lets CLI flags and store listings name routes.
    pub fn parse(name: &str) -> Option<SrModelKind> {
        let normalized = sesr_store::slugify(name);
        SrModelKind::all()
            .iter()
            .copied()
            .find(|kind| kind.slug() == normalized)
    }

    /// The paper-scale analytic spec (for Table I / IV cost accounting), or
    /// `None` for interpolation baselines.
    pub fn paper_spec(&self) -> Option<NetworkSpec> {
        match self {
            SrModelKind::NearestNeighbor | SrModelKind::Bicubic => None,
            SrModelKind::EdsrBase => Some(EdsrConfig::base_paper().inference_spec()),
            SrModelKind::Edsr => Some(EdsrConfig::full_paper().inference_spec()),
            SrModelKind::Fsrcnn => Some(FsrcnnConfig::paper().inference_spec()),
            SrModelKind::SesrM2 => Some(SesrConfig::m2().inference_spec()),
            SrModelKind::SesrM3 => Some(SesrConfig::m3().inference_spec()),
            SrModelKind::SesrM5 => Some(SesrConfig::m5().inference_spec()),
            SrModelKind::SesrXl => Some(SesrConfig::xl().inference_spec()),
        }
    }

    /// Build the laptop-scale runnable (untrained) network for a learned
    /// kind, or `None` for interpolation baselines.
    pub fn build_local_network(&self, rng: &mut impl Rng) -> Option<Box<dyn Layer>> {
        match self {
            SrModelKind::NearestNeighbor | SrModelKind::Bicubic => None,
            SrModelKind::EdsrBase => Some(Box::new(Edsr::new(EdsrConfig::base_local(), rng))),
            SrModelKind::Edsr => Some(Box::new(Edsr::new(EdsrConfig::full_local(), rng))),
            SrModelKind::Fsrcnn => Some(Box::new(Fsrcnn::new(FsrcnnConfig::local(), rng))),
            SrModelKind::SesrM2 => Some(Box::new(Sesr::new(
                SesrConfig::m2().with_expansion(32),
                rng,
            ))),
            SrModelKind::SesrM3 => Some(Box::new(Sesr::new(
                SesrConfig::m3().with_expansion(32),
                rng,
            ))),
            SrModelKind::SesrM5 => Some(Box::new(Sesr::new(
                SesrConfig::m5().with_expansion(32),
                rng,
            ))),
            SrModelKind::SesrXl => Some(Box::new(Sesr::new(
                SesrConfig::xl().with_expansion(32),
                rng,
            ))),
        }
    }

    /// Build the interpolation upscaler for non-learned kinds, or `None` for
    /// learned kinds (which must be trained first).
    pub fn build_interpolation(&self, scale: usize) -> Option<Box<dyn Upscaler>> {
        match self {
            SrModelKind::NearestNeighbor => Some(Box::new(InterpolationUpscaler::nearest(scale))),
            SrModelKind::Bicubic => Some(Box::new(InterpolationUpscaler::bicubic(scale))),
            _ => None,
        }
    }

    /// Build an upscaler deterministically from `(kind, scale, seed)`.
    ///
    /// This is the *cloneable construction path* used by multi-worker serving
    /// (`sesr-serve`): calling it repeatedly with the same arguments yields
    /// upscalers that compute bitwise-identical functions, so every worker in
    /// a pool can own an independent instance. Interpolation kinds ignore the
    /// seed; learned kinds build the laptop-scale network with weights seeded
    /// from `seed` (untrained) and serve its inference form.
    ///
    /// The result cannot take trained weights afterwards (a SESR upscaler
    /// holds the collapsed network). For trained weights use
    /// [`SrModelKind::build_from_store`] /
    /// [`SrModelKind::build_from_checkpoint`], or the one supported order:
    /// [`SrModelKind::build_local_network`] → `Checkpoint::apply_to` →
    /// [`SrModelKind::wrap_network`].
    ///
    /// Learned local networks are ×2-only; `scale` must be 2 for them.
    ///
    /// # Errors
    ///
    /// Returns an error if `scale` is unsupported for a learned kind.
    pub fn build_seeded_upscaler(
        &self,
        scale: usize,
        seed: u64,
    ) -> sesr_tensor::Result<Box<dyn Upscaler>> {
        if let Some(upscaler) = self.build_interpolation(scale) {
            return Ok(upscaler);
        }
        let network = self.build_seeded_network(scale, seed)?;
        self.wrap_network(scale, network)
    }

    /// Seeded construction of the learned local network, shared by the
    /// untrained and store-hydrated build paths. Callers have already
    /// dispatched interpolation kinds.
    fn build_seeded_network(&self, scale: usize, seed: u64) -> sesr_tensor::Result<Box<dyn Layer>> {
        if scale != 2 {
            return Err(sesr_tensor::TensorError::invalid_argument(format!(
                "learned local SR networks are x2-only, requested x{scale}"
            )));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Ok(self
            .build_local_network(&mut rng)
            .expect("learned kinds always build a local network"))
    }

    /// Turn a network that already holds its final weights into the
    /// upscaler that is deployed: the network is lowered to its
    /// [`Layer::inference_form`] (SESR → the collapsed network; FSRCNN and
    /// EDSR are their own inference form) and wrapped as an [`Upscaler`].
    ///
    /// This is the only place a learned upscaler is constructed — serving,
    /// hot reload and the evaluation plans all come through here — so what
    /// is measured, attacked and served is the same network. Store artifacts
    /// keep the expanded, trainable form.
    ///
    /// # Errors
    ///
    /// Returns an error if the network cannot be lowered.
    pub fn wrap_network(
        &self,
        scale: usize,
        network: Box<dyn Layer>,
    ) -> sesr_tensor::Result<Box<dyn Upscaler>> {
        let network = network.inference_form()?.unwrap_or(network);
        Ok(Box::new(NetworkUpscaler::new(self.name(), scale, network)))
    }

    /// Build an upscaler hydrated with trained weights from a model store.
    ///
    /// This is the serving-side half of the *train once, deploy many*
    /// workflow: the registry resolves the newest artifact for
    /// `(self.name(), scale)` (one validated disk read per process, see
    /// [`ModelRegistry`](sesr_store::ModelRegistry)), its weights are
    /// copied into a freshly built network, and that network is lowered by
    /// [`SrModelKind::wrap_network`]. Interpolation kinds have no weights
    /// and build directly.
    ///
    /// Fallback is deliberately narrow: only
    /// [`StoreError::NotFound`](sesr_store::StoreError::NotFound) (nothing
    /// trained yet) degrades to the seeded-random network that
    /// [`SrModelKind::build_seeded_upscaler`] would produce. A corrupt,
    /// truncated or version-mismatched artifact is an error — damaged weights
    /// are never served silently.
    ///
    /// # Errors
    ///
    /// Returns an error if `scale` is unsupported for a learned kind, if the
    /// stored artifact fails validation, or if its architecture does not
    /// match this kind.
    pub fn build_from_store(
        &self,
        scale: usize,
        registry: &sesr_store::ModelRegistry,
        seed: u64,
    ) -> sesr_tensor::Result<Box<dyn Upscaler>> {
        if let Some(upscaler) = self.build_interpolation(scale) {
            return Ok(upscaler);
        }
        match registry.hydrate(self.name(), scale) {
            Ok(checkpoint) => self.build_from_checkpoint(scale, &checkpoint, seed),
            // Train-free fallback.
            Err(err) if err.is_not_found() => self.build_seeded_upscaler(scale, seed),
            Err(err) => Err(err.into()),
        }
    }

    /// Build an upscaler hydrated from one specific checkpoint, bypassing
    /// the registry's newest-version resolution. This is how a serving
    /// gateway pins (or rolls back to) an exact artifact version instead of
    /// whatever is newest on disk. Interpolation kinds ignore the
    /// checkpoint, matching [`SrModelKind::build_from_store`].
    ///
    /// # Errors
    ///
    /// Returns an error if `scale` is unsupported for a learned kind or the
    /// checkpoint's architecture does not match this kind.
    pub fn build_from_checkpoint(
        &self,
        scale: usize,
        checkpoint: &sesr_store::Checkpoint,
        seed: u64,
    ) -> sesr_tensor::Result<Box<dyn Upscaler>> {
        if let Some(upscaler) = self.build_interpolation(scale) {
            return Ok(upscaler);
        }
        let mut network = self.build_seeded_network(scale, seed)?;
        checkpoint
            .apply_to(network.as_mut())
            .map_err(sesr_tensor::TensorError::from)?;
        self.wrap_network(scale, network)
    }
}

impl std::fmt::Display for SrModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_contains_paper_rows() {
        let all = SrModelKind::all();
        assert!(all.contains(&SrModelKind::Fsrcnn));
        assert!(all.contains(&SrModelKind::SesrM2));
        assert!(all.contains(&SrModelKind::Edsr));
        assert_eq!(SrModelKind::learned().len(), 7);
    }

    #[test]
    fn learned_kinds_have_specs_and_networks() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in SrModelKind::learned() {
            assert!(kind.is_learned());
            assert!(kind.paper_spec().is_some(), "{kind} should have a spec");
            assert!(
                kind.build_local_network(&mut rng).is_some(),
                "{kind} should build"
            );
            assert!(kind.build_interpolation(2).is_none());
        }
    }

    #[test]
    fn interpolation_kinds_have_upscalers_only() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in [SrModelKind::NearestNeighbor, SrModelKind::Bicubic] {
            assert!(!kind.is_learned());
            assert!(kind.paper_spec().is_none());
            assert!(kind.build_local_network(&mut rng).is_none());
            assert!(kind.build_interpolation(2).is_some());
        }
    }

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(SrModelKind::SesrM2.name(), "SESR-M2");
        assert_eq!(SrModelKind::EdsrBase.to_string(), "EDSR-base");
        assert_eq!(SrModelKind::NearestNeighbor.name(), "Nearest Neighbor");
    }

    #[test]
    fn parse_inverts_name_and_slug_for_every_kind() {
        for kind in SrModelKind::all() {
            assert_eq!(SrModelKind::parse(kind.name()), Some(*kind));
            assert_eq!(SrModelKind::parse(&kind.slug()), Some(*kind));
        }
        assert_eq!(SrModelKind::parse("sesr_m2"), Some(SrModelKind::SesrM2));
        assert_eq!(
            SrModelKind::parse("NEAREST NEIGHBOR"),
            Some(SrModelKind::NearestNeighbor)
        );
        assert_eq!(SrModelKind::SesrXl.slug(), "sesr-xl");
        assert_eq!(SrModelKind::parse("mobilenet-v2"), None);
        assert_eq!(SrModelKind::parse(""), None);
    }

    #[test]
    fn build_from_store_falls_back_and_hydrates() {
        use sesr_store::{Checkpoint, ModelRegistry, ModelStore};
        let dir = std::env::temp_dir().join(format!("sesr_zoo_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let registry = ModelRegistry::new(ModelStore::open(&dir).unwrap());

        // Empty store: learned kinds fall back to the seeded-random network,
        // interpolation kinds build directly.
        let fallback = SrModelKind::SesrM2
            .build_from_store(2, &registry, 5)
            .unwrap();
        let seeded = SrModelKind::SesrM2.build_seeded_upscaler(2, 5).unwrap();
        let x = sesr_tensor::Tensor::full(sesr_tensor::Shape::new(&[1, 3, 8, 8]), 0.5);
        assert_eq!(fallback.upscale(&x).unwrap(), seeded.upscale(&x).unwrap());
        assert!(SrModelKind::Bicubic
            .build_from_store(2, &registry, 0)
            .is_ok());

        // Store a differently seeded network; hydration must now reproduce
        // that network's outputs instead of the fallback's.
        let mut rng = StdRng::seed_from_u64(99);
        let source = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        registry
            .store()
            .save(&Checkpoint::from_layer("SESR-M2", 2, 0, source.as_ref()))
            .unwrap();
        let hydrated = SrModelKind::SesrM2
            .build_from_store(2, &registry, 5)
            .unwrap();
        let direct = SrModelKind::SesrM2.wrap_network(2, source).unwrap();
        assert_eq!(hydrated.upscale(&x).unwrap(), direct.upscale(&x).unwrap());
        assert_ne!(
            hydrated.upscale(&x).unwrap(),
            seeded.upscale(&x).unwrap(),
            "hydrated weights must differ from the seeded fallback"
        );

        // x3 is not buildable for learned local networks.
        assert!(SrModelKind::SesrM2
            .build_from_store(3, &registry, 0)
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A uniform `[0, 1)` image batch of the given NCHW shape.
    fn probe(dims: &[usize]) -> sesr_tensor::Tensor {
        sesr_tensor::init::uniform(
            sesr_tensor::Shape::new(dims),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(7),
        )
    }

    /// The lowering contract, SESR half: whichever public constructor built
    /// it, a SESR upscaler computes bit for bit what an explicit
    /// `Sesr::collapse()` of the same weights computes, and stays within
    /// float re-association distance of the expanded network.
    #[test]
    fn sesr_kinds_serve_the_collapsed_network_on_every_build_path() {
        use sesr_store::{Checkpoint, ModelRegistry, ModelStore};
        let dir = std::env::temp_dir().join(format!("sesr_zoo_lowering_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let registry = ModelRegistry::new(ModelStore::open(&dir).unwrap());
        // Bit-identity is checked on a small batch (it holds or fails at any
        // size); the distance to the expanded form on serving-sized images.
        let x = probe(&[2, 3, 8, 8]);
        let large = probe(&[2, 3, 32, 32]);
        let mut scratch = sesr_nn::ScratchSpace::new();

        for (kind, config) in [
            (SrModelKind::SesrM2, SesrConfig::m2()),
            (SrModelKind::SesrM3, SesrConfig::m3()),
            (SrModelKind::SesrM5, SesrConfig::m5()),
            (SrModelKind::SesrXl, SesrConfig::xl()),
        ] {
            let sesr =
                |seed| Sesr::new(config.with_expansion(32), &mut StdRng::seed_from_u64(seed));
            let collapsed = |seed| NetworkUpscaler::new("ref", 2, sesr(seed).collapse().unwrap());

            // Seeded weights, and "trained" weights (seed 99) that reach the
            // upscaler through the store and through a pinned checkpoint.
            let checkpoint = Checkpoint::from_layer(kind.name(), 2, 0, &sesr(99));
            registry.store().save(&checkpoint).unwrap();
            let built = [
                (kind.build_seeded_upscaler(2, 5).unwrap(), collapsed(5)),
                (
                    kind.build_from_store(2, &registry, 5).unwrap(),
                    collapsed(99),
                ),
                (
                    kind.build_from_checkpoint(2, &checkpoint, 5).unwrap(),
                    collapsed(99),
                ),
            ];
            for (served, reference) in &built {
                let want = reference.upscale(&x).unwrap();
                assert_eq!(served.upscale(&x).unwrap(), want, "{kind}: upscale");
                let got = served.upscale_scratch(&x, &mut scratch).unwrap();
                assert_eq!(got, want, "{kind}: upscale_scratch");
                scratch.recycle(got);
            }

            let expanded = NetworkUpscaler::new("expanded", 2, sesr(5));
            let diff = built[0]
                .0
                .upscale(&large)
                .unwrap()
                .max_abs_diff(&expanded.upscale(&large).unwrap())
                .unwrap();
            assert!(
                diff <= 1e-4,
                "{kind}: collapsed vs expanded differ by {diff}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The other half: FSRCNN and EDSR have no cheaper inference form, so
    /// their upscalers run the very network that was built.
    #[test]
    fn non_sesr_kinds_are_served_as_built() {
        let x = probe(&[2, 3, 8, 8]);
        for kind in [
            SrModelKind::Fsrcnn,
            SrModelKind::EdsrBase,
            SrModelKind::Edsr,
        ] {
            let network = kind
                .build_local_network(&mut StdRng::seed_from_u64(5))
                .unwrap();
            assert!(network.inference_form().unwrap().is_none(), "{kind}");
            let as_built = NetworkUpscaler::new("ref", 2, network);
            let served = kind.build_seeded_upscaler(2, 5).unwrap();
            assert_eq!(
                served.upscale(&x).unwrap(),
                as_built.upscale(&x).unwrap(),
                "{kind}"
            );
        }
    }

    #[test]
    fn paper_macs_ordering_matches_table1() {
        // SESR-M2 < SESR-M3 < SESR-M5 < FSRCNN < SESR-XL < EDSR-base < EDSR.
        let macs = |k: SrModelKind| k.paper_spec().unwrap().total_macs((3, 299, 299)).unwrap();
        assert!(macs(SrModelKind::SesrM2) < macs(SrModelKind::SesrM3));
        assert!(macs(SrModelKind::SesrM3) < macs(SrModelKind::SesrM5));
        assert!(macs(SrModelKind::SesrM5) < macs(SrModelKind::Fsrcnn));
        assert!(macs(SrModelKind::Fsrcnn) < macs(SrModelKind::SesrXl));
        assert!(macs(SrModelKind::SesrXl) < macs(SrModelKind::EdsrBase));
        assert!(macs(SrModelKind::EdsrBase) < macs(SrModelKind::Edsr));
    }

    #[test]
    fn sesr_m2_is_about_6x_cheaper_than_fsrcnn() {
        // The headline Table I claim: SESR-M2 has ~6x fewer MACs than FSRCNN.
        let m2 = SrModelKind::SesrM2
            .paper_spec()
            .unwrap()
            .total_macs((3, 299, 299))
            .unwrap() as f64;
        let fsrcnn = SrModelKind::Fsrcnn
            .paper_spec()
            .unwrap()
            .total_macs((3, 299, 299))
            .unwrap() as f64;
        let ratio = fsrcnn / m2;
        assert!((4.0..9.0).contains(&ratio), "ratio={ratio}");
    }
}
