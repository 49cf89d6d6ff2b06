//! Gateway-backed evaluation: an [`CustomScenario`] implementation that
//! measures robust accuracy **through the serving stack** instead of calling
//! the defense pipeline directly.
//!
//! The pipeline-level scenarios in `sesr_defense::eval` prove the defense
//! works; this scenario proves the *deployment* works: attacked images are
//! submitted as routed [`DefenseRequest`]s and travel the full
//! queue → worker → cache path of a
//! [`DefenseGateway`] before the classifier ever
//! sees them. The adversarial sets are Table II's ([`adversarial_sets`]) and
//! serving is bitwise-identical to direct pipeline calls, so every robust
//! accuracy must equal the Table II row of the same classifier, attack and
//! defense. Any divergence is a serving bug, which is exactly what an
//! end-to-end evaluation is for.

use crate::route::{DefenseRequest, RouteConfig, RouteKey};
use crate::server::WorkerAssets;
use crate::{DefenseGateway, GatewayBuilder, ServeError};
use sesr_attacks::AttackKind;
use sesr_classifiers::ClassifierKind;
use sesr_defense::eval::{adversarial_sets, CustomScenario, DefenseSpec, EvalRecord, ModelBank};
use sesr_defense::pipeline::DefensePipeline;
use sesr_tensor::{Tensor, TensorError};

fn serve_err(context: &str, err: ServeError) -> TensorError {
    TensorError::invalid_argument(format!("gateway eval {context}: {err}"))
}

/// Evaluate one classifier's robustness with every defense served through a
/// multi-route [`DefenseGateway`].
///
/// All trained models come from the plan's [`ModelBank`] (train-once), each
/// defense spec becomes one gateway route with share-nothing workers, and
/// the records carry both the robust accuracies and the per-route serving
/// counters so a plan run doubles as a serving smoke test.
pub struct GatewayScenario {
    /// The classifier under attack.
    pub classifier: ClassifierKind,
    /// One gateway route per spec (`model` must be `Some`; the gateway has
    /// no "no defense" route — that baseline belongs to the pipeline-level
    /// robustness scenarios).
    pub defenses: Vec<DefenseSpec>,
    /// Attacks to evaluate.
    pub attacks: Vec<AttackKind>,
    /// Per-route shard configuration.
    pub route_config: RouteConfig,
    /// Shared gateway cache capacity (0 disables caching).
    pub cache_capacity: usize,
}

impl GatewayScenario {
    /// A scenario serving the paper's defense configuration (×2, JPEG +
    /// wavelet) for each given SR model.
    pub fn paper(
        classifier: ClassifierKind,
        models: impl IntoIterator<Item = sesr_models::SrModelKind>,
        attacks: Vec<AttackKind>,
    ) -> Self {
        GatewayScenario {
            classifier,
            defenses: models.into_iter().map(DefenseSpec::paper).collect(),
            attacks,
            route_config: RouteConfig::default(),
            cache_capacity: 256,
        }
    }

    /// One factory-built route per defense spec. Each factory holds the
    /// bank's hydrated checkpoint and builds its workers through
    /// [`sesr_models::SrModelKind::build_from_checkpoint`], so the gateway
    /// serves the exact trained weights the plan evaluates, and a reload
    /// rebuilds the same weights.
    fn gateway(
        &self,
        bank: &ModelBank,
    ) -> sesr_tensor::Result<(DefenseGateway, Vec<(RouteKey, DefenseSpec)>)> {
        let mut builder = GatewayBuilder::new().cache_capacity(self.cache_capacity);
        let mut routes = Vec::with_capacity(self.defenses.len());
        for spec in &self.defenses {
            let Some(model) = spec.model else {
                return Err(TensorError::invalid_argument(
                    "gateway routes need a concrete SR model (DefenseSpec::none has no route)",
                ));
            };
            let checkpoint = if model.is_learned() {
                Some(bank.sr_checkpoint(model)?)
            } else {
                None
            };
            let (scale, preprocess) = (spec.scale, spec.preprocess);
            let key = RouteKey::new(model, scale, preprocess);
            builder = builder.route_with_factory(key, self.route_config.clone(), move |_| {
                let upscaler = match &checkpoint {
                    Some(checkpoint) => model.build_from_checkpoint(scale, checkpoint, 0)?,
                    None => model.build_seeded_upscaler(scale, 0)?,
                };
                Ok(WorkerAssets::new(DefensePipeline::new(
                    preprocess, upscaler,
                )))
            });
            routes.push((key, *spec));
        }
        let gateway = builder.build().map_err(|e| serve_err("startup", e))?;
        Ok((gateway, routes))
    }
}

impl CustomScenario for GatewayScenario {
    fn kind(&self) -> &'static str {
        "gateway"
    }

    fn run(&self, bank: &ModelBank) -> sesr_tensor::Result<Vec<EvalRecord>> {
        if self.defenses.is_empty() || self.attacks.is_empty() {
            return Err(TensorError::invalid_argument(
                "a gateway scenario needs at least one defense and one attack",
            ));
        }

        // Exactly the sets this classifier's Table II section is measured on.
        let epsilon = bank.config().attack.epsilon;
        let (mut evaluator, sets) =
            adversarial_sets(bank, self.classifier, None, &self.attacks, &[epsilon])?;
        let clean_accuracy = evaluator.clean_accuracy()?;

        let (gateway, routes) = self.gateway(bank)?;
        let client = gateway.client();

        // Push every adversarial image through every route. Serving counters
        // become part of each record — as the *delta* accrued by that
        // (attack, route) pass, so the JSON artifact shows exactly which
        // requests travelled the serving stack and sums correctly across
        // records.
        let mut records = Vec::with_capacity(self.attacks.len() * routes.len());
        let mut seen: std::collections::HashMap<RouteKey, (u64, u64)> =
            std::collections::HashMap::new();
        for (attack_kind, _, adversarial) in &sets {
            for (key, spec) in &routes {
                let mut defended: Vec<Tensor> = Vec::with_capacity(adversarial.len());
                for image in adversarial {
                    let response = client
                        .defend_blocking(DefenseRequest::new(image.clone()).on(*key))
                        .map_err(|e| serve_err("submit", e))?;
                    defended.push(response.defended);
                }
                // The gateway already applied the defense; classify as-is.
                let robust_accuracy = evaluator.defended_accuracy(&defended, None)?;
                // `defend_blocking` is synchronous, so the route's counters
                // are settled: subtract the totals of earlier passes to get
                // this pass's share.
                let snapshot = client.telemetry_snapshot();
                let count = |metric: &str| {
                    snapshot
                        .counter(&format!("route.{}.{metric}", key.label()))
                        .unwrap_or(0)
                };
                let (served, hits) = (count("completed"), count("cache_hits"));
                let (prev_served, prev_hits) = seen.insert(*key, (served, hits)).unwrap_or((0, 0));
                records.push(
                    EvalRecord::new()
                        .text("classifier", self.classifier.name())
                        .text("defense", spec.name())
                        .text("route", key.label())
                        .text("attack", attack_kind.name())
                        .float("clean_accuracy", f64::from(clean_accuracy))
                        .float("robust_accuracy", f64::from(robust_accuracy))
                        .int("num_images", adversarial.len() as u64)
                        .int("served", served - prev_served)
                        .int("cache_hits", hits - prev_hits),
                );
            }
        }

        drop(client);
        gateway.shutdown();
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_defense::eval::EvalPlan;
    use sesr_defense::experiments::ExperimentConfig;
    use sesr_models::SrModelKind;

    fn tiny_config() -> ExperimentConfig {
        let mut config = ExperimentConfig::quick();
        config.sr_epochs = 1;
        config.sr_train_size = 4;
        config.sr_val_size = 2;
        config.classifier_epochs = 2;
        config
    }

    #[test]
    fn gateway_scenario_matches_direct_pipeline_accuracy() {
        // FGSM is deterministic; PGD draws its random start from the RNG, so
        // it only matches if both paths craft from the same seed.
        let mut config = tiny_config();
        config.attacks = vec![AttackKind::Fgsm, AttackKind::Pgd];
        let bank = ModelBank::ephemeral(config.clone()).unwrap();
        let scenario = GatewayScenario::paper(
            ClassifierKind::MobileNetV2,
            config.sr_kinds.iter().copied(),
            config.attacks.clone(),
        );
        let records = scenario.run(&bank).unwrap();
        assert_eq!(records.len(), 4, "one record per (attack, route)");
        // The direct pipeline path: the Table II section of the same
        // classifier, from the same bank.
        let table2 = EvalPlan::table2(&config).run(&bank).unwrap();
        assert!(table2.ok(), "{:?}", table2.failures());
        for record in &records {
            assert!(
                record.get_int("served").unwrap() > 0,
                "requests must travel the serving stack"
            );
            let direct = table2
                .records()
                .find(|row| {
                    ["classifier", "attack", "defense"]
                        .iter()
                        .all(|key| row.get_text(key) == record.get_text(key))
                })
                .expect("Table II has the same (classifier, attack, defense) cell");
            assert_eq!(
                record.get_float("robust_accuracy"),
                direct.get_float("robust_accuracy"),
                "gateway-served accuracy must equal the Table II row: {record:?}"
            );
        }
    }

    #[test]
    fn gateway_scenario_routes_reload_and_serve_bitwise_the_same() {
        let bank = ModelBank::ephemeral(tiny_config()).unwrap();
        let scenario = GatewayScenario::paper(
            ClassifierKind::MobileNetV2,
            [SrModelKind::SesrM2],
            vec![AttackKind::Fgsm],
        );
        let (gateway, routes) = scenario.gateway(&bank).unwrap();
        let client = gateway.client();
        let (key, spec) = routes[0];
        let image = Tensor::full(sesr_tensor::Shape::new(&[1, 3, 8, 8]), 0.25);
        let serve = || {
            client
                .defend_blocking(DefenseRequest::new(image.clone()).on(key).skip_cache())
                .unwrap()
                .defended
        };
        let before = serve();
        client.reload(&key, None).unwrap();
        assert_eq!(serve(), before, "a reload must rebuild the same weights");
        let direct = bank
            .defense(&spec)
            .unwrap()
            .unwrap()
            .defend(&image)
            .unwrap();
        assert_eq!(
            before, direct,
            "the route serves the bank's trained weights"
        );
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn gateway_scenario_rejects_defenseless_specs() {
        let bank = ModelBank::ephemeral(tiny_config()).unwrap();
        let mut scenario = GatewayScenario::paper(
            ClassifierKind::MobileNetV2,
            [SrModelKind::NearestNeighbor],
            vec![AttackKind::Fgsm],
        );
        scenario.defenses = vec![DefenseSpec::none()];
        assert!(scenario.run(&bank).is_err());
        scenario.defenses = Vec::new();
        assert!(scenario.run(&bank).is_err());
    }
}
