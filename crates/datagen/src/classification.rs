//! Labelled classification dataset over the procedural image manifold.

use crate::images::ImageGenerator;
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sesr_tensor::{Tensor, TensorError};

/// Configuration of a synthetic classification dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetConfig {
    /// Number of classes.
    pub num_classes: usize,
    /// Number of training images.
    pub train_size: usize,
    /// Number of validation images.
    pub val_size: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Seed controlling the entire dataset.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_classes: 8,
            train_size: 512,
            val_size: 128,
            height: 32,
            width: 32,
            seed: 0,
        }
    }
}

/// A fully materialised synthetic classification dataset with train and
/// validation splits.
#[derive(Debug, Clone)]
pub struct ClassificationDataset {
    config: DatasetConfig,
    train_images: Vec<Tensor>,
    train_labels: Vec<usize>,
    val_images: Vec<Tensor>,
    val_labels: Vec<usize>,
}

impl ClassificationDataset {
    /// Generate a dataset from a configuration.
    ///
    /// Classes are balanced in both splits (round-robin assignment before
    /// shuffling).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration has zero classes or zero-sized
    /// images.
    pub fn generate(config: DatasetConfig) -> Result<Self> {
        if config.num_classes == 0 {
            return Err(TensorError::invalid_argument(
                "dataset needs at least one class",
            ));
        }
        if config.height == 0 || config.width == 0 {
            return Err(TensorError::invalid_argument(
                "dataset image size must be non-zero",
            ));
        }
        let gen = ImageGenerator::new(config.height, config.width);
        let mut rng = StdRng::seed_from_u64(config.seed);

        let make_split = |count: usize, rng: &mut StdRng| -> Result<(Vec<Tensor>, Vec<usize>)> {
            let mut images = Vec::with_capacity(count);
            let mut labels = Vec::with_capacity(count);
            for i in 0..count {
                let class = i % config.num_classes;
                images.push(gen.render_class(class, config.num_classes, rng)?);
                labels.push(class);
            }
            // Shuffle consistently.
            let mut order: Vec<usize> = (0..count).collect();
            order.shuffle(rng);
            let images = order.iter().map(|&i| images[i].clone()).collect();
            let labels = order.iter().map(|&i| labels[i]).collect();
            Ok((images, labels))
        };

        let (train_images, train_labels) = make_split(config.train_size, &mut rng)?;
        let (val_images, val_labels) = make_split(config.val_size, &mut rng)?;
        Ok(ClassificationDataset {
            config,
            train_images,
            train_labels,
            val_images,
            val_labels,
        })
    }

    /// The configuration used to generate this dataset.
    pub fn config(&self) -> DatasetConfig {
        self.config
    }

    /// Number of training examples.
    pub fn train_len(&self) -> usize {
        self.train_images.len()
    }

    /// Number of validation examples.
    pub fn val_len(&self) -> usize {
        self.val_images.len()
    }

    /// Training example `i` as `(image, label)`.
    pub fn train_example(&self, i: usize) -> (&Tensor, usize) {
        (&self.train_images[i], self.train_labels[i])
    }

    /// All validation images.
    pub fn val_images(&self) -> &[Tensor] {
        &self.val_images
    }

    /// All validation labels.
    pub fn val_labels(&self) -> &[usize] {
        &self.val_labels
    }

    /// Iterate over training mini-batches of at most `batch_size` examples,
    /// each batch stacked into a `[B, 3, H, W]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if `batch_size` is zero.
    pub fn train_batches(&self, batch_size: usize) -> Result<Vec<(Tensor, Vec<usize>)>> {
        Self::batches(&self.train_images, &self.train_labels, batch_size)
    }

    /// Iterate over validation mini-batches (see [`train_batches`](Self::train_batches)).
    ///
    /// # Errors
    ///
    /// Returns an error if `batch_size` is zero.
    pub fn val_batches(&self, batch_size: usize) -> Result<Vec<(Tensor, Vec<usize>)>> {
        Self::batches(&self.val_images, &self.val_labels, batch_size)
    }

    fn batches(
        images: &[Tensor],
        labels: &[usize],
        batch_size: usize,
    ) -> Result<Vec<(Tensor, Vec<usize>)>> {
        if batch_size == 0 {
            return Err(TensorError::invalid_argument("batch size must be non-zero"));
        }
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < images.len() {
            let end = (start + batch_size).min(images.len());
            let batch = Tensor::stack_batch(&images[start..end])?;
            out.push((batch, labels[start..end].to_vec()));
            start = end;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DatasetConfig {
        DatasetConfig {
            num_classes: 4,
            train_size: 16,
            val_size: 8,
            height: 16,
            width: 16,
            seed: 7,
        }
    }

    #[test]
    fn generation_produces_requested_sizes() {
        let ds = ClassificationDataset::generate(small_config()).unwrap();
        assert_eq!(ds.train_len(), 16);
        assert_eq!(ds.val_len(), 8);
        assert_eq!(ds.config().num_classes, 4);
        let (img, label) = ds.train_example(0);
        assert_eq!(img.shape().dims(), &[1, 3, 16, 16]);
        assert!(label < 4);
    }

    #[test]
    fn splits_are_class_balanced() {
        let ds = ClassificationDataset::generate(small_config()).unwrap();
        let mut counts = vec![0usize; 4];
        for i in 0..ds.train_len() {
            counts[ds.train_example(i).1] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4), "counts={counts:?}");
    }

    #[test]
    fn same_seed_reproduces_dataset() {
        let a = ClassificationDataset::generate(small_config()).unwrap();
        let b = ClassificationDataset::generate(small_config()).unwrap();
        assert_eq!(a.train_example(0).0, b.train_example(0).0);
        assert_eq!(a.val_labels(), b.val_labels());
    }

    #[test]
    fn different_seed_changes_dataset() {
        let a = ClassificationDataset::generate(small_config()).unwrap();
        let mut cfg = small_config();
        cfg.seed = 99;
        let b = ClassificationDataset::generate(cfg).unwrap();
        assert_ne!(a.train_example(0).0, b.train_example(0).0);
    }

    #[test]
    fn batching_covers_all_examples() {
        let ds = ClassificationDataset::generate(small_config()).unwrap();
        let batches = ds.train_batches(5).unwrap();
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, 16);
        assert_eq!(batches[0].0.shape().dims(), &[5, 3, 16, 16]);
        // Last batch is the remainder.
        assert_eq!(batches.last().unwrap().1.len(), 1);
        assert!(ds.train_batches(0).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = small_config();
        cfg.num_classes = 0;
        assert!(ClassificationDataset::generate(cfg).is_err());
        let mut cfg = small_config();
        cfg.height = 0;
        assert!(ClassificationDataset::generate(cfg).is_err());
    }
}
