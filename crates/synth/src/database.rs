//! Labelled synthetic image databases and train/test splitting (§4.1).
//!
//! [`SceneDatabase`] mirrors the COREL natural-scene collection (5
//! categories × 100 images by default); [`ObjectDatabase`] mirrors the
//! 228-image, 19-category web collection (12 per category). Both are
//! deterministic in their seed, and both are rendered from a
//! [`RenderPlan`] that a caller can also consume one image at a time.
//!
//! [`DatabaseSplit`] reproduces the paper's evaluation protocol: a
//! stratified "potential training set" (20% of each category by default)
//! whose labels the system may consult for simulated relevance feedback,
//! and a disjoint test set retrieval is finally scored on.

use milr_imgproc::{GrayImage, RgbImage};
use milr_optim::pool::run_indexed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::objects::{generate_object, OBJECT_CATEGORIES};
use crate::scenes::{generate_scene, SCENE_CATEGORIES};

/// A labelled colour-image database.
#[derive(Debug, Clone)]
pub struct LabelledImages {
    images: Vec<RgbImage>,
    labels: Vec<usize>,
    categories: Vec<String>,
}

impl LabelledImages {
    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The colour images, in index order.
    pub fn images(&self) -> &[RgbImage] {
        &self.images
    }

    /// Category label per image.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Category names, indexed by label.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Looks up a category index by name.
    pub fn category_index(&self, name: &str) -> Option<usize> {
        self.categories.iter().position(|c| c == name)
    }

    /// Number of images carrying a label.
    pub fn category_count(&self, category: usize) -> usize {
        self.labels.iter().filter(|&&l| l == category).count()
    }

    /// Gray-scale conversions of all images, paired with labels — the
    /// input format of the retrieval pipeline (§3.5 step 1).
    pub fn gray_images(&self) -> Vec<(GrayImage, usize)> {
        self.images
            .iter()
            .zip(&self.labels)
            .map(|(img, &l)| (img.to_gray(), l))
            .collect()
    }

    /// Stratified split into a potential-training pool and a test set:
    /// `pool_fraction` of each category (rounded up, at least 1) goes to
    /// the pool. Deterministic in `seed`.
    ///
    /// # Panics
    /// Panics if `pool_fraction` is outside `(0, 1)`.
    pub fn split(&self, pool_fraction: f64, seed: u64) -> DatabaseSplit {
        split_labels(&self.labels, self.categories.len(), pool_fraction, seed)
    }
}

/// The stratified split of [`LabelledImages::split`] over a label list.
fn split_labels(
    labels: &[usize],
    categories: usize,
    pool_fraction: f64,
    seed: u64,
) -> DatabaseSplit {
    assert!(
        pool_fraction > 0.0 && pool_fraction < 1.0,
        "pool fraction must lie strictly between 0 and 1, got {pool_fraction}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::new();
    let mut test = Vec::new();
    for category in 0..categories {
        let mut members: Vec<usize> = (0..labels.len())
            .filter(|&i| labels[i] == category)
            .collect();
        members.shuffle(&mut rng);
        let take = ((members.len() as f64 * pool_fraction).ceil() as usize)
            .clamp(1, members.len().saturating_sub(1).max(1));
        pool.extend_from_slice(&members[..take]);
        test.extend_from_slice(&members[take..]);
    }
    pool.sort_unstable();
    test.sort_unstable();
    DatabaseSplit { pool, test }
}

/// A stratified potential-training pool / test-set split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseSplit {
    /// Indices whose labels the system may consult (simulated feedback).
    pub pool: Vec<usize>,
    /// Indices retrieval is finally evaluated on.
    pub test: Vec<usize>,
}

/// Which generator renders a plan's images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Renderer {
    Scene,
    Object,
}

/// The render plan of a synthetic database: a category and a seed per
/// image, drawn serially from the master seed in database order.
///
/// Rendering image `i` reads only its own `(category, seed)` pair and
/// its own RNG, so the images are independent: rendering them in any
/// order, on any number of workers, yields the same bytes.
#[derive(Debug, Clone)]
pub struct RenderPlan {
    renderer: Renderer,
    width: usize,
    height: usize,
    labels: Vec<usize>,
    seeds: Vec<u64>,
}

impl RenderPlan {
    fn draw(
        renderer: Renderer,
        images_per_category: usize,
        seed: u64,
        width: usize,
        height: usize,
    ) -> Self {
        assert!(
            images_per_category > 0,
            "need at least one image per category"
        );
        assert!(width >= 16 && height >= 16, "images must be at least 16x16");
        let categories = match renderer {
            Renderer::Scene => SCENE_CATEGORIES.len(),
            Renderer::Object => OBJECT_CATEGORIES.len(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<usize> = (0..categories)
            .flat_map(|category| std::iter::repeat_n(category, images_per_category))
            .collect();
        let seeds = labels.iter().map(|_| rng.gen()).collect();
        Self {
            renderer,
            width,
            height,
            labels,
            seeds,
        }
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the plan holds no images (never true for a built plan).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Category label per image.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Category names, indexed by label.
    pub fn categories(&self) -> &'static [&'static str] {
        match self.renderer {
            Renderer::Scene => &SCENE_CATEGORIES,
            Renderer::Object => &OBJECT_CATEGORIES,
        }
    }

    /// Looks up a category index by name.
    pub fn category_index(&self, name: &str) -> Option<usize> {
        self.categories().iter().position(|c| *c == name)
    }

    /// The stratified split [`LabelledImages::split`] draws for the
    /// rendered database, computed from the labels alone.
    ///
    /// # Panics
    /// Panics if `pool_fraction` is outside `(0, 1)`.
    pub fn split(&self, pool_fraction: f64, seed: u64) -> DatabaseSplit {
        split_labels(&self.labels, self.categories().len(), pool_fraction, seed)
    }

    /// Renders image `index` from its own seed.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn render(&self, index: usize) -> RgbImage {
        let mut rng = StdRng::seed_from_u64(self.seeds[index]);
        let category = self.labels[index];
        match self.renderer {
            Renderer::Scene => generate_scene(category, self.width, self.height, &mut rng),
            Renderer::Object => generate_object(category, self.width, self.height, &mut rng),
        }
    }

    /// Renders every image on the workspace pool (all available cores).
    pub fn render_all(&self) -> LabelledImages {
        self.render_on(0)
    }

    /// [`Self::render_all`] on `threads` workers (`0` = available
    /// parallelism); the images do not depend on the count.
    pub(crate) fn render_on(&self, threads: usize) -> LabelledImages {
        LabelledImages {
            images: run_indexed(self.len(), threads, |index| self.render(index)),
            labels: self.labels.clone(),
            categories: self.categories().iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

/// The synthetic natural-scene database (COREL stand-in).
#[derive(Debug, Clone)]
pub struct SceneDatabase {
    inner: LabelledImages,
}

/// Builder for [`SceneDatabase`].
#[derive(Debug, Clone)]
pub struct SceneDatabaseBuilder {
    images_per_category: usize,
    seed: u64,
    width: usize,
    height: usize,
}

impl Default for SceneDatabaseBuilder {
    fn default() -> Self {
        Self {
            images_per_category: 100,
            seed: 0,
            width: 128,
            height: 96,
        }
    }
}

impl SceneDatabaseBuilder {
    /// Images per category (paper: 100).
    pub fn images_per_category(mut self, n: usize) -> Self {
        self.images_per_category = n;
        self
    }

    /// RNG seed — the whole database is a pure function of it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Image dimensions (default 128×96).
    pub fn dimensions(mut self, width: usize, height: usize) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    /// The database's render plan: one seed per image, drawn from the
    /// master seed in database order, so a caller can render (and
    /// consume) the images one at a time.
    ///
    /// # Panics
    /// Panics if `images_per_category == 0` or the dimensions are too
    /// small for the generators (< 16 px).
    pub fn plan(&self) -> RenderPlan {
        RenderPlan::draw(
            Renderer::Scene,
            self.images_per_category,
            self.seed,
            self.width,
            self.height,
        )
    }

    /// Generates the database, rendering the images on the workspace
    /// pool.
    ///
    /// # Panics
    /// Same conditions as [`Self::plan`].
    pub fn build(self) -> SceneDatabase {
        SceneDatabase {
            inner: self.plan().render_all(),
        }
    }
}

impl SceneDatabase {
    /// Starts building a scene database.
    pub fn builder() -> SceneDatabaseBuilder {
        SceneDatabaseBuilder::default()
    }
}

impl std::ops::Deref for SceneDatabase {
    type Target = LabelledImages;
    fn deref(&self) -> &LabelledImages {
        &self.inner
    }
}

/// The synthetic object database (retail-website stand-in).
#[derive(Debug, Clone)]
pub struct ObjectDatabase {
    inner: LabelledImages,
}

/// Builder for [`ObjectDatabase`].
#[derive(Debug, Clone)]
pub struct ObjectDatabaseBuilder {
    images_per_category: usize,
    seed: u64,
    width: usize,
    height: usize,
}

impl Default for ObjectDatabaseBuilder {
    fn default() -> Self {
        // 19 × 12 = 228 images, matching the paper's object collection.
        Self {
            images_per_category: 12,
            seed: 0,
            width: 96,
            height: 96,
        }
    }
}

impl ObjectDatabaseBuilder {
    /// Images per category (paper total: 228 over 19 categories).
    pub fn images_per_category(mut self, n: usize) -> Self {
        self.images_per_category = n;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Image dimensions (default 96×96).
    pub fn dimensions(mut self, width: usize, height: usize) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    /// The database's render plan (see [`SceneDatabaseBuilder::plan`]).
    ///
    /// # Panics
    /// Same conditions as [`SceneDatabaseBuilder::plan`].
    pub fn plan(&self) -> RenderPlan {
        RenderPlan::draw(
            Renderer::Object,
            self.images_per_category,
            self.seed,
            self.width,
            self.height,
        )
    }

    /// Generates the database, rendering the images on the workspace
    /// pool.
    ///
    /// # Panics
    /// Same conditions as [`SceneDatabaseBuilder::plan`].
    pub fn build(self) -> ObjectDatabase {
        ObjectDatabase {
            inner: self.plan().render_all(),
        }
    }
}

impl ObjectDatabase {
    /// Starts building an object database.
    pub fn builder() -> ObjectDatabaseBuilder {
        ObjectDatabaseBuilder::default()
    }
}

impl std::ops::Deref for ObjectDatabase {
    type Target = LabelledImages;
    fn deref(&self) -> &LabelledImages {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenes() -> SceneDatabase {
        SceneDatabase::builder()
            .images_per_category(4)
            .seed(3)
            .dimensions(64, 48)
            .build()
    }

    #[test]
    fn scene_database_shape() {
        let db = small_scenes();
        assert_eq!(db.len(), 20);
        assert_eq!(db.categories().len(), 5);
        for cat in 0..5 {
            assert_eq!(db.category_count(cat), 4);
        }
    }

    #[test]
    fn default_sizes_match_the_paper() {
        // Avoid building the full databases here (slow in debug); check
        // the builder defaults instead.
        let sb = SceneDatabaseBuilder::default();
        assert_eq!(sb.images_per_category * 5, 500);
        let ob = ObjectDatabaseBuilder::default();
        assert_eq!(ob.images_per_category * OBJECT_CATEGORIES.len(), 228);
    }

    #[test]
    fn object_database_shape() {
        let db = ObjectDatabase::builder()
            .images_per_category(2)
            .seed(1)
            .dimensions(48, 48)
            .build();
        assert_eq!(db.len(), 38);
        assert_eq!(db.categories().len(), 19);
        assert_eq!(db.category_index("car"), Some(0));
        assert_eq!(db.category_index("bottle"), Some(18));
        assert_eq!(db.category_index("spaceship"), None);
    }

    #[test]
    fn databases_are_seed_deterministic() {
        let a = small_scenes();
        let b = small_scenes();
        assert_eq!(a.images()[7], b.images()[7]);
        let c = SceneDatabase::builder()
            .images_per_category(4)
            .seed(4)
            .dimensions(64, 48)
            .build();
        assert_ne!(a.images()[7], c.images()[7]);
    }

    #[test]
    fn gray_images_preserve_labels() {
        let db = small_scenes();
        let gray = db.gray_images();
        assert_eq!(gray.len(), db.len());
        for (i, (img, label)) in gray.iter().enumerate() {
            assert_eq!(*label, db.labels()[i]);
            assert_eq!(img.width(), 64);
        }
    }

    #[test]
    fn split_is_stratified_and_disjoint() {
        let db = small_scenes();
        let split = db.split(0.25, 9);
        // 25% of 4 = 1 per category.
        assert_eq!(split.pool.len(), 5);
        assert_eq!(split.test.len(), 15);
        for cat in 0..5 {
            let in_pool = split
                .pool
                .iter()
                .filter(|&&i| db.labels()[i] == cat)
                .count();
            assert_eq!(in_pool, 1, "category {cat}");
        }
        for i in &split.pool {
            assert!(!split.test.contains(i));
        }
        let mut all: Vec<usize> = split.pool.iter().chain(&split.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_seed_deterministic() {
        let db = small_scenes();
        assert_eq!(db.split(0.25, 5), db.split(0.25, 5));
        assert_ne!(db.split(0.25, 5), db.split(0.25, 6));
    }

    #[test]
    #[should_panic(expected = "strictly between")]
    fn bad_split_fraction_rejected() {
        let db = small_scenes();
        let _ = db.split(1.0, 0);
    }

    #[test]
    fn split_never_empties_the_test_set() {
        let db = SceneDatabase::builder()
            .images_per_category(2)
            .seed(0)
            .dimensions(48, 48)
            .build();
        let split = db.split(0.9, 0);
        // Even at 90% the clamp keeps at least one test image per category.
        for cat in 0..5 {
            let in_test = split
                .test
                .iter()
                .filter(|&&i| db.labels()[i] == cat)
                .count();
            assert!(in_test >= 1, "category {cat} has no test images");
        }
    }

    /// FNV-1a over every pixel's bit pattern and every label, in index
    /// order.
    fn corpus_digest(db: &LabelledImages) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (image, &label) in db.images().iter().zip(db.labels()) {
            eat(&(label as u64).to_le_bytes());
            for v in image.channels() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        hash
    }

    #[test]
    fn generated_corpora_are_pinned_byte_for_byte() {
        // Digests recorded when every image was rendered serially; a
        // reordered seed draw or a render that depends on scheduling
        // moves them.
        let pinned = [
            (0, 0xb1fc_d307_a9bc_b634, 0x0fc9_f7c5_2207_312f),
            (7, 0xb1e7_a911_3a3e_db58, 0x7c3d_2678_2081_4fd3),
        ];
        for (seed, scenes, objects) in pinned {
            let built = SceneDatabase::builder()
                .images_per_category(2)
                .seed(seed)
                .build();
            assert_eq!(corpus_digest(&built), scenes, "scenes, seed {seed}");
            let built = ObjectDatabase::builder()
                .images_per_category(2)
                .seed(seed)
                .build();
            assert_eq!(corpus_digest(&built), objects, "objects, seed {seed}");
        }
    }

    #[test]
    fn rendering_does_not_depend_on_the_worker_count() {
        let plans = [
            SceneDatabase::builder()
                .images_per_category(2)
                .seed(5)
                .dimensions(40, 32)
                .plan(),
            ObjectDatabase::builder()
                .images_per_category(1)
                .seed(5)
                .dimensions(32, 32)
                .plan(),
        ];
        for plan in plans {
            let serial = plan.render_on(1);
            for threads in [2, 3] {
                let pooled = plan.render_on(threads);
                assert_eq!(pooled.images(), serial.images(), "{threads} workers");
                assert_eq!(pooled.labels(), serial.labels());
            }
            for (index, image) in serial.images().iter().enumerate() {
                assert_eq!(&plan.render(index), image, "image {index}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one image")]
    fn zero_images_per_category_rejected() {
        let _ = SceneDatabase::builder().images_per_category(0).build();
    }
}
