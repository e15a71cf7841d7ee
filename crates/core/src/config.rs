//! Configuration of the GVE-Leiden algorithm.
//!
//! Defaults are the paper's published parameters (§4.1): initial
//! tolerance 0.01, tolerance drop rate 10 (threshold scaling), iteration
//! cap 20, pass cap 10, aggregation tolerance 0.8, greedy refinement and
//! move-based super-vertex labeling, optimizing modularity.

use crate::objective::Objective;
pub use gve_graph::VertexOrdering;

/// Default degree cutoff for the stack-resident scan tiers. It bounds
/// two maps: kernel v3's [`gve_prim::HashScanMap`] (local-moving and
/// greedy refinement) and aggregation's linear
/// [`gve_prim::SmallScanMap`], whose compare count grows quadratically
/// with the number of distinct candidate communities. The value comes
/// from a `kernels` benchmark sweep over the linear map: thresholds 8–16
/// beat both the v1 table and a full-capacity (64) stack tier on R-MAT
/// and SBM inputs. No sweep has been run for the hash tier.
pub const DEFAULT_SMALL_DEGREE_THRESHOLD: usize = 16;

/// Which neighbourhood-scan kernel the asynchronous phases use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelVersion {
    /// Two-pass reference kernel: scan all neighbour communities into
    /// the per-thread collision-free table, then a second pass over the
    /// touched keys picks the best target. Kept as the differential
    /// oracle that v3 must match bit for bit.
    V1,
    /// The production kernel (the default): vertices with degree ≤
    /// [`LeidenConfig::small_degree_threshold`] tally neighbour
    /// communities in a stack-resident hash map that prefetches each
    /// candidate's `Σ'` on first touch, then one lane-chunked choose
    /// pass (`gve_prim::simd`) picks the target; hubs take the v1 path.
    /// Bit-identical choices to v1 on frozen state.
    #[default]
    V3,
}

impl KernelVersion {
    /// Parses a CLI/config token: `v1` or `v3`.
    pub fn parse(token: &str) -> Result<Self, String> {
        match token {
            "v1" => Ok(Self::V1),
            "v3" => Ok(Self::V3),
            other => Err(format!("unknown kernel '{other}' (expected v1|v3)")),
        }
    }

    /// Canonical token for fingerprints and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Self::V1 => "v1",
            Self::V3 => "v3",
        }
    }
}

/// How the parallel phase loops carve the vertex range into per-worker
/// claims (orthogonal to [`Scheduling`], which governs the freshness of
/// the state those workers observe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkScheduling {
    /// Fixed-size vertex chunks off one shared cursor (the original
    /// `dynamic_workers` behaviour).
    #[default]
    Static,
    /// Arc-proportional shrinking chunks (OpenMP `schedule(guided)`
    /// over arc mass): each claim takes `remaining_arcs / (2·workers)`
    /// arcs, so skewed degree distributions self-balance.
    Guided,
    /// Arc-balanced per-worker segments with steal-on-empty: a
    /// straggler chunk of hubs can be drained by idle workers.
    Stealing,
}

impl ChunkScheduling {
    /// Parses a CLI/config token: `static`, `guided` or `stealing`.
    pub fn parse(token: &str) -> Result<Self, String> {
        match token {
            "static" => Ok(Self::Static),
            "guided" => Ok(Self::Guided),
            "stealing" => Ok(Self::Stealing),
            other => Err(format!(
                "unknown chunk scheduling '{other}' (expected static|guided|stealing)"
            )),
        }
    }

    /// Canonical token for fingerprints and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Self::Static => "static",
            Self::Guided => "guided",
            Self::Stealing => "stealing",
        }
    }
}

/// How the refinement phase picks the target sub-community.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementStrategy {
    /// Pick the community with maximum delta-modularity (the paper's
    /// best-performing variant).
    Greedy,
    /// Pick proportionally to delta-modularity using xorshift32 streams,
    /// as in the original Leiden algorithm.
    Random,
}

/// How super-vertices are labeled after aggregation, i.e. which
/// partition seeds the next pass's local-moving phase (Figures 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Labeling {
    /// Super-vertices start grouped by their local-moving community —
    /// the variant recommended by Traag et al. and used by default.
    MoveBased,
    /// Super-vertices start as singletons (each refined community its
    /// own community).
    RefineBased,
}

/// How the parallel phases are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Asynchronous (the paper's design): threads observe each other's
    /// partial updates. Fast convergence; results vary run to run.
    #[default]
    Asynchronous,
    /// Color-synchronous (Grappolo-style, the paper's related work
    /// \[11\]): graph-coloring rounds with frozen state, reproducible
    /// across runs and thread counts. Slower.
    ColorSynchronous,
}

impl Scheduling {
    /// Parses a scheduling token (CLI flags, serve API).
    pub fn parse(token: &str) -> Result<Self, String> {
        match token {
            "async" => Ok(Self::Asynchronous),
            "color-sync" => Ok(Self::ColorSynchronous),
            other => Err(format!(
                "unknown scheduling '{other}' (expected async|color-sync)"
            )),
        }
    }

    /// Canonical token.
    pub fn label(self) -> &'static str {
        match self {
            Self::Asynchronous => "async",
            Self::ColorSynchronous => "color-sync",
        }
    }
}

/// How the aggregation phase combines arcs between super-vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationStrategy {
    /// Per-thread collision-free hashtables over a holey CSR — the
    /// paper's optimized design (Algorithm 4).
    #[default]
    Hashtable,
    /// Sort-reduce: materialize all community arcs, parallel-sort, and
    /// reduce runs — the alternative the paper's related work cites
    /// (Cheong et al. \[4\]). Simpler, more memory traffic.
    SortReduce,
}

/// Optimization level of the run (§4.1's default / medium / heavy
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All optimizations on.
    Default,
    /// Threshold scaling disabled.
    Medium,
    /// Threshold scaling *and* aggregation tolerance disabled.
    Heavy,
}

/// Full parameter set for a GVE-Leiden run.
#[derive(Debug, Clone)]
pub struct LeidenConfig {
    /// Maximum number of passes (local-move → refine → aggregate).
    pub max_passes: usize,
    /// Maximum local-moving iterations per pass.
    pub max_iterations: usize,
    /// Initial per-iteration convergence tolerance `τ` on the summed
    /// delta-modularity.
    pub initial_tolerance: f64,
    /// Divisor applied to `τ` after each pass when threshold scaling is
    /// enabled (`TOLERANCE_DROP`).
    pub tolerance_drop: f64,
    /// Enables threshold scaling (disabled by the medium/heavy
    /// variants).
    pub threshold_scaling: bool,
    /// Community-count shrink ratio above which further aggregation is
    /// deemed useless and the algorithm stops (`τ_agg`).
    pub aggregation_tolerance: f64,
    /// Enables the aggregation-tolerance early exit (disabled by the
    /// heavy variant).
    pub use_aggregation_tolerance: bool,
    /// Refinement strategy.
    pub refinement: RefinementStrategy,
    /// Super-vertex labeling.
    pub labeling: Labeling,
    /// Quality function to optimize (modularity by default; CPM is the
    /// resolution-limit-free alternative the paper cites in §2).
    pub objective: Objective,
    /// Enables flag-based vertex pruning in the local-moving phase
    /// (ablation toggle; the paper always runs with it on).
    pub pruning: bool,
    /// Records the per-pass dendrogram levels in the result (off by
    /// default — costs one `Vec<u32>` clone per pass).
    pub record_dendrogram: bool,
    /// Parallel scheduling discipline.
    pub scheduling: Scheduling,
    /// Aggregation-phase algorithm.
    pub aggregation: AggregationStrategy,
    /// Dynamic-schedule chunk size for the parallel loops.
    pub chunk_size: usize,
    /// Claim policy for the phase loops (static chunks, guided
    /// shrinking chunks, or work stealing over arc-balanced segments).
    pub chunking: ChunkScheduling,
    /// Seed for the randomized refinement streams.
    pub seed: u64,
    /// Neighbourhood-scan kernel for the asynchronous phases.
    pub kernel: KernelVersion,
    /// Degree cutoff for the stack-resident scan tiers (kernel v3's
    /// hash map, aggregation's linear map); must not exceed
    /// [`gve_prim::SMALL_SCAN_CAP`]. Vertices (and communities, by total
    /// degree) above it use the per-thread table. Defaults to
    /// [`DEFAULT_SMALL_DEGREE_THRESHOLD`].
    pub small_degree_threshold: usize,
    /// Cache-aware vertex relabeling applied before detection
    /// (memberships are still reported in the caller's original ids).
    pub ordering: VertexOrdering,
}

impl Default for LeidenConfig {
    fn default() -> Self {
        Self {
            max_passes: 10,
            max_iterations: 20,
            initial_tolerance: 1e-2,
            tolerance_drop: 10.0,
            threshold_scaling: true,
            aggregation_tolerance: 0.8,
            use_aggregation_tolerance: true,
            refinement: RefinementStrategy::Greedy,
            labeling: Labeling::MoveBased,
            objective: Objective::default(),
            pruning: true,
            record_dendrogram: false,
            scheduling: Scheduling::default(),
            aggregation: AggregationStrategy::default(),
            chunk_size: gve_prim::parfor::DEFAULT_CHUNK,
            chunking: ChunkScheduling::default(),
            seed: 0,
            kernel: KernelVersion::default(),
            small_degree_threshold: DEFAULT_SMALL_DEGREE_THRESHOLD,
            ordering: VertexOrdering::default(),
        }
    }
}

impl LeidenConfig {
    /// Applies one of the paper's optimization variants.
    pub fn variant(mut self, variant: Variant) -> Self {
        match variant {
            Variant::Default => {
                self.threshold_scaling = true;
                self.use_aggregation_tolerance = true;
            }
            Variant::Medium => {
                self.threshold_scaling = false;
                self.use_aggregation_tolerance = true;
            }
            Variant::Heavy => {
                self.threshold_scaling = false;
                self.use_aggregation_tolerance = false;
            }
        }
        self
    }

    /// Sets the refinement strategy.
    pub fn refinement(mut self, strategy: RefinementStrategy) -> Self {
        self.refinement = strategy;
        self
    }

    /// Sets the super-vertex labeling.
    pub fn labeling(mut self, labeling: Labeling) -> Self {
        self.labeling = labeling;
        self
    }

    /// Sets the RNG seed used by randomized refinement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the quality function to optimize.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the scheduling discipline.
    pub fn scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Sets the aggregation strategy.
    pub fn aggregation(mut self, aggregation: AggregationStrategy) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Sets the neighbourhood-scan kernel.
    pub fn kernel(mut self, kernel: KernelVersion) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the dynamic-schedule chunk size.
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Sets the claim policy for the phase loops.
    pub fn chunking(mut self, chunking: ChunkScheduling) -> Self {
        self.chunking = chunking;
        self
    }

    /// Sets the stack tiers' degree cutoff.
    pub fn small_degree_threshold(mut self, threshold: usize) -> Self {
        self.small_degree_threshold = threshold;
        self
    }

    /// Sets the cache-aware vertex ordering.
    pub fn ordering(mut self, ordering: VertexOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Degree bound under which aggregation tallies a community in the
    /// stack-resident [`gve_prim::SmallScanMap`] instead of the
    /// per-thread table (`None`: every community takes the table). The
    /// stack tier rides with kernel v3; the v1 reference keeps the
    /// paper's table-only path. Leiden and Louvain both aggregate
    /// through this.
    pub fn aggregation_small_threshold(&self) -> Option<usize> {
        (self.kernel == KernelVersion::V3).then_some(self.small_degree_threshold)
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_passes == 0 {
            return Err("max_passes must be at least 1".into());
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        if self.initial_tolerance < 0.0 {
            return Err("initial_tolerance must be nonnegative".into());
        }
        if self.tolerance_drop < 1.0 {
            return Err("tolerance_drop must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.aggregation_tolerance) {
            return Err("aggregation_tolerance must be in [0, 1]".into());
        }
        if self.chunk_size == 0 {
            return Err("chunk_size must be positive".into());
        }
        if self.small_degree_threshold == 0 {
            return Err("small_degree_threshold must be positive".into());
        }
        if self.small_degree_threshold > gve_prim::SMALL_SCAN_CAP {
            return Err(format!(
                "small_degree_threshold {} exceeds the stack map capacity {}",
                self.small_degree_threshold,
                gve_prim::SMALL_SCAN_CAP
            ));
        }
        // partial_cmp keeps NaN resolutions rejected alongside <= 0.
        if self.objective.resolution().partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("objective resolution must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = LeidenConfig::default();
        assert_eq!(c.max_passes, 10);
        assert_eq!(c.max_iterations, 20);
        assert_eq!(c.initial_tolerance, 1e-2);
        assert_eq!(c.tolerance_drop, 10.0);
        assert_eq!(c.aggregation_tolerance, 0.8);
        assert_eq!(c.refinement, RefinementStrategy::Greedy);
        assert_eq!(c.labeling, Labeling::MoveBased);
        assert!(c.threshold_scaling);
        assert!(c.use_aggregation_tolerance);
        assert!(c.pruning);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn variants_toggle_the_right_flags() {
        let medium = LeidenConfig::default().variant(Variant::Medium);
        assert!(!medium.threshold_scaling);
        assert!(medium.use_aggregation_tolerance);
        let heavy = LeidenConfig::default().variant(Variant::Heavy);
        assert!(!heavy.threshold_scaling);
        assert!(!heavy.use_aggregation_tolerance);
        let back = heavy.variant(Variant::Default);
        assert!(back.threshold_scaling && back.use_aggregation_tolerance);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let c = LeidenConfig {
            max_passes: 0,
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
        let c = LeidenConfig {
            tolerance_drop: 0.5,
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
        let c = LeidenConfig {
            aggregation_tolerance: 1.5,
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
        let c = LeidenConfig {
            chunk_size: 0,
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn objective_resolution_validated() {
        let mut c = LeidenConfig {
            objective: Objective::Cpm { resolution: 0.0 },
            ..LeidenConfig::default()
        };
        assert!(c.validate().is_err());
        c.objective = Objective::Modularity { resolution: -1.0 };
        assert!(c.validate().is_err());
        c.objective = Objective::Cpm { resolution: 0.05 };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_chain() {
        let c = LeidenConfig::default()
            .refinement(RefinementStrategy::Random)
            .labeling(Labeling::RefineBased)
            .seed(99)
            .kernel(KernelVersion::V1)
            .chunk_size(512)
            .small_degree_threshold(32)
            .ordering(VertexOrdering::DegreeDesc);
        assert_eq!(c.refinement, RefinementStrategy::Random);
        assert_eq!(c.labeling, Labeling::RefineBased);
        assert_eq!(c.seed, 99);
        assert_eq!(c.kernel, KernelVersion::V1);
        assert_eq!(c.chunk_size, 512);
        assert_eq!(c.small_degree_threshold, 32);
        assert_eq!(c.ordering, VertexOrdering::DegreeDesc);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn kernel_v3_is_the_default() {
        let c = LeidenConfig::default();
        assert_eq!(c.kernel, KernelVersion::V3);
        assert_eq!(c.small_degree_threshold, DEFAULT_SMALL_DEGREE_THRESHOLD);
        assert_eq!(c.ordering, VertexOrdering::Original);
        assert_eq!(
            c.aggregation_small_threshold(),
            Some(DEFAULT_SMALL_DEGREE_THRESHOLD)
        );
        let v1 = c.kernel(KernelVersion::V1);
        assert_eq!(v1.aggregation_small_threshold(), None);
    }

    #[test]
    fn small_degree_threshold_is_validated() {
        let c = LeidenConfig::default().small_degree_threshold(0);
        assert!(c.validate().is_err());
        let c = LeidenConfig::default().small_degree_threshold(gve_prim::SMALL_SCAN_CAP + 1);
        assert!(c.validate().unwrap_err().contains("capacity"));
        let c = LeidenConfig::default().small_degree_threshold(gve_prim::SMALL_SCAN_CAP);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn kernel_tokens_round_trip() {
        for k in [KernelVersion::V1, KernelVersion::V3] {
            assert_eq!(KernelVersion::parse(k.label()), Ok(k));
        }
        assert!(KernelVersion::parse("v2").is_err());
        assert!(KernelVersion::parse("v4").is_err());
    }

    #[test]
    fn chunk_scheduling_tokens_round_trip() {
        for s in [
            ChunkScheduling::Static,
            ChunkScheduling::Guided,
            ChunkScheduling::Stealing,
        ] {
            assert_eq!(ChunkScheduling::parse(s.label()), Ok(s));
        }
        assert!(ChunkScheduling::parse("dynamic").is_err());
        assert_eq!(LeidenConfig::default().chunking, ChunkScheduling::Static);
        let c = LeidenConfig::default().chunking(ChunkScheduling::Guided);
        assert_eq!(c.chunking, ChunkScheduling::Guided);
        assert!(c.validate().is_ok());
    }
}
