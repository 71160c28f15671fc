//! Task configuration and deterministic role/partition assignment.
//!
//! A task is described by counts (trainers, partitions, aggregators per
//! partition |A_i|, storage nodes, providers per aggregator |P_ij|),
//! feature switches (merge-and-download §III-E, verifiable aggregation
//! §IV), network characteristics, and the round schedule (t_train /
//! t_sync). [`Topology`] derives every assignment the participants need —
//! who aggregates which partition, which trainers feed which aggregator
//! (T_ij), which storage nodes serve as an aggregator's providers (P_ij),
//! and where everyone sits in the simulated network.

use dfl_netsim::{FaultPlan, LinkSpec, NodeId, SimDuration};

use crate::error::IplsError;

/// How gradients travel from trainers to aggregators — the three designs
/// Fig. 1 compares.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommMode {
    /// Original IPLS: trainers send gradients straight to their aggregator
    /// over direct links (the strong assumption §III-B relaxes).
    Direct,
    /// Indirect via storage, one blob per trainer ("naive" in Fig. 1).
    Indirect,
    /// Indirect with storage-side pre-aggregation (§III-E).
    MergeAndDownload,
}

/// Full configuration of one federated-learning task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskConfig {
    /// Number of trainers `|T|`.
    pub trainers: usize,
    /// Number of model partitions.
    pub partitions: usize,
    /// Aggregators assigned to each partition, `|A_i|`.
    pub aggregators_per_partition: usize,
    /// Number of storage (IPFS) nodes.
    pub ipfs_nodes: usize,
    /// Providers per aggregator `|P_ij|` when merge-and-download is on.
    pub providers_per_aggregator: usize,
    /// How gradients reach aggregators.
    pub comm: CommMode,
    /// Enable verifiable aggregation with Pedersen commitments (§IV).
    /// Verifiers queue the openings they receive and check each queue
    /// with one random-linear-combination MSM
    /// ([`CommitKey::batch_culprits`]) when the round is about to consume
    /// it, bisecting a failing batch back to exactly the blobs that do not
    /// open. Openings that arrive one at a time (peer partials, recovered
    /// blobs, directory audits) are checked on arrival as singleton
    /// batches, which cost one direct verification.
    ///
    /// [`CommitKey::batch_culprits`]: dfl_crypto::pedersen::CommitKey::batch_culprits
    pub verifiable: bool,
    /// Trainers register all partitions of a round in one batched message
    /// instead of one per partition — the §VI "send an accumulation over
    /// the hashes" direction that cuts the directory's query load from
    /// `partitions × trainers` to `trainers` registrations per round.
    pub compact_registration: bool,
    /// Trainers independently verify downloaded updates against the
    /// accumulated commitment instead of trusting the directory's check —
    /// §IV-B: "this can be performed by any participant (trainer or
    /// bootstrapper)". Downloaded updates are queued and checked in one
    /// batch when the last partition arrives; a culprit is dropped and
    /// refetched before the round may finish. Only meaningful with
    /// `verifiable`.
    pub trainer_verifies: bool,
    /// Require Schnorr signatures on directory registrations. Without
    /// this, a malicious party can register a forged commitment under a
    /// trainer's name and defeat the §IV verification (see
    /// `Behavior::ForgeRegistration`).
    pub authenticate: bool,
    /// Byzantine accountability: aggregators sign their partial-update
    /// announcements and global-update registrations, detectors package
    /// commitment mismatches into transferable `Misbehavior` proofs,
    /// peers blacklist proven offenders, and the directory evicts them.
    /// Requires `verifiable` (evidence is a commitment mismatch).
    pub accountability: bool,
    /// Optional early watchdog for partial-update sync: an aggregator that
    /// has not seen a peer slot's announcement this long after round start
    /// recovers that slot's trainer set from storage instead of waiting
    /// for the full `t_sync` deadline. Must not exceed `t_sync`.
    pub sync_watchdog: Option<SimDuration>,
    /// Total replicas per stored block (1 = no replication).
    pub replication: usize,
    /// Training rounds to run.
    pub rounds: u64,
    /// Link bandwidth of every participant (Mbps, symmetric — the paper
    /// gives trainers and aggregators equal bandwidth).
    pub bandwidth_mbps: u64,
    /// Link bandwidth of storage nodes; `None` shapes them like
    /// participants. The paper's mininet testbed shapes participant links
    /// explicitly, so experiments may leave infrastructure links faster.
    pub ipfs_bandwidth_mbps: Option<u64>,
    /// One-way link latency.
    pub latency: SimDuration,
    /// Directory poll interval for aggregators and trainers.
    pub poll_interval: SimDuration,
    /// Deadline for trainers to finish uploading gradients (t_train).
    pub t_train: SimDuration,
    /// Deadline for the whole round, including aggregator sync (t_sync).
    pub t_sync: SimDuration,
    /// Simulated wall-clock cost of local training per round.
    pub train_compute: SimDuration,
    /// Storage nodes (by index) that silently discard stored data —
    /// availability-failure injection for the §VI replication experiments.
    pub lossy_ipfs_nodes: Vec<usize>,
    /// Clock-driven fault schedule (crashes, recoveries, data loss, link
    /// degradation) applied to the simulation before it runs. Node ids
    /// refer to the task's simulated layout
    /// (`directory | ipfs | aggregators | trainers`).
    pub fault_plan: FaultPlan,
    /// Minimum number of trainers (globally) whose gradients must be in
    /// before the t_sync deadline lets the round complete without the
    /// rest. `None` keeps the strict behavior: a round waits for every
    /// trainer, so one crashed trainer stalls it. Composes with
    /// `verifiable`: degraded partials carry their contributor set and are
    /// verified against the product of the surviving members' individual
    /// commitments instead of the full accumulated commitment.
    pub min_quorum: Option<usize>,
    /// Base timeout for storage-layer retrievals before the client gateway
    /// retries and then fails over to another provider. Must comfortably
    /// exceed the worst-case transfer time under contention, or healthy
    /// slow fetches get duplicated.
    pub fetch_timeout: SimDuration,
    /// Virtual cost of committing, microseconds per vector element
    /// (0 = commitments are free in simulated time; the real group
    /// operations still run when `verifiable` is set).
    pub commit_us_per_element: u64,
    /// Build the commitment key's fixed-base MSM precomputation table at
    /// task start (one-time cost ≈ one scalar multiplication per
    /// generator), so every commit and verification in the run takes the
    /// table fast path. Results are bit-identical either way; only
    /// real-world wall-clock changes. Only meaningful with `verifiable`.
    pub commit_precompute: bool,
    /// Multi-level aggregation overlay (Handel-style): `Some(b)` arranges
    /// each trainer set into a deterministic `b`-ary tree seeded from
    /// `seed`. Leaves send their gradient one hop up; every interior
    /// trainer verifies its children's Pedersen openings, composes the
    /// commitments homomorphically, signs its level partial, and forwards
    /// one blob upward, so per-node fan-in is bounded by `b` at every
    /// level and the aggregator receives a single root partial per round.
    /// The final model is disseminated back down the same tree. `None`
    /// (default) keeps flat aggregation — the trace-fingerprint oracle the
    /// overlay is checked against. Requires `verifiable` (interior
    /// verification is a commitment check) and a single aggregator per
    /// partition (partial sync across slots stays flat-mode-only).
    pub overlay_branching: Option<usize>,
    /// Store gradient blobs as content-addressed chunk DAGs instead of one
    /// opaque block per partition: uploads ship a manifest first and only
    /// the chunks the provider does not already hold (cross-round dedup),
    /// downloads stripe chunk requests across all storage nodes with
    /// per-chunk retry/failover, and every chunk is re-hashed against its
    /// CID before reassembly. Off by default — the blob path is the
    /// trace-fingerprint oracle. Incompatible with
    /// [`CommMode::MergeAndDownload`] (the merge RPC pre-aggregates raw
    /// blobs server-side and would sum manifest bytes).
    pub chunked_storage: bool,
    /// Chunk payload size in bytes when `chunked_storage` is on. Must be
    /// at least [`dfl_ipfs::chunker::MIN_CHUNK_SIZE`]; blobs that are not
    /// a multiple carry a short final chunk.
    pub chunk_size: usize,
    /// Master seed for all task randomness.
    pub seed: u64,
    /// Run the network simulation under the reference global max–min
    /// allocator instead of the incremental component-scoped one. Both are
    /// bit-identical in output (the equivalence suite proves it); the
    /// reference path exists as the oracle those tests compare against and
    /// is far slower at scale.
    pub reference_allocator: bool,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            trainers: 4,
            partitions: 2,
            aggregators_per_partition: 1,
            ipfs_nodes: 4,
            providers_per_aggregator: 2,
            comm: CommMode::Indirect,
            verifiable: false,
            trainer_verifies: false,
            compact_registration: false,
            authenticate: false,
            accountability: false,
            sync_watchdog: None,
            replication: 1,
            rounds: 1,
            bandwidth_mbps: 10,
            ipfs_bandwidth_mbps: None,
            latency: SimDuration::from_millis(10),
            poll_interval: SimDuration::from_millis(100),
            t_train: SimDuration::from_secs(600),
            t_sync: SimDuration::from_secs(1200),
            train_compute: SimDuration::ZERO,
            lossy_ipfs_nodes: Vec::new(),
            fault_plan: FaultPlan::new(),
            min_quorum: None,
            fetch_timeout: SimDuration::from_secs(30),
            commit_us_per_element: 0,
            commit_precompute: true,
            overlay_branching: None,
            chunked_storage: false,
            chunk_size: dfl_ipfs::chunker::DEFAULT_CHUNK_SIZE,
            seed: 0,
            reference_allocator: false,
        }
    }
}

impl TaskConfig {
    /// Starts a [`TaskConfigBuilder`] from the default configuration.
    /// [`TaskConfigBuilder::build`] validates, so an inconsistent
    /// configuration is caught at construction instead of deep inside
    /// [`Topology::new`] or the runner:
    ///
    /// ```
    /// use ipls::config::{CommMode, TaskConfig};
    ///
    /// let cfg = TaskConfig::builder()
    ///     .trainers(16)
    ///     .partitions(4)
    ///     .comm(CommMode::MergeAndDownload)
    ///     .verifiable(true)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.trainers, 16);
    ///
    /// // Contradictory settings fail at build time.
    /// assert!(TaskConfig::builder()
    ///     .accountability(true) // evidence needs commitments
    ///     .verifiable(false)
    ///     .build()
    ///     .is_err());
    /// ```
    pub fn builder() -> TaskConfigBuilder {
        TaskConfigBuilder {
            cfg: TaskConfig::default(),
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`IplsError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), IplsError> {
        let err = |msg: &str| Err(IplsError::InvalidConfig(msg.to_string()));
        if self.trainers == 0 {
            return err("at least one trainer required");
        }
        if self.partitions == 0 {
            return err("at least one partition required");
        }
        if self.aggregators_per_partition == 0 {
            return err("at least one aggregator per partition required");
        }
        if self.ipfs_nodes == 0 {
            return err("at least one storage node required");
        }
        if self.comm == CommMode::MergeAndDownload
            && !(1..=self.ipfs_nodes).contains(&self.providers_per_aggregator)
        {
            return err("providers per aggregator must be in 1..=ipfs_nodes");
        }
        if !(1..=self.ipfs_nodes).contains(&self.replication) {
            return err("replication must be in 1..=ipfs_nodes");
        }
        if self.rounds == 0 {
            return err("at least one round required");
        }
        if self.bandwidth_mbps == 0 {
            return err("bandwidth must be positive");
        }
        if self.t_train > self.t_sync {
            return err("t_train must not exceed t_sync");
        }
        if self.lossy_ipfs_nodes.iter().any(|&k| k >= self.ipfs_nodes) {
            return err("lossy node index out of range");
        }
        if self.trainer_verifies && !self.verifiable {
            return err("trainer verification requires verifiable mode");
        }
        if let Some(q) = self.min_quorum {
            if !(1..=self.trainers).contains(&q) {
                return err("min_quorum must be in 1..=trainers");
            }
        }
        if self.accountability && !self.verifiable {
            return err("accountability requires verifiable mode \
                 (misbehavior evidence is a commitment mismatch)");
        }
        if let Some(w) = self.sync_watchdog {
            if w <= SimDuration::ZERO {
                return err("sync_watchdog must be positive");
            }
            if w > self.t_sync {
                return err("sync_watchdog must not exceed t_sync");
            }
        }
        if self.fetch_timeout <= SimDuration::ZERO {
            return err("fetch_timeout must be positive");
        }
        if self.chunked_storage {
            if self.chunk_size < dfl_ipfs::chunker::MIN_CHUNK_SIZE {
                return err("chunk_size is below the minimum chunk size");
            }
            if self.comm == CommMode::MergeAndDownload {
                return err("chunked_storage is incompatible with merge-and-download \
                     (the merge RPC pre-aggregates raw blobs and would sum manifest bytes)");
            }
        }
        if let Some(b) = self.overlay_branching {
            if b < 2 {
                return err("overlay_branching must be at least 2");
            }
            if !self.verifiable {
                return err("overlay aggregation requires verifiable mode \
                     (interior nodes verify child partials against commitments)");
            }
            if self.aggregators_per_partition != 1 {
                return err(
                    "overlay aggregation requires a single aggregator per partition \
                     (cross-slot partial sync is flat-mode-only)",
                );
            }
            if self.trainer_verifies {
                return err(
                    "overlay aggregation replaces trainer-side update verification \
                     (no directory accumulator exists; each hop verifies child openings \
                     and the aggregator signs the pushed update)",
                );
            }
        }
        Ok(())
    }

    /// Total number of aggregators in the task.
    pub fn total_aggregators(&self) -> usize {
        self.partitions * self.aggregators_per_partition
    }

    /// The access link every participant sits behind.
    pub fn link(&self) -> LinkSpec {
        LinkSpec::symmetric_mbps(self.bandwidth_mbps, self.latency)
    }

    /// The access link storage nodes sit behind.
    pub fn ipfs_link(&self) -> LinkSpec {
        LinkSpec::symmetric_mbps(
            self.ipfs_bandwidth_mbps.unwrap_or(self.bandwidth_mbps),
            self.latency,
        )
    }
}

macro_rules! builder_setters {
    ($($name:ident: $ty:ty),* $(,)?) => {
        $(
            #[doc = concat!("Sets [`TaskConfig::", stringify!($name), "`].")]
            pub fn $name(mut self, value: $ty) -> Self {
                self.cfg.$name = value;
                self
            }
        )*
    };
}

/// Builder for [`TaskConfig`] that validates on [`TaskConfigBuilder::build`].
///
/// Starts from [`TaskConfig::default`]; every field has a same-named
/// setter. Construct via [`TaskConfig::builder`].
#[derive(Clone, Debug)]
pub struct TaskConfigBuilder {
    cfg: TaskConfig,
}

impl TaskConfigBuilder {
    builder_setters! {
        trainers: usize,
        partitions: usize,
        aggregators_per_partition: usize,
        ipfs_nodes: usize,
        providers_per_aggregator: usize,
        comm: CommMode,
        verifiable: bool,
        compact_registration: bool,
        trainer_verifies: bool,
        authenticate: bool,
        accountability: bool,
        sync_watchdog: Option<SimDuration>,
        replication: usize,
        rounds: u64,
        bandwidth_mbps: u64,
        ipfs_bandwidth_mbps: Option<u64>,
        latency: SimDuration,
        poll_interval: SimDuration,
        t_train: SimDuration,
        t_sync: SimDuration,
        train_compute: SimDuration,
        lossy_ipfs_nodes: Vec<usize>,
        fault_plan: FaultPlan,
        min_quorum: Option<usize>,
        fetch_timeout: SimDuration,
        commit_us_per_element: u64,
        commit_precompute: bool,
        overlay_branching: Option<usize>,
        chunked_storage: bool,
        chunk_size: usize,
        seed: u64,
        reference_allocator: bool,
    }

    /// Validates the assembled configuration and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`IplsError::InvalidConfig`] (from
    /// [`TaskConfig::validate`]) describing the first violated constraint.
    pub fn build(self) -> Result<TaskConfig, IplsError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Node placement and assignment rules derived from a [`TaskConfig`].
///
/// Simulation node layout: `directory | ipfs nodes | aggregators | trainers`.
#[derive(Clone, Debug)]
pub struct Topology {
    cfg: TaskConfig,
    /// Half-open element ranges of each partition within the flat
    /// parameter vector.
    partition_ranges: Vec<(usize, usize)>,
}

impl Topology {
    /// Builds a topology for a model with `param_count` parameters.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures, and rejects models
    /// with fewer parameters than partitions.
    pub fn new(cfg: TaskConfig, param_count: usize) -> Result<Topology, IplsError> {
        cfg.validate()?;
        if param_count < cfg.partitions {
            return Err(IplsError::InvalidConfig(format!(
                "model has {param_count} parameters but {} partitions requested",
                cfg.partitions
            )));
        }
        let base = param_count / cfg.partitions;
        let extra = param_count % cfg.partitions;
        let mut ranges = Vec::with_capacity(cfg.partitions);
        let mut start = 0;
        for i in 0..cfg.partitions {
            let len = base + usize::from(i < extra);
            ranges.push((start, start + len));
            start += len;
        }
        Ok(Topology {
            cfg,
            partition_ranges: ranges,
        })
    }

    /// The underlying configuration.
    pub fn config(&self) -> &TaskConfig {
        &self.cfg
    }

    /// Total number of model parameters.
    pub fn param_count(&self) -> usize {
        self.partition_ranges.last().map_or(0, |&(_, end)| end)
    }

    /// Element range `[start, end)` of partition `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn partition_range(&self, i: usize) -> (usize, usize) {
        self.partition_ranges[i]
    }

    /// Number of elements in partition `i`.
    pub fn partition_len(&self, i: usize) -> usize {
        let (s, e) = self.partition_range(i);
        e - s
    }

    /// Largest partition length (sizes the commitment key).
    pub fn max_partition_len(&self) -> usize {
        (0..self.cfg.partitions)
            .map(|i| self.partition_len(i))
            .max()
            .unwrap_or(0)
    }

    // -- simulation node ids ------------------------------------------------

    /// Total simulated nodes.
    pub fn node_count(&self) -> usize {
        1 + self.cfg.ipfs_nodes + self.cfg.total_aggregators() + self.cfg.trainers
    }

    /// The directory-service node (also the bootstrapper).
    pub fn directory(&self) -> NodeId {
        NodeId(0)
    }

    /// The `k`-th storage node.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn ipfs_node(&self, k: usize) -> NodeId {
        assert!(k < self.cfg.ipfs_nodes, "storage node {k} out of range");
        NodeId(1 + k)
    }

    /// All storage node ids.
    pub fn ipfs_ids(&self) -> Vec<NodeId> {
        (0..self.cfg.ipfs_nodes)
            .map(|k| self.ipfs_node(k))
            .collect()
    }

    /// The aggregator with global index `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn aggregator(&self, g: usize) -> NodeId {
        assert!(
            g < self.cfg.total_aggregators(),
            "aggregator {g} out of range"
        );
        NodeId(1 + self.cfg.ipfs_nodes + g)
    }

    /// The `t`-th trainer.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn trainer(&self, t: usize) -> NodeId {
        assert!(t < self.cfg.trainers, "trainer {t} out of range");
        NodeId(1 + self.cfg.ipfs_nodes + self.cfg.total_aggregators() + t)
    }

    // -- role assignment ----------------------------------------------------

    /// Global aggregator index of the `j`-th aggregator of partition `i`.
    pub fn agg_index(&self, partition: usize, j: usize) -> usize {
        assert!(j < self.cfg.aggregators_per_partition);
        partition * self.cfg.aggregators_per_partition + j
    }

    /// `(partition, j)` of a global aggregator index.
    pub fn agg_role(&self, g: usize) -> (usize, usize) {
        (
            g / self.cfg.aggregators_per_partition,
            g % self.cfg.aggregators_per_partition,
        )
    }

    /// Which aggregator (index `j` within `A_i`) trainer `t` sends partition
    /// `i` to. Trainers are spread round-robin so the `T_ij` sets partition
    /// `T` evenly and disjointly (the §II invariants).
    pub fn agg_for_trainer(&self, _partition: usize, t: usize) -> usize {
        t % self.cfg.aggregators_per_partition
    }

    /// The trainer set `T_ij` feeding aggregator `j` of any partition.
    pub fn trainer_set(&self, _partition: usize, j: usize) -> Vec<usize> {
        (0..self.cfg.trainers)
            .filter(|t| t % self.cfg.aggregators_per_partition == j)
            .collect()
    }

    /// The provider set `P_ij` (storage nodes) of the aggregator with
    /// global index `g`; also that aggregator's gateway nodes. When
    /// merge-and-download is off the provider set is a single round-robin
    /// gateway.
    pub fn providers(&self, g: usize) -> Vec<NodeId> {
        if self.cfg.comm == CommMode::MergeAndDownload {
            (0..self.cfg.providers_per_aggregator)
                .map(|k| {
                    self.ipfs_node(
                        (g * self.cfg.providers_per_aggregator + k) % self.cfg.ipfs_nodes,
                    )
                })
                .collect()
        } else {
            vec![self.ipfs_node(g % self.cfg.ipfs_nodes)]
        }
    }

    /// The storage node trainer `t` must upload its partition-`i` gradient
    /// to. Under merge-and-download this is one of its aggregator's
    /// providers, chosen round-robin by the trainer's rank within `T_ij`;
    /// otherwise it is the trainer's own gateway.
    ///
    /// # Errors
    ///
    /// Returns [`IplsError::NoStorageRoute`] in [`CommMode::Direct`],
    /// where gradients never touch storage.
    pub fn upload_target(&self, partition: usize, t: usize) -> Result<NodeId, IplsError> {
        match self.cfg.comm {
            CommMode::Direct => Err(IplsError::NoStorageRoute {
                partition,
                trainer: t,
            }),
            CommMode::Indirect => Ok(self.trainer_gateway(t)),
            CommMode::MergeAndDownload => {
                let j = self.agg_for_trainer(partition, t);
                let g = self.agg_index(partition, j);
                let providers = self.providers(g);
                let rank = t / self.cfg.aggregators_per_partition;
                Ok(providers[rank % providers.len()])
            }
        }
    }

    /// The gateway storage node a trainer uses for downloads.
    pub fn trainer_gateway(&self, t: usize) -> NodeId {
        self.ipfs_node(t % self.cfg.ipfs_nodes)
    }

    /// The gateway storage node an aggregator uses (its first provider).
    pub fn aggregator_gateway(&self, g: usize) -> NodeId {
        self.providers(g)[0]
    }

    /// The pub/sub topic aggregators of partition `i` synchronize on.
    pub fn sync_topic(&self, partition: usize) -> String {
        format!("ipls/sync/{partition}")
    }

    /// The multi-level aggregation tree, when `overlay_branching` is
    /// configured. Topology-owned so every backend derives the identical
    /// levels from the shared `TaskConfig`; the tree is a pure function of
    /// `(trainers, branching, seed)` and costs O(1) to build, so each call
    /// may construct it afresh.
    pub fn overlay(&self) -> Option<crate::overlay::OverlayTree> {
        self.cfg
            .overlay_branching
            .map(|b| crate::overlay::OverlayTree::new(self.cfg.trainers, b, self.cfg.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg_16_trainers() -> TaskConfig {
        TaskConfig {
            trainers: 16,
            partitions: 4,
            aggregators_per_partition: 2,
            ipfs_nodes: 8,
            providers_per_aggregator: 4,
            comm: CommMode::MergeAndDownload,
            ..TaskConfig::default()
        }
    }

    #[test]
    fn default_config_is_valid() {
        TaskConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(
            TaskConfig::builder().build().unwrap(),
            TaskConfig::default()
        );
    }

    #[test]
    fn builder_sets_every_touched_field() {
        let cfg = TaskConfig::builder()
            .trainers(16)
            .partitions(4)
            .aggregators_per_partition(2)
            .ipfs_nodes(8)
            .providers_per_aggregator(4)
            .comm(CommMode::MergeAndDownload)
            .verifiable(true)
            .trainer_verifies(true)
            .authenticate(true)
            .replication(2)
            .rounds(3)
            .commit_precompute(false)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(cfg.trainers, 16);
        assert_eq!(cfg.comm, CommMode::MergeAndDownload);
        assert!(cfg.verifiable && cfg.trainer_verifies && cfg.authenticate);
        assert!(!cfg.commit_precompute);
        assert_eq!(cfg.seed, 42);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.poll_interval, TaskConfig::default().poll_interval);
    }

    #[test]
    fn min_quorum_composes_with_verifiable() {
        // The restriction lifted by the accountability subsystem: degraded
        // quorums now verify against per-member commitments.
        let cfg = TaskConfig::builder()
            .verifiable(true)
            .min_quorum(Some(2))
            .build()
            .unwrap();
        assert!(cfg.verifiable && cfg.min_quorum == Some(2));
    }

    #[test]
    fn chunked_storage_validation() {
        // Default-off keeps any chunk_size acceptable.
        assert!(TaskConfig::builder().chunk_size(1).build().is_ok());
        // Enabled: chunk_size must clear the floor.
        assert!(TaskConfig::builder()
            .chunked_storage(true)
            .chunk_size(dfl_ipfs::chunker::MIN_CHUNK_SIZE - 1)
            .build()
            .is_err());
        assert!(TaskConfig::builder()
            .chunked_storage(true)
            .chunk_size(dfl_ipfs::chunker::MIN_CHUNK_SIZE)
            .build()
            .is_ok());
        // Merge-and-download pre-aggregates raw blobs server-side, which
        // chunked manifests would corrupt.
        assert!(TaskConfig::builder()
            .chunked_storage(true)
            .comm(CommMode::MergeAndDownload)
            .build()
            .is_err());
        // Direct mode never touches storage for gradients, but the flag
        // still validates (the global model path can use it).
        assert!(TaskConfig::builder()
            .chunked_storage(true)
            .comm(CommMode::Direct)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_invalid_at_build() {
        let err = TaskConfig::builder().trainers(0).build().unwrap_err();
        assert!(err.to_string().contains("trainer"));
        let err = TaskConfig::builder()
            .accountability(true)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("accountability"));
        let err = TaskConfig::builder()
            .sync_watchdog(Some(SimDuration::from_secs(100_000)))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("sync_watchdog"));
        let err = TaskConfig::builder()
            .t_train(SimDuration::from_secs(10))
            .t_sync(SimDuration::from_secs(5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("t_train"));
    }

    #[test]
    fn validation_catches_bad_configs() {
        for (mutate, expect) in [
            (
                Box::new(|c: &mut TaskConfig| c.trainers = 0) as Box<dyn Fn(&mut TaskConfig)>,
                "trainer",
            ),
            (Box::new(|c| c.partitions = 0), "partition"),
            (Box::new(|c| c.ipfs_nodes = 0), "storage"),
            (Box::new(|c| c.replication = 9), "replication"),
            (
                Box::new(|c| {
                    c.comm = CommMode::MergeAndDownload;
                    c.providers_per_aggregator = 100;
                }),
                "providers",
            ),
            (Box::new(|c| c.rounds = 0), "round"),
            (
                Box::new(|c| {
                    c.t_train = SimDuration::from_secs(10);
                    c.t_sync = SimDuration::from_secs(5);
                }),
                "t_train",
            ),
        ] {
            let mut cfg = cfg_16_trainers();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains(expect),
                "{err} should mention {expect}"
            );
        }
    }

    #[test]
    fn partition_ranges_cover_model() {
        let topo = Topology::new(cfg_16_trainers(), 103).unwrap();
        let mut covered = 0;
        for i in 0..4 {
            let (s, e) = topo.partition_range(i);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, 103);
        assert_eq!(topo.param_count(), 103);
        // Uneven split: first 3 partitions get the remainder.
        assert_eq!(topo.partition_len(0), 26);
        assert_eq!(topo.partition_len(3), 25);
        assert_eq!(topo.max_partition_len(), 26);
    }

    #[test]
    fn node_ids_are_disjoint_and_complete() {
        let topo = Topology::new(cfg_16_trainers(), 100).unwrap();
        let mut seen = HashSet::new();
        seen.insert(topo.directory());
        for k in 0..8 {
            seen.insert(topo.ipfs_node(k));
        }
        for g in 0..topo.config().total_aggregators() {
            seen.insert(topo.aggregator(g));
        }
        for t in 0..16 {
            seen.insert(topo.trainer(t));
        }
        assert_eq!(seen.len(), topo.node_count());
        assert_eq!(topo.node_count(), 1 + 8 + 8 + 16);
    }

    #[test]
    fn trainer_sets_partition_trainers() {
        // §II invariants: T = ∪ T_ij and T_ij disjoint, for every partition.
        let topo = Topology::new(cfg_16_trainers(), 100).unwrap();
        for partition in 0..4 {
            let mut all = HashSet::new();
            for j in 0..2 {
                for t in topo.trainer_set(partition, j) {
                    assert!(all.insert(t), "trainer {t} assigned twice");
                    assert_eq!(topo.agg_for_trainer(partition, t), j);
                }
            }
            assert_eq!(all.len(), 16);
        }
    }

    #[test]
    fn agg_index_round_trips() {
        let topo = Topology::new(cfg_16_trainers(), 100).unwrap();
        for g in 0..topo.config().total_aggregators() {
            let (partition, j) = topo.agg_role(g);
            assert_eq!(topo.agg_index(partition, j), g);
        }
    }

    #[test]
    fn providers_have_requested_size() {
        let topo = Topology::new(cfg_16_trainers(), 100).unwrap();
        for g in 0..topo.config().total_aggregators() {
            assert_eq!(topo.providers(g).len(), 4);
        }
        // Without merge-and-download: one gateway.
        let mut cfg = cfg_16_trainers();
        cfg.comm = CommMode::Indirect;
        let topo = Topology::new(cfg, 100).unwrap();
        assert_eq!(topo.providers(0).len(), 1);
    }

    #[test]
    fn upload_targets_are_providers() {
        let topo = Topology::new(cfg_16_trainers(), 100).unwrap();
        for partition in 0..4 {
            for t in 0..16 {
                let target = topo.upload_target(partition, t).unwrap();
                let j = topo.agg_for_trainer(partition, t);
                let providers = topo.providers(topo.agg_index(partition, j));
                assert!(providers.contains(&target));
            }
        }
    }

    #[test]
    fn upload_targets_spread_across_providers() {
        // With 16 trainers, 1 aggregator per partition, 4 providers:
        // each provider receives uploads from exactly 4 trainers.
        let mut cfg = cfg_16_trainers();
        cfg.aggregators_per_partition = 1;
        let topo = Topology::new(cfg, 100).unwrap();
        let mut counts: std::collections::HashMap<NodeId, usize> = Default::default();
        for t in 0..16 {
            *counts.entry(topo.upload_target(0, t).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 4);
        assert!(counts.values().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn direct_mode_upload_target_is_typed_error() {
        // Regression: this used to panic instead of returning an error.
        let mut cfg = cfg_16_trainers();
        cfg.comm = CommMode::Direct;
        let topo = Topology::new(cfg, 100).unwrap();
        assert_eq!(
            topo.upload_target(1, 5),
            Err(IplsError::NoStorageRoute {
                partition: 1,
                trainer: 5,
            })
        );
    }

    #[test]
    fn overlay_knob_is_validated() {
        // Overlay without verifiable mode: rejected.
        let err = TaskConfig::builder()
            .overlay_branching(Some(4))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("verifiable"));
        // Degenerate branching: rejected.
        let err = TaskConfig::builder()
            .verifiable(true)
            .overlay_branching(Some(1))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least 2"));
        // Multiple aggregator slots: rejected.
        let err = TaskConfig::builder()
            .verifiable(true)
            .aggregators_per_partition(2)
            .overlay_branching(Some(4))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("single aggregator"));
        // The valid shape builds, and the topology exposes the tree.
        let cfg = TaskConfig::builder()
            .trainers(16)
            .verifiable(true)
            .overlay_branching(Some(4))
            .build()
            .unwrap();
        let topo = Topology::new(cfg, 16).unwrap();
        let tree = topo.overlay().unwrap();
        assert_eq!(tree.len(), 16);
        // Flat default: no tree.
        let topo = Topology::new(TaskConfig::default(), 16).unwrap();
        assert!(topo.overlay().is_none());
    }

    #[test]
    fn model_smaller_than_partitions_rejected() {
        let err = Topology::new(cfg_16_trainers(), 2).unwrap_err();
        assert!(err.to_string().contains("partitions"));
    }
}
