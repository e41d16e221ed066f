//! Per-node state: resource accounting, shared CPU/IO pools, the
//! opportunistic-container queue, and the localization cache.

use std::collections::{HashMap, HashSet, VecDeque};

use logmodel::{ApplicationId, ContainerId, NodeId};
use simkit::PsResource;

use crate::config::{ClusterConfig, ResourceCalculator, ResourceReq};

/// One worker node (NodeManager host).
#[derive(Debug)]
pub struct Node {
    /// Identity.
    pub id: NodeId,
    /// False once the NM is lost (heartbeat expiry, fault injection): the
    /// node stops heartbeating and the schedulers skip it.
    pub alive: bool,
    /// Shared CPU pool: capacity = vcores (cpu-ms of work per wall ms).
    pub cpu: PsResource,
    /// Shared IO channel (disk + NIC folded, see DESIGN.md).
    pub io: PsResource,
    total_vcores: u32,
    total_mem_mb: u64,
    used_vcores: u32,
    used_mem_mb: u64,
    calculator: ResourceCalculator,
    /// §V-B optimization: dedicated localization channel (storage
    /// class), isolated from the main IO channel.
    pub local_store: Option<PsResource>,
    /// Cache entries are keyed per application (YARN APPLICATION
    /// visibility) unless the public-cache optimization is on.
    public_cache: bool,
    /// Opportunistic containers localized but waiting for capacity
    /// (paper Fig. 7-(b)'s queueing delay happens here).
    pub opp_queue: VecDeque<ContainerId>,
    /// Localized resources: `(app, resource name)` — YARN APPLICATION
    /// visibility, so the cache never crosses applications.
    cache: HashSet<(ApplicationId, String)>,
    /// Resources currently downloading, with containers waiting on them.
    inflight: HashMap<(ApplicationId, String), Vec<ContainerId>>,
}

impl Node {
    /// A node shaped by `cfg`.
    pub fn new(id: NodeId, cfg: &ClusterConfig) -> Node {
        Node {
            id,
            alive: true,
            cpu: PsResource::new(cfg.vcores_per_node as f64),
            io: PsResource::new(cfg.io_capacity_mb_per_ms),
            total_vcores: cfg.vcores_per_node,
            total_mem_mb: cfg.mem_mb_per_node,
            used_vcores: 0,
            used_mem_mb: 0,
            calculator: cfg.resource_calculator,
            local_store: cfg.localization_store_mb_per_ms.map(PsResource::new),
            public_cache: cfg.public_localization_cache,
            opp_queue: VecDeque::new(),
            cache: HashSet::new(),
            inflight: HashMap::new(),
        }
    }

    /// Whether `req` fits in the currently free resources, under the
    /// configured resource calculator.
    pub(crate) fn fits(&self, req: ResourceReq) -> bool {
        let mem_ok = self.used_mem_mb + req.mem_mb <= self.total_mem_mb;
        match self.calculator {
            ResourceCalculator::MemoryOnly => mem_ok,
            ResourceCalculator::Dominant => {
                mem_ok && self.used_vcores + req.vcores <= self.total_vcores
            }
        }
    }

    /// Reserve resources for a container. Panics when it does not fit —
    /// callers must check [`Node::fits`] first; the scheduler never
    /// oversubscribes guaranteed capacity.
    pub fn reserve(&mut self, req: ResourceReq) {
        assert!(self.fits(req), "node {} oversubscribed", self.id);
        self.used_vcores += req.vcores;
        self.used_mem_mb += req.mem_mb;
    }

    /// Release resources held by a container.
    pub fn release(&mut self, req: ResourceReq) {
        debug_assert!(self.used_vcores >= req.vcores && self.used_mem_mb >= req.mem_mb);
        self.used_vcores = self.used_vcores.saturating_sub(req.vcores);
        self.used_mem_mb = self.used_mem_mb.saturating_sub(req.mem_mb);
    }

    /// Currently used vcores.
    pub(crate) fn used_vcores(&self) -> u32 {
        self.used_vcores
    }

    /// Total vcores.
    #[cfg(test)]
    pub(crate) fn total_vcores(&self) -> u32 {
        self.total_vcores
    }

    /// Cache key: with the public-cache optimization, entries are shared
    /// across applications (keyed under a sentinel id) and survive app
    /// completion — the paper's proposed caching service.
    fn cache_app(&self, app: ApplicationId) -> ApplicationId {
        if self.public_cache {
            ApplicationId::new(0, 0)
        } else {
            app
        }
    }

    /// Whether `(app, name)` is already localized here.
    pub(crate) fn is_cached(&self, app: ApplicationId, name: &str) -> bool {
        self.cache
            .contains(&(self.cache_app(app), name.to_string()))
    }

    /// Record `(app, name)` as localized.
    pub(crate) fn cache_insert(&mut self, app: ApplicationId, name: &str) {
        let key = (self.cache_app(app), name.to_string());
        self.cache.insert(key);
    }

    /// Is a download of `(app, name)` already in flight?
    pub(crate) fn inflight_contains(&self, app: ApplicationId, name: &str) -> bool {
        self.inflight
            .contains_key(&(self.cache_app(app), name.to_string()))
    }

    /// Start tracking an in-flight download owned by `owner`.
    pub(crate) fn inflight_start(&mut self, app: ApplicationId, name: &str, owner: ContainerId) {
        let key = (self.cache_app(app), name.to_string());
        let prev = self.inflight.insert(key, vec![owner]);
        debug_assert!(prev.is_none(), "duplicate in-flight download");
    }

    /// Add a waiter to an in-flight download. If the download is not in
    /// flight (e.g. it completed on the same tick) the waiter simply is
    /// not blocked, so this degrades to a no-op.
    pub(crate) fn inflight_wait(&mut self, app: ApplicationId, name: &str, waiter: ContainerId) {
        let key = (self.cache_app(app), name.to_string());
        if let Some(waiters) = self.inflight.get_mut(&key) {
            waiters.push(waiter);
        } else {
            debug_assert!(false, "no such in-flight download");
        }
    }

    /// Complete an in-flight download: caches the resource and returns all
    /// containers (owner + waiters) that were blocked on it.
    pub(crate) fn inflight_finish(&mut self, app: ApplicationId, name: &str) -> Vec<ContainerId> {
        self.cache_insert(app, name);
        let key = (self.cache_app(app), name.to_string());
        self.inflight.remove(&key).unwrap_or_default()
    }

    /// Drop cache/in-flight entries of a finished application. Public
    /// cache entries outlive applications by design.
    pub(crate) fn forget_app(&mut self, app: ApplicationId) {
        if self.public_cache {
            return;
        }
        self.cache.retain(|(a, _)| *a != app);
        self.inflight.retain(|(a, _), _| *a != app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        // Tests below exercise vcore enforcement, so pin the dominant
        // calculator (the cluster default is memory-only).
        let cfg = ClusterConfig {
            resource_calculator: ResourceCalculator::Dominant,
            ..ClusterConfig::default()
        };
        Node::new(NodeId(3), &cfg)
    }

    const EXEC: ResourceReq = ResourceReq::SPARK_EXECUTOR;

    #[test]
    fn reserve_release_roundtrip() {
        let mut n = node();
        assert!(n.fits(EXEC));
        n.reserve(EXEC);
        assert_eq!(n.used_vcores(), 8);
        n.release(EXEC);
        assert_eq!(n.used_vcores(), 0);
    }

    #[test]
    fn fits_respects_both_dimensions() {
        let mut n = node();
        // Fill vcores: 32 / 8 = 4 executors.
        for _ in 0..4 {
            assert!(n.fits(EXEC));
            n.reserve(EXEC);
        }
        assert!(!n.fits(EXEC));
        assert_eq!(n.used_vcores(), n.total_vcores());
        // Memory-bound request.
        let big = ResourceReq {
            mem_mb: 200 * 1024,
            vcores: 0,
        };
        assert!(!n.fits(big));
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn reserve_past_capacity_panics() {
        let mut n = node();
        for _ in 0..5 {
            n.reserve(EXEC);
        }
    }

    #[test]
    fn localization_cache_per_app() {
        let mut n = node();
        let a = ApplicationId::new(1, 1);
        let b = ApplicationId::new(1, 2);
        assert!(!n.is_cached(a, "spark.jar"));
        n.cache_insert(a, "spark.jar");
        assert!(n.is_cached(a, "spark.jar"));
        assert!(!n.is_cached(b, "spark.jar"), "cache must not cross apps");
        n.forget_app(a);
        assert!(!n.is_cached(a, "spark.jar"));
    }

    #[test]
    fn inflight_tracks_waiters() {
        let mut n = node();
        let a = ApplicationId::new(1, 1);
        let c1 = a.attempt(1).container(2);
        let c2 = a.attempt(1).container(3);
        assert!(!n.inflight_contains(a, "app.jar"));
        n.inflight_start(a, "app.jar", c1);
        assert!(n.inflight_contains(a, "app.jar"));
        n.inflight_wait(a, "app.jar", c2);
        let woken = n.inflight_finish(a, "app.jar");
        assert_eq!(woken, vec![c1, c2]);
        assert!(n.is_cached(a, "app.jar"));
        assert!(!n.inflight_contains(a, "app.jar"));
    }
}
