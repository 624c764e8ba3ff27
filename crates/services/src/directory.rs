//! The unified, transport-agnostic service directory (§5.1, Fig. 1).
//!
//! Earlier PRs grew three overlapping surfaces for "what services exist
//! and how do I call them": the [`DynamicRegistry`](crate::registry)
//! (resolution + invocation), the discovery metadata store
//! (attribute key/values for β discovery queries) and the
//! [`DiscoveryBus`](crate::bus) (announcement latency). This module
//! collapses them behind one trait, [`ServiceDirectory`]:
//!
//! * **resolve / register / deregister** — the registry surface;
//! * **join/leave subscription** — [`ServiceDirectory::drain_events`]
//!   yields typed [`DirectoryEvent`]s;
//! * **metadata** — the discovery attribute store;
//! * **invocation** — `ServiceDirectory: Invoker`, so a directory drops
//!   into the β executor and under the β pipeline unchanged.
//!
//! [`NodeDirectory`] is the one implementation: a node id, the node's
//! registry + metadata, an append-only event log peers poll, and links
//! to remote peers whose services appear here as local proxies
//! ([`RemoteService`]). Liveness is
//! heartbeat-driven: every [`NodeDirectory::poll_peers`] round-trip
//! doubles as the heartbeat, and a peer that fails one is marked down
//! and its proxies deregistered — continuous queries observe the
//! departure exactly like a local unregistration. A later successful
//! poll re-syncs the full listing and the proxies return.

use std::collections::HashMap;
use std::sync::Arc;

use serena_core::sync::{Mutex, RwLock};

use serena_core::error::EvalError;
use serena_core::prototype::Prototype;
use serena_core::service::{Invoker, Service};
use serena_core::time::Instant;
use serena_core::tuple::Tuple;
use serena_core::value::{ServiceRef, Value};

use crate::node::{RemoteNodeClient, RemoteService};
use crate::registry::{DynamicRegistry, RegistryEvent};
use crate::transport::{ServiceAd, Transport, TransportError, WireEvent};

/// A directory membership change, as observed by subscribers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryEvent {
    /// A service joined the directory.
    Joined {
        /// The service's reference.
        reference: ServiceRef,
        /// Names of the prototypes it implements.
        prototypes: Vec<String>,
        /// The Local ERM that announced it ("" for direct registration).
        origin: String,
    },
    /// A service left the directory.
    Left {
        /// The departed service's reference.
        reference: ServiceRef,
    },
}

/// The transport-agnostic service directory: resolution, join/leave
/// subscription, registration and discovery metadata behind one
/// object-safe trait. `ServiceDirectory: Invoker`, so every directory is
/// also the β executor's service-invocation hook.
pub trait ServiceDirectory: Invoker {
    /// This node's id.
    fn node(&self) -> &str;

    /// Register `service` under `reference`, announced by LERM `origin`
    /// ("" for direct registration). Subscribers observe a
    /// [`DirectoryEvent::Joined`].
    fn register_from(&self, reference: ServiceRef, service: Arc<dyn Service>, origin: String);

    /// Register `service` with no LERM origin.
    fn register(&self, reference: ServiceRef, service: Arc<dyn Service>) {
        self.register_from(reference, service, String::new());
    }

    /// Remove `reference`. Returns `true` if it was present; subscribers
    /// observe a [`DirectoryEvent::Left`].
    fn deregister(&self, reference: &ServiceRef) -> bool;

    /// The service implementation behind `reference`, if present (for a
    /// remote service this is its local proxy).
    fn resolve(&self, reference: &ServiceRef) -> Option<Arc<dyn Service>>;

    /// All registered references (sorted — deterministic output).
    fn references(&self) -> Vec<ServiceRef>;

    /// Number of registered services.
    fn len(&self) -> usize;

    /// True iff no services are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `reference` is currently registered.
    fn contains(&self, reference: &ServiceRef) -> bool;

    /// Origin LERM of `reference`, if registered.
    fn origin_of(&self, reference: &ServiceRef) -> Option<String>;

    /// Set one discovery metadata attribute of `reference`.
    fn set_metadata(&self, reference: ServiceRef, key: &str, value: Value);

    /// One discovery metadata attribute of `reference`.
    fn metadata(&self, reference: &ServiceRef, key: &str) -> Option<Value>;

    /// All discovery metadata of `reference`, sorted by key.
    fn metadata_of(&self, reference: &ServiceRef) -> Vec<(String, Value)>;

    /// Drain the join/leave events accumulated since the previous drain
    /// (the subscribe surface — non-blocking, at-least-once per change).
    fn drain_events(&self) -> Vec<DirectoryEvent>;
}

struct LogEntry {
    event: DirectoryEvent,
    /// Whether the subject service is hosted by *this* node (proxies for
    /// remote services are excluded from what peers see, so service
    /// listings never loop through intermediate nodes).
    local: bool,
}

struct PeerLink {
    client: RemoteNodeClient,
    /// Cursor into the peer's event log.
    cursor: u64,
    /// Whether the last heartbeat/poll round-trip succeeded.
    alive: bool,
    /// Logical instant of the last successful round-trip.
    last_seen: Instant,
}

/// Health of one connected peer, as reported by
/// [`NodeDirectory::peer_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// The peer's node id (learned during the hello handshake).
    pub node: String,
    /// The peer's address.
    pub addr: String,
    /// Whether the last poll round-trip succeeded.
    pub alive: bool,
    /// Logical instant of the last successful round-trip.
    pub last_seen: Instant,
    /// Number of this peer's services currently proxied here.
    pub services: usize,
}

/// The [`ServiceDirectory`] implementation: one node's registry,
/// metadata, event log and peer links.
///
/// The event log is append-only with absolute positions, so a peer that
/// reconnects after missing events re-syncs with a full listing and a
/// fresh cursor rather than guessing what it missed.
pub struct NodeDirectory {
    node: String,
    registry: Arc<DynamicRegistry>,
    metadata: RwLock<HashMap<ServiceRef, Vec<(String, Value)>>>,
    log: Mutex<Vec<LogEntry>>,
    local_cursor: Mutex<usize>,
    /// reference → node id of the peer hosting it (proxies only).
    remote_origin: RwLock<HashMap<ServiceRef, String>>,
    peers: Mutex<Vec<PeerLink>>,
}

impl NodeDirectory {
    /// A directory for node `node` with a fresh registry.
    pub fn new(node: impl Into<String>) -> Self {
        Self::with_registry(node, Arc::new(DynamicRegistry::new()))
    }

    /// A directory wrapping an existing registry (shared with e.g. a
    /// `CoreErm`, so bus-announced registrations surface here too).
    pub fn with_registry(node: impl Into<String>, registry: Arc<DynamicRegistry>) -> Self {
        NodeDirectory {
            node: node.into(),
            registry,
            metadata: RwLock::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            local_cursor: Mutex::new(0),
            remote_origin: RwLock::new(HashMap::new()),
            peers: Mutex::new(Vec::new()),
        }
    }

    /// The underlying registry (shared with the core ERM / bus).
    pub fn registry(&self) -> &Arc<DynamicRegistry> {
        &self.registry
    }

    /// Set one discovery metadata attribute (convenience form accepting
    /// anything convertible to a [`ServiceRef`]).
    pub fn set(&self, reference: impl Into<ServiceRef>, key: &str, value: Value) {
        ServiceDirectory::set_metadata(self, reference.into(), key, value);
    }

    /// One metadata attribute (convenience form).
    pub fn get(&self, reference: impl Into<ServiceRef>, key: &str) -> Option<Value> {
        ServiceDirectory::metadata(self, &reference.into(), key)
    }

    /// Register a locally hosted service (convenience form accepting
    /// anything convertible to a [`ServiceRef`], mirroring [`Self::set`]).
    pub fn register(&self, reference: impl Into<ServiceRef>, service: Arc<dyn Service>) {
        ServiceDirectory::register(self, reference.into(), service);
    }

    /// Deregister a service (convenience form).
    pub fn deregister(&self, reference: impl Into<ServiceRef>) -> bool {
        ServiceDirectory::deregister(self, &reference.into())
    }

    /// Pump registry events (bus announcements, direct registrations)
    /// into the directory event log. Called implicitly by every reading
    /// surface; callers never need to invoke it directly.
    fn sync(&self) {
        let events = self.registry.drain_events();
        if events.is_empty() {
            return;
        }
        let remote = self.remote_origin.read();
        let mut log = self.log.lock();
        for event in events {
            let (entry, reference) = match event {
                RegistryEvent::Registered {
                    reference,
                    prototypes,
                    origin,
                } => (
                    DirectoryEvent::Joined {
                        reference: reference.clone(),
                        prototypes,
                        origin,
                    },
                    reference,
                ),
                RegistryEvent::Unregistered { reference } => (
                    DirectoryEvent::Left {
                        reference: reference.clone(),
                    },
                    reference,
                ),
            };
            log.push(LogEntry {
                event: entry,
                local: !remote.contains_key(&reference),
            });
        }
    }

    /// Events for *locally hosted* services after absolute log position
    /// `after`, with the caller's next cursor. This is what peers poll.
    pub fn events_since(&self, after: u64) -> (u64, Vec<DirectoryEvent>) {
        self.sync();
        let log = self.log.lock();
        let start = (after as usize).min(log.len());
        let events = log[start..]
            .iter()
            .filter(|e| e.local)
            .map(|e| e.event.clone())
            .collect();
        (log.len() as u64, events)
    }

    /// Current absolute event-log position (the cursor a fresh listing
    /// pairs with).
    pub fn log_position(&self) -> u64 {
        self.sync();
        self.log.lock().len() as u64
    }

    /// The advertisement for `reference`, if it is hosted locally.
    pub fn advertise(&self, reference: &ServiceRef) -> Option<ServiceAd> {
        if self.remote_origin.read().contains_key(reference) {
            return None;
        }
        let service = self.registry.resolve(reference)?;
        Some(ServiceAd {
            reference: reference.clone(),
            origin: self.registry.origin_of(reference).unwrap_or_default(),
            prototypes: service.prototypes(),
            metadata: ServiceDirectory::metadata_of(self, reference),
        })
    }

    /// Advertisements for every locally hosted service (sorted by
    /// reference), paired with the log position of the listing.
    pub fn advertise_all(&self) -> (u64, Vec<ServiceAd>) {
        let seq = self.log_position();
        let ads = self
            .registry
            .references()
            .iter()
            .filter_map(|r| self.advertise(r))
            .collect();
        (seq, ads)
    }

    /// Connect to the peer node listening at `addr` and import its
    /// services as local proxies. Returns the peer's node id.
    pub fn connect_peer(
        &self,
        transport: Arc<dyn Transport>,
        addr: &str,
    ) -> Result<String, TransportError> {
        let client = RemoteNodeClient::connect(transport, addr, &self.node)?;
        let node = client.node().to_string();
        // a self-link would shadow every local service with a proxy to
        // this very node, turning each β call into an infinite relay
        if node == self.node {
            return Err(TransportError::Protocol(format!(
                "node `{node}` refuses to link to itself"
            )));
        }
        let (seq, services) = client.list_services()?;
        for ad in services {
            self.adopt(&node, &client, ad);
        }
        self.peers.lock().push(PeerLink {
            client,
            cursor: seq,
            alive: true,
            last_seen: Instant(0),
        });
        Ok(node)
    }

    /// Register a proxy for a remote service advertised by `node`.
    fn adopt(&self, node: &str, client: &RemoteNodeClient, ad: ServiceAd) {
        // record the remote origin *first* so sync() classifies the
        // registration event as non-local (never re-advertised to peers)
        self.remote_origin
            .write()
            .insert(ad.reference.clone(), node.to_string());
        {
            let mut meta = self.metadata.write();
            let slot = meta.entry(ad.reference.clone()).or_default();
            for (k, v) in &ad.metadata {
                match slot.binary_search_by(|(q, _)| q.as_str().cmp(k)) {
                    Ok(i) => slot[i].1 = v.clone(),
                    Err(i) => slot.insert(i, (k.clone(), v.clone())),
                }
            }
        }
        let proxy = RemoteService::new(client.share(), ad.reference.clone(), ad.prototypes);
        self.registry
            .register_from(ad.reference, Arc::new(proxy), ad.origin);
    }

    /// Drop every proxy imported from `node` (the peer died or is being
    /// re-synced).
    fn evict(&self, node: &str) {
        let victims: Vec<ServiceRef> = self
            .remote_origin
            .read()
            .iter()
            .filter(|(_, n)| n.as_str() == node)
            .map(|(r, _)| r.clone())
            .collect();
        let mut victims = victims;
        victims.sort();
        for reference in victims {
            self.registry.unregister(&reference);
            self.metadata.write().remove(&reference);
            self.remote_origin.write().remove(&reference);
        }
    }

    /// Poll every connected peer once: apply its join/leave events,
    /// refresh liveness, and attempt re-sync of peers marked down. The
    /// successful round-trip *is* the heartbeat; one failure marks the
    /// peer down and evicts its proxies, so β calls routed at it fail
    /// fast as [`EvalError::UnknownService`] rather than hanging.
    ///
    /// Called once per tick by the PEMS engine, before discovery
    /// refresh, so membership changes land with the same timing as a
    /// local bus announcement.
    pub fn poll_peers(&self, now: Instant) {
        let mut peers = self.peers.lock();
        for peer in peers.iter_mut() {
            if peer.alive {
                match peer.client.poll_events(peer.cursor) {
                    Ok((next, events)) => {
                        peer.cursor = next;
                        peer.last_seen = now;
                        let node = peer.client.node().to_string();
                        for event in events {
                            match event {
                                WireEvent::Joined(ad) => self.adopt(&node, &peer.client, ad),
                                WireEvent::Left(reference) => {
                                    if self
                                        .remote_origin
                                        .read()
                                        .get(&reference)
                                        .is_some_and(|n| n == &node)
                                    {
                                        self.registry.unregister(&reference);
                                        self.metadata.write().remove(&reference);
                                        self.remote_origin.write().remove(&reference);
                                    }
                                }
                            }
                        }
                    }
                    Err(_) => {
                        peer.alive = false;
                        self.evict(peer.client.node());
                    }
                }
            } else {
                // down: retry with a full re-sync (stale cursors are
                // useless after a server restart)
                if let Ok((seq, services)) = peer.client.resync() {
                    let node = peer.client.node().to_string();
                    self.evict(&node);
                    for ad in services {
                        self.adopt(&node, &peer.client, ad);
                    }
                    peer.cursor = seq;
                    peer.alive = true;
                    peer.last_seen = now;
                }
            }
        }
    }

    /// Liveness and proxy counts for every connected peer.
    pub fn peer_status(&self) -> Vec<PeerStatus> {
        let origin = self.remote_origin.read();
        self.peers
            .lock()
            .iter()
            .map(|p| PeerStatus {
                node: p.client.node().to_string(),
                addr: p.client.addr().to_string(),
                alive: p.alive,
                last_seen: p.last_seen,
                services: origin
                    .values()
                    .filter(|n| n.as_str() == p.client.node())
                    .count(),
            })
            .collect()
    }

    /// Number of connected peers (alive or down).
    pub fn peer_count(&self) -> usize {
        self.peers.lock().len()
    }

    /// Whether `reference` is a proxy for a service on another node, and
    /// if so which one.
    pub fn hosted_by(&self, reference: &ServiceRef) -> Option<String> {
        self.remote_origin.read().get(reference).cloned()
    }
}

impl ServiceDirectory for NodeDirectory {
    fn node(&self) -> &str {
        &self.node
    }

    fn register_from(&self, reference: ServiceRef, service: Arc<dyn Service>, origin: String) {
        self.registry.register_from(reference, service, origin);
        self.sync();
    }

    fn deregister(&self, reference: &ServiceRef) -> bool {
        let removed = self.registry.unregister(reference);
        if removed {
            self.metadata.write().remove(reference);
            self.remote_origin.write().remove(reference);
            self.sync();
        }
        removed
    }

    fn resolve(&self, reference: &ServiceRef) -> Option<Arc<dyn Service>> {
        self.registry.resolve(reference)
    }

    fn references(&self) -> Vec<ServiceRef> {
        self.registry.references()
    }

    fn len(&self) -> usize {
        self.registry.len()
    }

    fn contains(&self, reference: &ServiceRef) -> bool {
        self.registry.contains(reference)
    }

    fn origin_of(&self, reference: &ServiceRef) -> Option<String> {
        self.registry.origin_of(reference)
    }

    fn set_metadata(&self, reference: ServiceRef, key: &str, value: Value) {
        let mut meta = self.metadata.write();
        let slot = meta.entry(reference).or_default();
        match slot.binary_search_by(|(q, _)| q.as_str().cmp(key)) {
            Ok(i) => slot[i].1 = value,
            Err(i) => slot.insert(i, (key.to_string(), value)),
        }
    }

    fn metadata(&self, reference: &ServiceRef, key: &str) -> Option<Value> {
        self.metadata.read().get(reference).and_then(|slot| {
            slot.binary_search_by(|(q, _)| q.as_str().cmp(key))
                .ok()
                .map(|i| slot[i].1.clone())
        })
    }

    fn metadata_of(&self, reference: &ServiceRef) -> Vec<(String, Value)> {
        self.metadata
            .read()
            .get(reference)
            .cloned()
            .unwrap_or_default()
    }

    fn drain_events(&self) -> Vec<DirectoryEvent> {
        self.sync();
        let log = self.log.lock();
        let mut cursor = self.local_cursor.lock();
        let start = (*cursor).min(log.len());
        let events = log[start..].iter().map(|e| e.event.clone()).collect();
        *cursor = log.len();
        events
    }
}

impl Invoker for NodeDirectory {
    fn invoke(
        &self,
        prototype: &Prototype,
        service_ref: &ServiceRef,
        input: &Tuple,
        at: Instant,
    ) -> Result<Vec<Tuple>, EvalError> {
        self.registry.invoke(prototype, service_ref, input, at)
    }

    fn providers_of(&self, prototype: &str) -> Vec<ServiceRef> {
        self.registry.providers_of(prototype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serena_core::prototype::examples as protos;
    use serena_core::service::fixtures;

    #[test]
    fn register_resolve_events_and_metadata() {
        let dir = NodeDirectory::new("n1");
        assert_eq!(ServiceDirectory::node(&dir), "n1");
        ServiceDirectory::register(
            &dir,
            ServiceRef::new("sensor01"),
            fixtures::temperature_sensor(1),
        );
        dir.set("sensor01", "location", Value::str("office"));

        assert!(dir.contains(&ServiceRef::new("sensor01")));
        assert!(ServiceDirectory::resolve(&dir, &ServiceRef::new("sensor01")).is_some());
        assert_eq!(dir.get("sensor01", "location"), Some(Value::str("office")));
        assert_eq!(
            ServiceDirectory::metadata_of(&dir, &ServiceRef::new("sensor01")),
            vec![("location".to_string(), Value::str("office"))]
        );

        let events = ServiceDirectory::drain_events(&dir);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            DirectoryEvent::Joined { reference, .. } if reference.as_str() == "sensor01"
        ));

        assert!(dir.deregister(ServiceRef::new("sensor01")));
        let events = ServiceDirectory::drain_events(&dir);
        assert_eq!(
            events,
            vec![DirectoryEvent::Left {
                reference: ServiceRef::new("sensor01")
            }]
        );
        // metadata evicted with the service
        assert_eq!(dir.get("sensor01", "location"), None);
    }

    #[test]
    fn directory_is_an_invoker() {
        let dir = NodeDirectory::new("n1");
        ServiceDirectory::register(
            &dir,
            ServiceRef::new("sensor01"),
            fixtures::temperature_sensor(1),
        );
        let out = dir
            .invoke(
                &protos::get_temperature(),
                &ServiceRef::new("sensor01"),
                &Tuple::empty(),
                Instant(1),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(dir.providers_of("getTemperature").len(), 1);
    }

    #[test]
    fn events_since_excludes_nothing_when_all_local() {
        let dir = NodeDirectory::new("n1");
        ServiceDirectory::register(&dir, ServiceRef::new("a"), fixtures::temperature_sensor(1));
        ServiceDirectory::register(&dir, ServiceRef::new("b"), fixtures::temperature_sensor(2));
        let (next, events) = dir.events_since(0);
        assert_eq!(next, 2);
        assert_eq!(events.len(), 2);
        // cursor semantics: nothing new after `next`
        let (next2, events) = dir.events_since(next);
        assert_eq!(next2, next);
        assert!(events.is_empty());
    }

    #[test]
    fn advertise_carries_prototypes_and_metadata() {
        let dir = NodeDirectory::new("n1");
        ServiceDirectory::register_from(
            &dir,
            ServiceRef::new("sensor01"),
            fixtures::temperature_sensor(1),
            "building".to_string(),
        );
        dir.set("sensor01", "location", Value::str("office"));
        let ad = dir.advertise(&ServiceRef::new("sensor01")).unwrap();
        assert_eq!(ad.origin, "building");
        assert_eq!(ad.prototypes.len(), 1);
        assert_eq!(ad.prototypes[0].name(), "getTemperature");
        assert_eq!(
            ad.metadata,
            vec![("location".to_string(), Value::str("office"))]
        );
        let (_, ads) = dir.advertise_all();
        assert_eq!(ads.len(), 1);
    }
}
