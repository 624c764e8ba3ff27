//! # serena-services
//!
//! The service substrate of the PEMS prototype (§5.1–5.2 of the paper):
//! dynamic service registration, discovery and remote invocation, plus
//! simulated stand-ins for every physical device the authors used.
//!
//! The paper's experimental environment was built from OSGi/UPnP networking,
//! Thermochron iButton sensors, Logitech webcams, an Openfire IM server, a
//! Clickatell SMS gateway, a mail server and live RSS feeds. None of that
//! hardware is available to a reproduction, so this crate implements
//! deterministic simulations that exercise the *same code paths* (see
//! DESIGN.md §2 for the substitution table):
//!
//! * [`registry`] — a dynamic, thread-safe service registry implementing
//!   the core [`serena_core::service::Invoker`] trait, with
//!   registration/unregistration events;
//! * [`bus`] — an in-process discovery bus: *Local Environment Resource
//!   Managers* announce their services with configurable latency and churn;
//!   the core ERM applies due announcements each logical tick (Figure 1's
//!   distributed module layout, minus the real network);
//! * [`devices`] — simulated temperature sensors (with scriptable heat
//!   events), cameras, messengers (e-mail / jabber / SMS with an
//!   inspectable outbox) and RSS feed wrappers;
//! * [`faults`] — failure injection: flaky, delayed or dying services for
//!   robustness tests;
//! * [`fleet`] — deterministic fleet parameterization for massive
//!   environments: zipf-skewed per-service latency and failure draws, all
//!   pure functions of `(seed, index)`;
//! * [`health`] — rolling per-service health (failure rate,
//!   consecutive-error count, last-seen instant) fed by one outcome per β
//!   attempt;
//! * [`resilience`] — the β resilience policy and state: per-service
//!   deadline, bounded retry with jittered exponential backoff, and a
//!   health-informed circuit breaker;
//! * [`pipeline`] — the β pipeline ([`BetaPipeline`]): the one path from
//!   the β operator to a service — cross-query dedup, breaker, retries,
//!   panic containment and instrumentation as fixed stages over the
//!   registry;
//! * [`discovery`] — turning "which services implement prototype ψ?" into
//!   X-Relation rows, the data backing the PEMS service-discovery queries;
//! * [`directory`] — the unified, transport-agnostic [`ServiceDirectory`]
//!   trait (resolve, register/deregister, join/leave subscription,
//!   metadata, invocation) and its [`NodeDirectory`] implementation with
//!   multi-node peer links and heartbeat-driven liveness;
//! * [`transport`] — the node-to-node seam: [`Transport`] with an
//!   in-process hub ([`InProcTransport`], the deterministic test
//!   default) and real TCP/UDS sockets ([`SocketTransport`]), speaking
//!   length-prefixed frames in the `serena-core::snapshot` codec;
//! * [`node`] — serving a directory to peers ([`ServiceNode`]) and
//!   proxying remote services locally ([`RemoteService`]), including
//!   standby checkpoint replication.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bus;
pub mod devices;
pub mod directory;
pub mod discovery;
pub mod faults;
pub mod fleet;
pub mod health;
pub mod node;
pub mod pipeline;
pub mod registry;
pub mod resilience;
pub mod transport;

pub use bus::{BusConfig, CoreErm, DiscoveryBus, LocalErm};
pub use directory::{DirectoryEvent, NodeDirectory, PeerStatus, ServiceDirectory};
pub use health::{HealthStatus, HealthTracker, ServiceHealth};
pub use node::{NodeHandle, RemoteNodeClient, RemoteService, ServiceNode};
pub use pipeline::{BetaPipeline, BetaTelemetry};
pub use registry::{DynamicRegistry, RegistryEvent};
pub use resilience::{BreakerState, ResilienceCounters, ResiliencePolicy, ResilienceState};
pub use transport::{Frame, InProcTransport, SocketTransport, Transport, TransportError};
