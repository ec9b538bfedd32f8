//! The transport-agnostic [`SolverBackend`] API.
//!
//! Every way of reaching the solver service — calling the
//! [`ShardedService`] in-process, queueing through a worker pool's
//! [`PoolClient`], or speaking the wire protocol to a remote `lwsnapd`
//! — exposes the same **completion-based** contract:
//! [`SolverBackend::submit`] hands in a solve request and returns a
//! [`Ticket`]; [`SolverBackend::wait`] redeems the ticket for the reply. Between submit and wait the caller
//! is free to submit more work, which is what lets exploration drivers
//! batch and overlap feasibility queries regardless of the transport
//! underneath. Blocking convenience wrappers ([`SolverBackend::solve`],
//! [`SolverBackend::solve_batch`]) are provided for closed-loop
//! callers; every backend takes their defaults.
//!
//! | backend | `submit` | `wait` | overlap |
//! |---|---|---|---|
//! | [`ShardedService`] | solves inline on the caller's thread | returns the stored reply | none (degenerate, in-process) |
//! | [`PoolClient`] | queues on the pool's job queue | blocks on the worker's completion | across pool workers |
//! | [`crate::PipelinedClient`] | corks a tagged frame in its write buffer | flushes, then reads frames until the tag answers | across the wire *and* pool workers |
//!
//! Transport errors (`io::Error`) can only come from remote backends;
//! in-process backends are infallible and always return `Ok`. A dead
//! or unknown problem reference is *not* an error — it answers
//! `Ok(None)`, matching [`ShardedService::solve`].

use std::io;
use std::sync::mpsc;

use lwsnap_solver::Lit;
use lwsnap_trace::StatsSummary;

use crate::pool::PoolClient;
use crate::sharded::{ProblemId, ShardedService, SolveReply};

/// A claim on one submitted solve request, redeemed with
/// [`SolverBackend::wait`]. Tickets are single-use and must be waited
/// on the backend that issued them.
pub struct Ticket(pub(crate) TicketInner);

pub(crate) enum TicketInner {
    /// The reply is already known (in-process eager execution).
    Ready(Option<SolveReply>),
    /// The reply arrives on a worker-pool completion channel.
    Pending(mpsc::Receiver<Option<SolveReply>>),
    /// The reply arrives on the wire under this correlation tag.
    Tagged(u64),
    /// The reply arrives on cluster node `node`'s connection under
    /// `tag`. Tag spaces are per-connection, so `(node, tag)` is the
    /// cluster-unique correlation key. The ticket also carries enough
    /// of the request to RE-ISSUE it after a failover: if `node` dies
    /// before answering, [`crate::ClusterBackend`] promotes the
    /// session's replica and retries `parent ∧ clauses` on the new
    /// home instead of surfacing the node error.
    Cluster {
        /// The node whose connection carries the reply.
        node: crate::router::NodeId,
        /// The correlation tag on that connection.
        tag: u64,
        /// The session the solve belongs to (`None` = untracked parent;
        /// no replica exists, so no failover retry either).
        session: Option<u64>,
        /// The parent's wire id as submitted (pre-failover coordinates).
        parent: u64,
        /// The incremental constraint, wire form.
        clauses: Vec<Vec<i64>>,
    },
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            TicketInner::Ready(_) => write!(f, "Ticket(ready)"),
            TicketInner::Pending(_) => write!(f, "Ticket(pending)"),
            TicketInner::Tagged(tag) => write!(f, "Ticket(tag={tag})"),
            TicketInner::Cluster { node, tag, .. } => write!(f, "Ticket(node={node}, tag={tag})"),
        }
    }
}

/// The unified solver-service API; see the module docs.
pub trait SolverBackend: Send + Sync {
    /// The root problem a session should branch from.
    fn session_root(&self, session: u64) -> io::Result<ProblemId>;

    /// Submits `parent ∧ clauses` for solving; returns immediately with
    /// a ticket. More submissions may follow before any wait — remote
    /// backends cork them and send them all at the next wait, pipelined
    /// on one connection.
    fn submit(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> io::Result<Ticket>;

    /// Blocks until the submitted request completes. `Ok(None)` means
    /// the parent reference was dead or unknown (or the backend shut
    /// down before serving it).
    fn wait(&self, ticket: Ticket) -> io::Result<Option<SolveReply>>;

    /// Releases a problem snapshot (idempotent, possibly asynchronous).
    fn release(&self, id: ProblemId) -> io::Result<()>;

    /// Aggregated service statistics.
    fn stats(&self) -> io::Result<StatsSummary>;

    /// Statistics with the **node dimension** kept: one `(node id,
    /// summary)` entry per cluster node, so callers can see per-node
    /// hit/rederive/evict counts instead of a silently summed blur.
    /// Single-node backends answer one entry; [`crate::ClusterBackend`]
    /// answers one per member node. The default labels the single
    /// entry node 0 — backends that can learn their real node id
    /// override it (all the in-tree impls do).
    fn node_stats(&self) -> io::Result<crate::stats::FleetStats> {
        Ok(crate::stats::FleetStats {
            nodes: vec![(0, self.stats()?)],
        })
    }

    /// Blocking convenience: submit then wait.
    fn solve(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> io::Result<Option<SolveReply>> {
        let ticket = self.submit(parent, clauses)?;
        self.wait(ticket)
    }

    /// Blocking convenience: submit the whole batch, then wait for all
    /// replies in request order. On pipelined backends the requests
    /// overlap and the whole window goes out corked, one flush per
    /// node at the first wait; the aggregate latency is one round trip
    /// plus the slowest solve rather than the sum of round trips.
    fn solve_batch(
        &self,
        requests: Vec<(ProblemId, Vec<Vec<Lit>>)>,
    ) -> io::Result<Vec<Option<SolveReply>>> {
        let tickets: Vec<Ticket> = requests
            .into_iter()
            .map(|(parent, clauses)| self.submit(parent, clauses))
            .collect::<io::Result<_>>()?;
        tickets.into_iter().map(|t| self.wait(t)).collect()
    }
}

// ---------------------------------------------------------------------
// In-process backend: the sharded service itself.
// ---------------------------------------------------------------------

impl SolverBackend for ShardedService {
    fn session_root(&self, session: u64) -> io::Result<ProblemId> {
        Ok(ShardedService::session_root(self, session))
    }

    /// Executes eagerly on the calling thread; the ticket carries the
    /// finished reply. No overlap — this backend is the zero-transport
    /// baseline the others are measured against.
    fn submit(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> io::Result<Ticket> {
        Ok(Ticket(TicketInner::Ready(ShardedService::solve(
            self, parent, &clauses,
        ))))
    }

    fn wait(&self, ticket: Ticket) -> io::Result<Option<SolveReply>> {
        match ticket.0 {
            TicketInner::Ready(reply) => Ok(reply),
            _ => Err(foreign_ticket()),
        }
    }

    fn release(&self, id: ProblemId) -> io::Result<()> {
        ShardedService::release(self, id);
        Ok(())
    }

    fn stats(&self) -> io::Result<StatsSummary> {
        Ok(ShardedService::stats(self))
    }

    fn node_stats(&self) -> io::Result<crate::stats::FleetStats> {
        Ok(crate::stats::FleetStats {
            nodes: vec![(self.node_id(), SolverBackend::stats(self)?)],
        })
    }
}

// ---------------------------------------------------------------------
// Worker-pool backend: queued execution, overlap across workers.
// ---------------------------------------------------------------------

impl SolverBackend for PoolClient {
    fn session_root(&self, session: u64) -> io::Result<ProblemId> {
        Ok(self.service().session_root(session))
    }

    fn submit(&self, parent: ProblemId, clauses: Vec<Vec<Lit>>) -> io::Result<Ticket> {
        Ok(Ticket(TicketInner::Pending(PoolClient::submit(
            self, parent, clauses,
        ))))
    }

    fn wait(&self, ticket: Ticket) -> io::Result<Option<SolveReply>> {
        match ticket.0 {
            // A recv error means the pool shut down before serving the
            // job — the same "dead" answer the blocking path gives.
            TicketInner::Pending(rx) => Ok(rx.recv().unwrap_or(None)),
            _ => Err(foreign_ticket()),
        }
    }

    fn release(&self, id: ProblemId) -> io::Result<()> {
        PoolClient::release(self, id);
        Ok(())
    }

    fn stats(&self) -> io::Result<StatsSummary> {
        Ok(self.service().stats())
    }

    fn node_stats(&self) -> io::Result<crate::stats::FleetStats> {
        Ok(crate::stats::FleetStats {
            nodes: vec![(self.service().node_id(), self.stats()?)],
        })
    }
}

pub(crate) fn foreign_ticket() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        "ticket was issued by a different backend",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use crate::sharded::ServiceConfig;
    use lwsnap_solver::SolveResult;
    use std::sync::Arc;

    fn lits(c: &[i64]) -> Vec<Vec<Lit>> {
        vec![c.iter().map(|&v| Lit::from_dimacs(v)).collect()]
    }

    /// The generic session exercised identically over every backend.
    fn chain_session(backend: &dyn SolverBackend, session: u64) {
        let root = backend.session_root(session).unwrap();
        let p = backend.solve(root, lits(&[1, 2])).unwrap().unwrap();
        assert_eq!(p.result, SolveResult::Sat);
        // Overlapped submissions complete independently.
        let t1 = backend.submit(p.problem, lits(&[-1])).unwrap();
        let t2 = backend.submit(p.problem, lits(&[1])).unwrap();
        let r1 = backend.wait(t1).unwrap().unwrap();
        let r2 = backend.wait(t2).unwrap().unwrap();
        assert_eq!(r1.result, SolveResult::Sat);
        assert_eq!(r2.result, SolveResult::Sat);
        assert!(!r1.model.as_ref().unwrap()[0]);
        assert!(r2.model.as_ref().unwrap()[0]);
        backend.release(r1.problem).unwrap();
        backend.release(r2.problem).unwrap();
        assert!(backend.solve(r1.problem, lits(&[2])).unwrap().is_none());
        assert!(backend.stats().unwrap().queries >= 3);
    }

    #[test]
    fn in_process_backend_conforms() {
        let service = ShardedService::new(ServiceConfig::new(2));
        chain_session(&service, 7);
    }

    #[test]
    fn pool_backend_conforms() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(2)));
        let pool = WorkerPool::new(Arc::clone(&service), 2);
        chain_session(&pool.client(), 7);
        chain_session(&pool.client(), 8);
        pool.shutdown();
    }

    #[test]
    fn batch_waits_in_request_order() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(4)));
        let pool = WorkerPool::new(Arc::clone(&service), 4);
        let client = pool.client();
        let requests: Vec<_> = (0..4)
            .map(|s| (service.root(s).unwrap(), lits(&[s as i64 + 1])))
            .collect();
        let replies = SolverBackend::solve_batch(&client, requests).unwrap();
        for (s, reply) in replies.iter().enumerate() {
            assert_eq!(reply.as_ref().unwrap().problem.shard(), s);
        }
        pool.shutdown();
    }

    #[test]
    fn foreign_tickets_are_rejected() {
        let service = Arc::new(ShardedService::new(ServiceConfig::new(1)));
        let pool = WorkerPool::new(Arc::clone(&service), 1);
        let root = service.root(0).unwrap();
        let pool_ticket = SolverBackend::submit(&pool.client(), root, lits(&[1])).unwrap();
        let err = SolverBackend::wait(&*service, pool_ticket).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        pool.shutdown();
    }
}
