//! Queries: non-blocking FIFO accesses and status checks awaiting
//! resolution by the Perf Sim thread (Table 2, §6.2 step 4).

use crate::fifo_table::FifoTable;
use crate::request::ThreadId;
use omnisim_graph::NodeId;
use omnisim_ir::FifoId;

/// The kind of non-blocking access a query represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `write_nb()` — can the w-th write commit?
    NbWrite,
    /// `read_nb()` — can the r-th read commit?
    NbRead,
    /// `empty()` — is there readable data? (resolved like a read query)
    CanRead,
    /// `full()` — is there writable space? (resolved like a write query)
    CanWrite,
}

impl QueryKind {
    /// True for queries resolved with the write rules of Table 2 (rows 1–2).
    pub fn is_write_side(self) -> bool {
        matches!(self, QueryKind::NbWrite | QueryKind::CanWrite)
    }
}

/// One pending query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The paused thread that issued the query.
    pub thread: ThreadId,
    /// The FIFO involved.
    pub fifo: FifoId,
    /// The kind of access.
    pub kind: QueryKind,
    /// The hardware cycle of the attempted access.
    pub cycle: u64,
    /// The 1-based ordinal the access would have (w-th write / r-th read).
    pub ordinal: usize,
    /// The value to push if an `NbWrite` succeeds.
    pub value: i64,
    /// The simulation-graph node created for the query itself.
    pub node: NodeId,
}

/// Resolution result of a query against the FIFO tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The access succeeds (write accepted / data readable).
    True,
    /// The access fails (FIFO full / empty at the query cycle).
    False,
    /// The target event has not been simulated yet; retry later.
    Unknown,
}

impl Query {
    /// Attempts to resolve this query against the FIFO table, applying the
    /// rules of Table 2 with FIFO depth `depth`.
    pub fn resolve(&self, table: &FifoTable, depth: usize) -> Resolution {
        let result = if self.kind.is_write_side() {
            table.can_write_at(self.ordinal, self.cycle, depth)
        } else {
            table.can_read_at(self.ordinal, self.cycle)
        };
        match result {
            Some(true) => Resolution::True,
            Some(false) => Resolution::False,
            None => Resolution::Unknown,
        }
    }
}

/// The pool of unresolved queries held by the Perf Sim thread.
#[derive(Debug, Default)]
pub struct QueryPool {
    queries: Vec<Query>,
    total_created: usize,
    forced_false: usize,
}

impl QueryPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a query to the pool.
    pub fn push(&mut self, query: Query) {
        self.total_created += 1;
        self.queries.push(query);
    }

    /// Number of unresolved queries currently pending.
    pub fn pending(&self) -> usize {
        self.queries.len()
    }

    /// True if no queries are pending.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total queries ever created.
    pub fn total_created(&self) -> usize {
        self.total_created
    }

    /// How many queries had to be resolved by the forward-progress rule.
    pub fn forced_false(&self) -> usize {
        self.forced_false
    }

    /// Removes and returns the query at `index`.
    pub fn take(&mut self, index: usize) -> Query {
        self.queries.remove(index)
    }

    /// Returns the query at `index` without removing it.
    pub fn get(&self, index: usize) -> &Query {
        &self.queries[index]
    }

    /// Iterates over pending queries with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Query)> {
        self.queries.iter().enumerate()
    }

    /// Removes the query at `index` and counts it as force-resolved. The
    /// engine picks the index: the earliest *safely forceable* query under
    /// the frontier-aware forward-progress rule of §7.1.
    pub fn take_forced_at(&mut self, index: usize) -> Query {
        self.forced_false += 1;
        self.queries.remove(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(kind: QueryKind, cycle: u64, ordinal: usize) -> Query {
        Query {
            thread: 0,
            fifo: FifoId(0),
            kind,
            cycle,
            ordinal,
            value: 0,
            node: NodeId(0),
        }
    }

    #[test]
    fn nb_write_resolution_depends_on_depth_and_reads() {
        let mut table = FifoTable::new();
        table.commit_write(1, 1, NodeId(0), true);
        table.commit_write(2, 2, NodeId(1), true);
        // Third write into a depth-2 FIFO at cycle 4; first read not yet done.
        let q = query(QueryKind::NbWrite, 4, 3);
        assert_eq!(q.resolve(&table, 2), Resolution::Unknown);
        table.commit_read(4, NodeId(2));
        assert_eq!(
            q.resolve(&table, 2),
            Resolution::False,
            "read at same cycle"
        );
        let q_later = query(QueryKind::NbWrite, 5, 3);
        assert_eq!(q_later.resolve(&table, 2), Resolution::True);
        // With a larger depth the write is unconditionally fine.
        assert_eq!(
            query(QueryKind::NbWrite, 1, 3).resolve(&table, 8),
            Resolution::True
        );
    }

    #[test]
    fn nb_read_resolution_checks_matching_write() {
        let mut table = FifoTable::new();
        let q = query(QueryKind::NbRead, 5, 1);
        assert_eq!(q.resolve(&table, 4), Resolution::Unknown);
        table.commit_write(9, 5, NodeId(0), true);
        assert_eq!(q.resolve(&table, 4), Resolution::False, "write at cycle 5");
        assert_eq!(
            query(QueryKind::NbRead, 6, 1).resolve(&table, 4),
            Resolution::True
        );
    }

    #[test]
    fn can_read_behaves_like_nb_read() {
        let mut table = FifoTable::new();
        table.commit_write(3, 10, NodeId(0), true);
        assert_eq!(
            query(QueryKind::CanRead, 10, 1).resolve(&table, 1),
            Resolution::False
        );
        assert_eq!(
            query(QueryKind::CanRead, 11, 1).resolve(&table, 1),
            Resolution::True
        );
    }

    #[test]
    fn pool_take_forced_counts_and_removes() {
        let mut pool = QueryPool::new();
        pool.push(query(QueryKind::NbWrite, 9, 1));
        pool.push(query(QueryKind::NbRead, 3, 1));
        pool.push(query(QueryKind::CanRead, 7, 1));
        assert_eq!(pool.pending(), 3);
        let forced = pool.take_forced_at(1);
        assert_eq!(forced.cycle, 3);
        assert_eq!(pool.forced_false(), 1);
        assert_eq!(pool.pending(), 2);
        assert_eq!(pool.total_created(), 3);
    }
}
