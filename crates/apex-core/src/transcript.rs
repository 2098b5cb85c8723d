//! Transcripts of interaction (Section 6.1).
//!
//! A transcript `T_i = [(q₁,α₁,β₁), (ω₁,ε₁), …]` encodes the analyst's
//! entire view of the private database. The privacy guarantee (Theorem
//! 6.2) is stated over *valid* transcripts (Definition 6.1): cumulative
//! actual loss never exceeds `B`, and every answered query also fit under
//! `B` in the worst case at submission time.
//!
//! The engine's transcript keeps the *accounting* half of each
//! interaction — the query record, the mechanism and both losses, which is
//! everything Definition 6.1 checks. The noisy answer `ω` is handed to the
//! analyst in the response and not retained: a long-lived engine answers
//! without bound, and a per-answer payload kept forever is memory that
//! grows with traffic for nothing the engine ever reads back. For the same
//! reason only the most recent [`Transcript::RETAINED`] entries are kept
//! verbatim; the counts, the total loss and the Definition 6.1 check run
//! on aggregates folded in at every push and always cover the whole
//! history.

/// The analyst-visible description of a submitted query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Query type name ("WCQ"/"ICQ"/"TCQ").
    pub kind: &'static str,
    /// Workload size `L`.
    pub workload_size: usize,
    /// Requested error bound `α`.
    pub alpha: f64,
    /// Requested failure probability `β`.
    pub beta: f64,
}

/// One interaction: the query plus APEx's response.
#[derive(Debug, Clone)]
pub enum TranscriptEntry {
    /// The query was answered by `mechanism` at actual privacy loss
    /// `epsilon` (worst case `epsilon_upper`).
    Answered {
        /// The query as submitted.
        query: QueryRecord,
        /// Name of the mechanism APEx selected.
        mechanism: &'static str,
        /// Actual privacy loss `ε` charged to the budget.
        epsilon: f64,
        /// Worst-case loss `εᵘ` the analyzer admitted against the budget.
        epsilon_upper: f64,
    },
    /// The query was denied (`ω = ⊥`, `ε = 0`).
    Denied {
        /// The query as submitted.
        query: QueryRecord,
    },
}

impl TranscriptEntry {
    /// The actual privacy loss of this entry (0 for denials).
    pub fn epsilon(&self) -> f64 {
        match self {
            TranscriptEntry::Answered { epsilon, .. } => *epsilon,
            TranscriptEntry::Denied { .. } => 0.0,
        }
    }

    /// Whether the entry is a denial.
    pub fn is_denied(&self) -> bool {
        matches!(self, TranscriptEntry::Denied { .. })
    }
}

/// The interaction history between one analyst and the engine.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    /// The newest entries, oldest first: between [`Self::RETAINED`] and
    /// twice that many once the history is longer (trimmed in halves).
    entries: Vec<TranscriptEntry>,
    len: usize,
    denied: usize,
    /// `B_i`: the running sum of actual losses.
    spent: f64,
    /// Largest `B_i` so far.
    max_spent: f64,
    /// Largest `B_{i−1} + εᵘᵢ` over answered entries so far.
    max_admitted: f64,
}

impl Transcript {
    /// How many of the newest entries [`Self::entries`] is sure to hold.
    pub const RETAINED: usize = 1024;

    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub(crate) fn push(&mut self, entry: TranscriptEntry) {
        self.len += 1;
        match entry {
            TranscriptEntry::Denied { .. } => self.denied += 1,
            TranscriptEntry::Answered {
                epsilon,
                epsilon_upper,
                ..
            } => {
                self.max_admitted = self.max_admitted.max(self.spent + epsilon_upper);
                self.spent += epsilon;
                self.max_spent = self.max_spent.max(self.spent);
            }
        }
        if self.entries.len() == 2 * Self::RETAINED {
            self.entries.drain(..Self::RETAINED);
        }
        self.entries.push(entry);
    }

    /// The most recent entries (all of them up to [`Self::RETAINED`]),
    /// oldest first.
    pub fn entries(&self) -> &[TranscriptEntry] {
        &self.entries[self.entries.len().saturating_sub(Self::RETAINED)..]
    }

    /// Number of interactions (answered + denied).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any interaction happened yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total actual privacy loss `B_i = Σ ε_j`.
    pub fn total_epsilon(&self) -> f64 {
        self.spent
    }

    /// Number of answered queries.
    pub fn answered(&self) -> usize {
        self.len - self.denied
    }

    /// Number of denied queries.
    pub fn denied(&self) -> usize {
        self.denied
    }

    /// Checks Definition 6.1 (valid APEx transcript) against a budget:
    ///
    /// 1. the running sum of actual losses never exceeds `budget`, and
    /// 2. for every answered entry, the *worst-case* loss admitted at
    ///    submission time also fit: `B_{i−1} + εᵘᵢ ≤ budget`.
    pub fn is_valid(&self, budget: f64) -> bool {
        // Small tolerance for floating-point accumulation.
        let bound = budget + 1e-9 * budget.max(1.0);
        self.max_admitted <= bound && self.max_spent <= bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> QueryRecord {
        QueryRecord {
            kind: "WCQ",
            workload_size: 4,
            alpha: 10.0,
            beta: 0.05,
        }
    }

    fn answered(eps: f64, upper: f64) -> TranscriptEntry {
        TranscriptEntry::Answered {
            query: record(),
            mechanism: "LM",
            epsilon: eps,
            epsilon_upper: upper,
        }
    }

    #[test]
    fn totals_and_counts() {
        let mut t = Transcript::new();
        t.push(answered(0.2, 0.2));
        t.push(TranscriptEntry::Denied { query: record() });
        t.push(answered(0.3, 0.5));
        assert_eq!(t.len(), 3);
        assert_eq!(t.answered(), 2);
        assert_eq!(t.denied(), 1);
        assert!((t.total_epsilon() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn valid_transcript_within_budget() {
        let mut t = Transcript::new();
        t.push(answered(0.2, 0.2));
        t.push(answered(0.1, 0.8)); // worst case 0.2 + 0.8 = 1.0 fits B = 1
        assert!(t.is_valid(1.0));
    }

    #[test]
    fn invalid_when_worst_case_overflows() {
        let mut t = Transcript::new();
        t.push(answered(0.2, 0.2));
        t.push(answered(0.1, 0.9)); // 0.2 + 0.9 > 1.0: should have denied
        assert!(!t.is_valid(1.0));
    }

    #[test]
    fn invalid_when_actual_overflows() {
        let mut t = Transcript::new();
        t.push(answered(1.2, 1.2));
        assert!(!t.is_valid(1.0));
    }

    #[test]
    fn denials_cost_nothing() {
        let mut t = Transcript::new();
        for _ in 0..10 {
            t.push(TranscriptEntry::Denied { query: record() });
        }
        assert_eq!(t.total_epsilon(), 0.0);
        assert!(t.is_valid(0.1));
    }

    #[test]
    fn a_long_history_keeps_its_totals_and_only_its_newest_entries() {
        let mut t = Transcript::new();
        let n = 5 * Transcript::RETAINED / 2;
        for i in 0..n {
            t.push(answered(1e-3, 2e-3 + i as f64));
            t.push(TranscriptEntry::Denied { query: record() });
        }
        assert_eq!((t.len(), t.answered(), t.denied()), (2 * n, n, n));
        assert!((t.total_epsilon() - 1e-3 * n as f64).abs() < 1e-9);
        assert_eq!(t.entries().len(), Transcript::RETAINED);
        assert!(t.entries().last().unwrap().is_denied());
        // Validity still sees the entries that were let go.
        let worst = 1e-3 * (n - 1) as f64 + 2e-3 + (n - 1) as f64;
        assert!(t.is_valid(worst) && !t.is_valid(worst - 1.0));
    }

    #[test]
    fn empty_transcript_is_valid() {
        assert!(Transcript::new().is_valid(0.0));
    }
}
