//! Collision / access statistics driving the adaptive behaviour of the
//! unique table (the paper's `{size × access-time}` quality metric).

/// Running statistics for one hash table.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableStats {
    /// Number of lookup operations since the last reset.
    pub lookups: u64,
    /// Total number of chain links traversed by those lookups (a direct
    /// proxy for access time).
    pub probes: u64,
    /// Lookups that found their key.
    pub hits: u64,
    /// Number of times the table grew.
    pub resizes: u64,
    /// Number of times the hash function was re-arranged.
    pub rearrangements: u64,
}

impl TableStats {
    /// Average probes per lookup (1.0 = perfect; larger = longer chains).
    #[must_use]
    pub fn avg_probe_length(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probes as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups that hit.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Accumulate another table's counters into this one (used by the
    /// managers to aggregate across per-level subtables).
    pub fn absorb(&mut self, other: &TableStats) {
        self.lookups += other.lookups;
        self.probes += other.probes;
        self.hits += other.hits;
        self.resizes += other.resizes;
        self.rearrangements += other.rearrangements;
    }

    /// Reset the windowed counters (kept: resizes, rearrangements).
    pub fn reset_window(&mut self) {
        self.lookups = 0;
        self.probes = 0;
        self.hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_length_and_hit_rate() {
        let mut s = TableStats::default();
        assert_eq!(s.avg_probe_length(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        s.lookups = 10;
        s.probes = 25;
        s.hits = 4;
        assert!((s.avg_probe_length() - 2.5).abs() < 1e-12);
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
        s.resizes = 2;
        s.reset_window();
        assert_eq!(s.lookups, 0);
        assert_eq!(s.resizes, 2);
    }
}
