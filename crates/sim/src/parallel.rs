//! Parallel map for experiment sweeps.
//!
//! The implementation lives in [`pdftsp_cluster::parallel`] so the
//! sharded service and the sweeps share one worker pool; this
//! module re-exports it under the historical `pdftsp_sim::parallel_map`
//! path and keeps the sweep-facing contract tests (order preservation,
//! exactly-once execution) next to the sweep code that relies on them.

pub use pdftsp_cluster::parallel::{effective_workers, parallel_map};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = parallel_map(&items, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::SeqCst), 57);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_for_stateless_work() {
        let items: Vec<u64> = (0..40).collect();
        let par = parallel_map(&items, |&x| x * x % 17);
        let seq: Vec<u64> = items.iter().map(|&x| x * x % 17).collect();
        assert_eq!(par, seq);
    }
}
