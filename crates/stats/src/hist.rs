//! Histogram binning (the data side of the paper's histogram
//! visualization, Figure 12).

/// A binned histogram: `edges.len() == counts.len() + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bin edges, ascending; bin `i` covers `[edges[i], edges[i+1])`
    /// except the last bin, which is closed on the right.
    pub edges: Vec<f64>,
    /// Number of samples per bin.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Total number of binned samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Bin `values` into `bins` equal-width bins over `[min, max]` (numpy
/// semantics: rightmost bin closed). `None` for empty input or zero bins.
/// A zero-width range produces one bin holding everything.
pub fn histogram(values: &[f64], bins: usize) -> Option<Histogram> {
    if values.is_empty() || bins == 0 {
        return None;
    }
    let lo = crate::describe::min(values)?;
    let hi = crate::describe::max(values)?;
    if lo == hi {
        return Some(Histogram {
            edges: vec![lo, hi],
            counts: vec![values.len()],
        });
    }
    let width = (hi - lo) / bins as f64;
    let edges: Vec<f64> = (0..=bins).map(|i| lo + width * i as f64).collect();
    let mut counts = vec![0usize; bins];
    for &v in values {
        if v.is_nan() {
            continue;
        }
        let mut b = ((v - lo) / width) as usize;
        if b >= bins {
            b = bins - 1; // v == hi lands in the last (closed) bin
        }
        counts[b] += 1;
    }
    Some(Histogram { edges, counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_binning() {
        let v = [0.0, 1.0, 2.0, 3.0, 4.0];
        let h = histogram(&v, 4).unwrap();
        assert_eq!(h.counts, vec![1, 1, 1, 2]); // 4.0 joins the last bin
        assert_eq!(h.edges.len(), 5);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn empty_and_zero_bins() {
        assert!(histogram(&[], 4).is_none());
        assert!(histogram(&[1.0], 0).is_none());
    }

    #[test]
    fn constant_data_single_bin() {
        let h = histogram(&[2.0, 2.0, 2.0], 5).unwrap();
        assert_eq!(h.counts, vec![3]);
        assert_eq!(h.edges, vec![2.0, 2.0]);
    }

    #[test]
    fn nan_values_skipped() {
        let h = histogram(&[0.0, f64::NAN, 1.0], 2).unwrap();
        assert_eq!(h.total(), 2);
    }
}
