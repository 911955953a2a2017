//! Derivative-free local optimisation on locally convex objectives.
//!
//! Sec. 5.1 of the paper observes that the residual `R(f1, …, fK)` is
//! locally convex in the frequency-offset hypotheses (Fig. 4) and minimises
//! it with stochastic gradient descent from random starting points. The
//! estimator minimises it with damped Gauss–Newton steps over all `K`
//! frequencies at once (`choir_core::estimator::GramFit::descend`, which
//! lives with the residual it minimises); what is left here is the 1-D
//! search on a unimodal interval, [`golden_section`] — the polish of the
//! estimator's one basin-hopping sweep, and of two single-offset searches
//! in the decoder (discovery's offset polish, the CFO fit a subtraction
//! uses).

/// Result of an optimisation run.
#[derive(Clone, Debug, PartialEq)]
pub struct Optimum {
    /// Minimising point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evals: usize,
}

/// Golden-section search for the minimum of a unimodal `f` on `[a, b]`.
/// Returns `(x_min, f(x_min))` with bracket width ≤ `tol`.
pub fn golden_section<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
) -> (f64, f64) {
    assert!(b >= a, "golden_section: b < a");
    const INVPHI: f64 = 0.618_033_988_749_894_9; // 1/φ
    let mut c = b - (b - a) * INVPHI;
    let mut d = a + (b - a) * INVPHI;
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INVPHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INVPHI;
            fd = f(d);
        }
    }
    let xm = 0.5 * (a + b);
    let fm = f(xm);
    if fm <= fc && fm <= fd {
        (xm, fm)
    } else if fc < fd {
        (c, fc)
    } else {
        (d, fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_quadratic() {
        let (x, v) = golden_section(|x| (x - 2.3) * (x - 2.3) + 1.0, 0.0, 5.0, 1e-8);
        assert!((x - 2.3).abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_boundary_minimum() {
        // Monotone decreasing: minimum at the right edge.
        let (x, _) = golden_section(|x| -x, 0.0, 1.0, 1e-8);
        assert!(x > 1.0 - 1e-6);
    }
}
