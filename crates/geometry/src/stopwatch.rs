//! The one wall clock of the solver crates, which may not name a clock
//! type themselves (DESIGN.md §11, rule D4).

use std::time::Instant;

/// A running wall clock whose every reading restarts it.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// A stopwatch started now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since the start or the previous lap; the next counts from now.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let seconds = now.duration_since(self.0).as_secs_f64();
        self.0 = now;
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_split_the_span_they_cover() {
        let mut outer = Stopwatch::start();
        let mut inner = Stopwatch::start();
        let (first, second) = (inner.lap(), inner.lap());
        let span = outer.lap();
        assert!(first >= 0.0 && second >= 0.0, "{first} {second}");
        // Rounded twice against once: allow one unit in the last place.
        assert!(first + second <= span * (1.0 + f64::EPSILON), "{first} + {second} > {span}");
    }
}
