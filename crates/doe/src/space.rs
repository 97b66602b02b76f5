//! Parameter spaces with the paper's five-level encoding.

use std::error::Error;
use std::fmt;

/// The five DoE levels of an input parameter, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Outermost low value (axial point).
    Minimum,
    /// Factorial low value (corner).
    Low,
    /// Central value.
    Central,
    /// Factorial high value (corner).
    High,
    /// Outermost high value (axial point).
    Maximum,
}

impl Level {
    /// All levels in ascending order.
    pub const ALL: [Level; 5] = [
        Level::Minimum,
        Level::Low,
        Level::Central,
        Level::High,
        Level::Maximum,
    ];

    /// Index of this level in a `[f64; 5]` level array.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Level::Minimum => 0,
            Level::Low => 1,
            Level::Central => 2,
            Level::High => 3,
            Level::Maximum => 4,
        }
    }

    /// Lowercase label as printed in Table 2 of the paper.
    pub fn label(self) -> &'static str {
        match self {
            Level::Minimum => "min",
            Level::Low => "low",
            Level::Central => "central",
            Level::High => "high",
            Level::Maximum => "max",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error constructing or using a design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// A parameter's five levels were not strictly increasing.
    UnorderedLevels {
        /// Name of the offending parameter.
        param: String,
    },
    /// The space has no parameters.
    EmptySpace,
    /// A design point had the wrong dimensionality for the space.
    DimensionMismatch {
        /// Dimensions the space expects.
        expected: usize,
        /// Dimensions the point carried.
        got: usize,
    },
    /// A factorial design over this many parameters is unrepresentable
    /// (`2^k` corner points overflow; no real campaign is this large).
    FactorialOverflow {
        /// Dimensions of the offending space.
        dims: usize,
    },
    /// A full five-level factorial over this many parameters exceeds the
    /// tractability bound — brute force at that scale is exactly what DoE
    /// exists to avoid.
    FactorialIntractable {
        /// Dimensions of the offending space.
        dims: usize,
    },
    /// A requested design size is infeasible for the strategy: too few
    /// points to fit its model, or more points than the candidate set.
    InfeasibleSize {
        /// Points requested.
        requested: usize,
        /// Smallest feasible size.
        min: usize,
        /// Largest feasible size.
        max: usize,
    },
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::UnorderedLevels { param } => {
                write!(
                    f,
                    "levels of parameter `{param}` are not strictly increasing"
                )
            }
            DesignError::EmptySpace => write!(f, "design space has no parameters"),
            DesignError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "design point has {got} coordinates, space expects {expected}"
                )
            }
            DesignError::FactorialOverflow { dims } => {
                write!(
                    f,
                    "a {dims}-parameter space needs 2^{dims} factorial corner \
                     points, which is unrepresentable"
                )
            }
            DesignError::FactorialIntractable { dims } => {
                write!(
                    f,
                    "a full five-level factorial over {dims} parameters needs \
                     5^{dims} points, past the 1000000-point tractability bound"
                )
            }
            DesignError::InfeasibleSize {
                requested,
                min,
                max,
            } => {
                write!(
                    f,
                    "a {requested}-point design is outside the feasible \
                     range {min}..={max} for this strategy"
                )
            }
        }
    }
}

impl Error for DesignError {}

/// One input parameter of an application, with its five DoE levels.
///
/// Mirrors a row of Table 2: e.g. atax's *Dimensions* parameter has levels
/// (500, 1250, 1500, 2000, 2300).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDef {
    name: String,
    levels: [f64; 5],
    integer: bool,
}

impl ParamDef {
    /// Creates a continuous parameter.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::UnorderedLevels`] if `levels` is not strictly
    /// increasing (the paper's min < low < central < high < max ordering —
    /// note Table 2 contains typographic level swaps for chol/gram which we
    /// normalize by sorting in `napel-workloads`).
    pub fn new(name: impl Into<String>, levels: [f64; 5]) -> Result<Self, DesignError> {
        let name = name.into();
        if levels.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DesignError::UnorderedLevels { param: name });
        }
        Ok(ParamDef {
            name,
            levels,
            integer: false,
        })
    }

    /// Creates an integer-valued parameter; design points round its
    /// coordinate to the nearest integer.
    ///
    /// # Errors
    ///
    /// Same as [`ParamDef::new`].
    pub fn integer(name: impl Into<String>, levels: [f64; 5]) -> Result<Self, DesignError> {
        let mut p = Self::new(name, levels)?;
        p.integer = true;
        Ok(p)
    }

    /// Parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The five level values in ascending order.
    pub fn levels(&self) -> &[f64; 5] {
        &self.levels
    }

    /// Value at a given level.
    #[inline]
    pub fn at(&self, level: Level) -> f64 {
        self.levels[level.index()]
    }

    /// Clamps and (for integer parameters) rounds a raw coordinate into the
    /// parameter's valid range `[minimum, maximum]`.
    pub fn sanitize(&self, raw: f64) -> f64 {
        let v = raw.clamp(self.levels[0], self.levels[4]);
        if self.integer {
            v.round()
        } else {
            v
        }
    }
}

/// An ordered set of input parameters — the multidimensional space of
/// Figure 3 in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
}

impl ParamSpace {
    /// Creates a space from parameter definitions.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::EmptySpace`] if `params` is empty.
    pub fn new(params: Vec<ParamDef>) -> Result<Self, DesignError> {
        if params.is_empty() {
            return Err(DesignError::EmptySpace);
        }
        Ok(ParamSpace { params })
    }

    /// Number of parameters (the `k` of CCD formulas).
    pub fn dims(&self) -> usize {
        self.params.len()
    }

    /// The parameter definitions.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// The parameter at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dims()`.
    pub fn param(&self, i: usize) -> &ParamDef {
        &self.params[i]
    }

    /// Looks up a parameter index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name() == name)
    }

    /// The point with every parameter at a given level.
    pub fn uniform_point(&self, level: Level) -> DesignPoint {
        DesignPoint::new(self.params.iter().map(|p| p.at(level)).collect())
    }

    /// Builds a sanitized point from raw coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError::DimensionMismatch`] if `raw.len() != dims()`.
    pub fn point_from_raw(&self, raw: &[f64]) -> Result<DesignPoint, DesignError> {
        if raw.len() != self.dims() {
            return Err(DesignError::DimensionMismatch {
                expected: self.dims(),
                got: raw.len(),
            });
        }
        Ok(DesignPoint::new(
            raw.iter()
                .zip(&self.params)
                .map(|(&v, p)| p.sanitize(v))
                .collect(),
        ))
    }

    /// Normalizes a point's coordinates to `[0, 1]` over each parameter's
    /// `[minimum, maximum]` range (used by distance-based samplers and the
    /// D-optimal model matrix).
    pub fn normalize(&self, point: &DesignPoint) -> Vec<f64> {
        point
            .coords()
            .iter()
            .zip(&self.params)
            .map(|(&v, p)| {
                let (lo, hi) = (p.levels[0], p.levels[4]);
                if hi > lo {
                    (v - lo) / (hi - lo)
                } else {
                    0.5
                }
            })
            .collect()
    }
}

/// One concrete input configuration: a value for every parameter of a space.
///
/// Coordinates are stored in the space's parameter order.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    coords: Vec<f64>,
}

impl DesignPoint {
    /// Creates a point from coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        DesignPoint { coords }
    }

    /// The coordinates.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn coord(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// Number of coordinates.
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// Whether two points are equal within a small tolerance (used to dedup
    /// designs whose corner and axial points coincide).
    pub fn approx_eq(&self, other: &DesignPoint) -> bool {
        self.coords.len() == other.coords.len()
            && self
                .coords
                .iter()
                .zip(&other.coords)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())))
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for DesignPoint {
    fn from(coords: Vec<f64>) -> Self {
        DesignPoint::new(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atax_space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("dimension", [500.0, 1250.0, 1500.0, 2000.0, 2300.0]).unwrap(),
            ParamDef::integer("threads", [4.0, 8.0, 16.0, 32.0, 64.0]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn unordered_levels_rejected() {
        let err = ParamDef::new("x", [1.0, 3.0, 2.0, 4.0, 5.0]).unwrap_err();
        assert_eq!(err, DesignError::UnorderedLevels { param: "x".into() });
    }

    #[test]
    fn equal_levels_rejected() {
        assert!(ParamDef::new("x", [1.0, 1.0, 2.0, 3.0, 4.0]).is_err());
    }

    #[test]
    fn empty_space_rejected() {
        assert_eq!(
            ParamSpace::new(vec![]).unwrap_err(),
            DesignError::EmptySpace
        );
    }

    #[test]
    fn level_lookup() {
        let s = atax_space();
        assert_eq!(s.param(0).at(Level::Minimum), 500.0);
        assert_eq!(s.param(0).at(Level::Central), 1500.0);
        assert_eq!(s.param(1).at(Level::Maximum), 64.0);
        assert_eq!(s.index_of("threads"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn uniform_point_is_central_config() {
        let s = atax_space();
        let c = s.uniform_point(Level::Central);
        // Paper: the central configuration for atax is (1500, 16).
        assert_eq!(c.coords(), &[1500.0, 16.0]);
    }

    #[test]
    fn sanitize_clamps_and_rounds() {
        let p = ParamDef::integer("t", [1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!(p.sanitize(3.4), 3.0);
        assert_eq!(p.sanitize(100.0), 16.0);
        assert_eq!(p.sanitize(-5.0), 1.0);
        let c = ParamDef::new("c", [0.0, 0.25, 0.5, 0.75, 1.0]).unwrap();
        assert_eq!(c.sanitize(0.33), 0.33);
    }

    #[test]
    fn point_from_raw_checks_dims() {
        let s = atax_space();
        let err = s.point_from_raw(&[1.0]).unwrap_err();
        assert_eq!(
            err,
            DesignError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
        let p = s.point_from_raw(&[1700.2, 12.0]).unwrap();
        assert_eq!(p.coords(), &[1700.0, 12.0]);
    }

    #[test]
    fn normalize_maps_range_to_unit() {
        let s = atax_space();
        let n = s.normalize(&s.uniform_point(Level::Minimum));
        assert!(n.iter().all(|&v| v.abs() < 1e-12));
        let n = s.normalize(&s.uniform_point(Level::Maximum));
        assert!(n.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = DesignPoint::new(vec![1.0, 2.0]);
        let b = DesignPoint::new(vec![1.0 + 1e-12, 2.0]);
        assert!(a.approx_eq(&b));
        let c = DesignPoint::new(vec![1.1, 2.0]);
        assert!(!a.approx_eq(&c));
    }

    #[test]
    fn display_formats_tuple() {
        let p = DesignPoint::new(vec![1500.0, 16.0]);
        assert_eq!(p.to_string(), "(1500, 16)");
    }
}
