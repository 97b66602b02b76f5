//! Deterministic, versioned model serialization — the artifact half of the
//! train → artifact → inference pipeline.
//!
//! NAPEL's economics (Section 4 of the paper) hinge on paying the training
//! cost once and consulting the fitted model many times; that requires
//! fitted models to outlive the process that trained them. This module
//! serializes **every** estimator family in the crate — [`DecisionTree`],
//! [`RandomForest`], [`Ridge`], [`Mlp`], [`ModelTree`], the
//! [`LogModel`] wrapper, and the [`Scaler`] — with three properties the
//! inference layer depends on:
//!
//! - **Bit-exact**: floats are written as big-endian `f64::to_bits()` hex
//!   (the same idiom as the campaign checkpoint journal), so
//!   `decode(encode(m))` predicts bit-identically to `m`. No decimal
//!   round-tripping, no platform-dependent formatting.
//! - **Deterministic**: the same model always encodes to the same bytes,
//!   so artifact diffs and content hashes are meaningful.
//! - **Versioned and validated**: every document begins with
//!   `napel-ml-model v1`; decoding checks structural invariants
//!   (decision trees in pre-order, model-tree children after their
//!   parent, layer shapes chain, weight counts match the scaler) so a
//!   corrupt or truncated document fails with a typed [`PersistError`]
//!   instead of mispredicting or looping forever.
//!
//! The format is plain whitespace-separated tokens (hand-rolled, zero-dep,
//! like the telemetry crate's JSONL): human-greppable, trivially stable.
//!
//! # Example
//!
//! ```
//! use napel_ml::dataset::Dataset;
//! use napel_ml::forest::RandomForestParams;
//! use napel_ml::persist::{decode, encode};
//! use napel_ml::{Estimator, Regressor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut b = Dataset::builder(vec!["x".into()]);
//! for i in 0..30 {
//!     b.push_row(vec![i as f64], (i as f64).sqrt())?;
//! }
//! let d = b.build()?;
//! let f = RandomForestParams::default().fit(&d, &mut StdRng::seed_from_u64(1))?;
//! let text = encode(&f);
//! let back: napel_ml::forest::RandomForest = decode(&text).unwrap();
//! assert_eq!(f.predict_one(&[7.0]).to_bits(), back.predict_one(&[7.0]).to_bits());
//! # Ok::<(), napel_ml::MlError>(())
//! ```

use std::error::Error;
use std::fmt;

use crate::ensemble::{WeightedEnsemble, NUM_MEMBERS};
use crate::forest::RandomForest;
use crate::linear::Ridge;
use crate::log_space::LogModel;
use crate::mlp::{Layer, Mlp, Network};
use crate::model_tree::{LeafModel, ModelTree, ModelTreeNode};
use crate::scaler::Scaler;
use crate::tree::{DecisionTree, Node as TreeNode, LEAF};
use crate::Regressor;

/// Leading marker token of every serialized model document.
pub const FORMAT: &str = "napel-ml-model";

/// Format version this build reads and writes.
pub const VERSION: u32 = 1;

/// Upper bound on any serialized count (features, nodes, trees, weights).
/// Far above anything a real model produces; exists so a corrupt count
/// cannot drive a huge allocation before token parsing fails.
const MAX_COUNT: usize = 1 << 24;

/// How a model document can fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The document is not a `napel-ml-model` document of a version this
    /// build understands.
    Version {
        /// The marker or version token actually found.
        found: String,
    },
    /// The document holds a different model kind than the caller asked for.
    KindMismatch {
        /// The kind the caller expected.
        expected: &'static str,
        /// The kind recorded in the document.
        found: String,
    },
    /// The document's kind token names no model family this build knows.
    UnknownKind {
        /// The unrecognized kind token.
        kind: String,
    },
    /// The document is structurally invalid: truncated, trailing data, or
    /// an invariant violation (bad child index, shape mismatch, ...).
    Corrupt {
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Version { found } => write!(
                f,
                "unsupported model document `{found}` (this build reads {FORMAT} v{VERSION})"
            ),
            PersistError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "model kind mismatch: expected `{expected}`, found `{found}`"
                )
            }
            PersistError::UnknownKind { kind } => write!(f, "unknown model kind `{kind}`"),
            PersistError::Corrupt { what } => write!(f, "corrupt model document: {what}"),
        }
    }
}

impl Error for PersistError {}

/// Token-stream writer: space-separated tokens, wrapped for greppability,
/// floats as 16-hex-digit bit patterns.
pub struct Writer {
    buf: String,
    toks_on_line: usize,
}

/// Tokens per line before wrapping (cosmetic only; the reader is
/// whitespace-agnostic).
const TOKS_PER_LINE: usize = 16;

impl Writer {
    fn new() -> Writer {
        Writer {
            buf: String::new(),
            toks_on_line: 0,
        }
    }

    /// Appends one token. Tokens must be non-empty and whitespace-free.
    pub fn tok(&mut self, t: &str) {
        debug_assert!(
            !t.is_empty() && !t.contains(char::is_whitespace),
            "invalid token {t:?}"
        );
        if self.toks_on_line == TOKS_PER_LINE {
            self.buf.push('\n');
            self.toks_on_line = 0;
        } else if self.toks_on_line > 0 {
            self.buf.push(' ');
        }
        self.buf.push_str(t);
        self.toks_on_line += 1;
    }

    /// Appends an integer token.
    pub fn int(&mut self, v: usize) {
        self.tok(&v.to_string());
    }

    /// Appends a float as its exact big-endian bit pattern in hex.
    pub fn float(&mut self, v: f64) {
        self.tok(&format!("{:016x}", v.to_bits()));
    }

    fn finish(mut self) -> String {
        if !self.buf.is_empty() {
            self.buf.push('\n');
        }
        self.buf
    }
}

/// Token-stream reader over a serialized document.
pub struct Reader<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            toks: text.split_ascii_whitespace(),
        }
    }

    /// Next token, or [`PersistError::Corrupt`] naming `what` was expected.
    pub fn tok(&mut self, what: &str) -> Result<&'a str, PersistError> {
        self.toks.next().ok_or_else(|| PersistError::Corrupt {
            what: format!("document ends where {what} was expected"),
        })
    }

    /// Consumes a token that must equal `lit`.
    pub fn expect(&mut self, lit: &str) -> Result<(), PersistError> {
        let t = self.tok(lit)?;
        if t == lit {
            Ok(())
        } else {
            Err(PersistError::Corrupt {
                what: format!("expected `{lit}`, found `{t}`"),
            })
        }
    }

    /// Parses an integer token.
    pub fn int(&mut self, what: &str) -> Result<usize, PersistError> {
        let t = self.tok(what)?;
        t.parse().map_err(|_| PersistError::Corrupt {
            what: format!("{what} is not an integer: `{t}`"),
        })
    }

    /// Parses an integer token bounded by [`MAX_COUNT`] (for allocations).
    pub fn count(&mut self, what: &str) -> Result<usize, PersistError> {
        let n = self.int(what)?;
        if n > MAX_COUNT {
            return Err(PersistError::Corrupt {
                what: format!("{what} {n} exceeds the format bound {MAX_COUNT}"),
            });
        }
        Ok(n)
    }

    /// Parses a float token (16 hex digits of the IEEE-754 bit pattern).
    pub fn float(&mut self, what: &str) -> Result<f64, PersistError> {
        let t = self.tok(what)?;
        if t.len() != 16 {
            return Err(PersistError::Corrupt {
                what: format!("{what} is not a 16-digit hex float: `{t}`"),
            });
        }
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| PersistError::Corrupt {
                what: format!("{what} is not a 16-digit hex float: `{t}`"),
            })
    }

    /// Asserts the document is fully consumed (drift / trailing-garbage
    /// detection).
    fn finish(&mut self) -> Result<(), PersistError> {
        match self.toks.next() {
            None => Ok(()),
            Some(t) => Err(PersistError::Corrupt {
                what: format!("trailing data starting at `{t}`"),
            }),
        }
    }
}

/// A model family with a stable on-disk payload.
///
/// Implementations write/read only their payload; [`encode`] and [`decode`]
/// add the `napel-ml-model v1 <kind>` envelope around it.
pub trait Persist: Sized {
    /// Stable kind token identifying this family in a document.
    const KIND: &'static str;

    /// Writes the payload (everything after the kind token).
    fn write_payload(&self, w: &mut Writer);

    /// Reads the payload, validating structural invariants.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] on any structural violation.
    fn read_payload(r: &mut Reader) -> Result<Self, PersistError>;
}

/// Serializes a model as a complete versioned document.
pub fn encode<P: Persist>(model: &P) -> String {
    let mut w = Writer::new();
    w.tok(FORMAT);
    w.tok(&format!("v{VERSION}"));
    w.tok(P::KIND);
    model.write_payload(&mut w);
    w.finish()
}

fn read_header(r: &mut Reader) -> Result<(), PersistError> {
    let marker = r.tok("format marker")?;
    if marker != FORMAT {
        return Err(PersistError::Version {
            found: marker.to_string(),
        });
    }
    let version = r.tok("format version")?;
    if version != format!("v{VERSION}") {
        return Err(PersistError::Version {
            found: version.to_string(),
        });
    }
    Ok(())
}

fn expect_kind(r: &mut Reader, expected: &'static str) -> Result<(), PersistError> {
    let kind = r.tok("model kind")?;
    if kind == expected {
        Ok(())
    } else {
        Err(PersistError::KindMismatch {
            expected,
            found: kind.to_string(),
        })
    }
}

/// Deserializes a model of a statically known family.
///
/// # Errors
///
/// [`PersistError::Version`] on a foreign or newer document,
/// [`PersistError::KindMismatch`] if the document holds another family, and
/// [`PersistError::Corrupt`] on structural damage (including trailing data).
pub fn decode<P: Persist>(text: &str) -> Result<P, PersistError> {
    let mut r = Reader::new(text);
    read_header(&mut r)?;
    expect_kind(&mut r, P::KIND)?;
    let model = P::read_payload(&mut r)?;
    r.finish()?;
    Ok(model)
}

/// A fitted model that can be served behind a uniform, object-safe
/// interface: predict, introspect, re-serialize.
///
/// This is the inference layer's currency — `Box<dyn Predictor>` is what a
/// loaded artifact hands back when the caller does not (or cannot) name the
/// concrete family at compile time.
pub trait Predictor: Regressor + fmt::Debug {
    /// Stable kind label, e.g. `forest` or `log(forest)`.
    fn model_kind(&self) -> String;

    /// Input dimensionality the model was fitted on.
    fn num_features(&self) -> usize;

    /// Serializes the model as a complete versioned document
    /// (round-trips through [`decode`] / [`decode_any`]).
    fn encode_model(&self) -> String;
}

macro_rules! impl_predictor {
    ($ty:ty) => {
        impl Predictor for $ty {
            fn model_kind(&self) -> String {
                <$ty as Persist>::KIND.to_string()
            }

            fn num_features(&self) -> usize {
                // Inherent accessor, not a recursive trait call.
                <$ty>::num_features(self)
            }

            fn encode_model(&self) -> String {
                encode(self)
            }
        }
    };
}

impl_predictor!(DecisionTree);
impl_predictor!(RandomForest);
impl_predictor!(Ridge);
impl_predictor!(Mlp);
impl_predictor!(ModelTree);
impl_predictor!(WeightedEnsemble);

impl<M: Predictor + Persist> Predictor for LogModel<M> {
    fn model_kind(&self) -> String {
        format!("log({})", self.inner().model_kind())
    }

    fn num_features(&self) -> usize {
        self.inner().num_features()
    }

    fn encode_model(&self) -> String {
        encode(self)
    }
}

impl Predictor for Box<dyn Predictor> {
    fn model_kind(&self) -> String {
        (**self).model_kind()
    }

    fn num_features(&self) -> usize {
        (**self).num_features()
    }

    fn encode_model(&self) -> String {
        (**self).encode_model()
    }
}

impl Predictor for Box<dyn Predictor + Send + Sync> {
    fn model_kind(&self) -> String {
        (**self).model_kind()
    }

    fn num_features(&self) -> usize {
        (**self).num_features()
    }

    fn encode_model(&self) -> String {
        (**self).encode_model()
    }
}

/// Deserializes a model whose family is known only from the document
/// itself, returning it behind the object-safe [`Predictor`] interface.
///
/// # Errors
///
/// As [`decode`], plus [`PersistError::UnknownKind`] for a kind token this
/// build does not implement.
pub fn decode_any(text: &str) -> Result<Box<dyn Predictor + Send + Sync>, PersistError> {
    let mut r = Reader::new(text);
    read_header(&mut r)?;
    let kind = r.tok("model kind")?;
    let model: Box<dyn Predictor + Send + Sync> = match kind {
        DecisionTree::KIND => Box::new(DecisionTree::read_payload(&mut r)?),
        RandomForest::KIND => Box::new(RandomForest::read_payload(&mut r)?),
        Ridge::KIND => Box::new(Ridge::read_payload(&mut r)?),
        Mlp::KIND => Box::new(Mlp::read_payload(&mut r)?),
        ModelTree::KIND => Box::new(ModelTree::read_payload(&mut r)?),
        WeightedEnsemble::KIND => Box::new(WeightedEnsemble::read_payload(&mut r)?),
        "log" => {
            let inner = r.tok("log-wrapped model kind")?;
            match inner {
                DecisionTree::KIND => Box::new(LogModel::new(DecisionTree::read_payload(&mut r)?)),
                RandomForest::KIND => Box::new(LogModel::new(RandomForest::read_payload(&mut r)?)),
                Ridge::KIND => Box::new(LogModel::new(Ridge::read_payload(&mut r)?)),
                Mlp::KIND => Box::new(LogModel::new(Mlp::read_payload(&mut r)?)),
                ModelTree::KIND => Box::new(LogModel::new(ModelTree::read_payload(&mut r)?)),
                WeightedEnsemble::KIND => {
                    Box::new(LogModel::new(WeightedEnsemble::read_payload(&mut r)?))
                }
                // No estimator produces a doubly-wrapped log model; a
                // document claiming one is damaged, not merely foreign.
                "log" => {
                    return Err(PersistError::Corrupt {
                        what: "nested log wrapper".to_string(),
                    })
                }
                other => {
                    return Err(PersistError::UnknownKind {
                        kind: format!("log({other})"),
                    })
                }
            }
        }
        other => {
            return Err(PersistError::UnknownKind {
                kind: other.to_string(),
            })
        }
    };
    r.finish()?;
    Ok(model)
}

impl Persist for Scaler {
    const KIND: &'static str = "scaler";

    fn write_payload(&self, w: &mut Writer) {
        w.int(self.num_features());
        for &(mean, std) in self.moments() {
            w.float(mean);
            w.float(std);
        }
        let (tm, ts) = self.target_moments();
        w.float(tm);
        w.float(ts);
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        let n = r.count("scaler feature count")?;
        let mut moments = Vec::with_capacity(n);
        for j in 0..n {
            let mean = r.float("feature mean")?;
            let std = r.float("feature std")?;
            if !(mean.is_finite() && std.is_finite() && std > 0.0) {
                return Err(PersistError::Corrupt {
                    what: format!("feature {j} moments ({mean}, {std}) are not usable"),
                });
            }
            moments.push((mean, std));
        }
        let tm = r.float("target mean")?;
        let ts = r.float("target std")?;
        if !(tm.is_finite() && ts.is_finite() && ts > 0.0) {
            return Err(PersistError::Corrupt {
                what: format!("target moments ({tm}, {ts}) are not usable"),
            });
        }
        Ok(Scaler::from_parts(moments, tm, ts))
    }
}

impl Persist for DecisionTree {
    const KIND: &'static str = "tree";

    fn write_payload(&self, w: &mut Writer) {
        w.int(self.num_features());
        w.int(self.num_nodes());
        for (i, node) in self.nodes().iter().enumerate() {
            if node.is_leaf() {
                w.tok("l");
                w.float(node.threshold);
            } else {
                w.tok("s");
                w.int(node.feature as usize);
                w.float(node.threshold);
                w.int(i + 1);
                w.int(node.right as usize);
            }
        }
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        let num_features = r.count("tree feature count")?;
        let num_nodes = r.count("tree node count")?;
        if num_nodes == 0 {
            return Err(PersistError::Corrupt {
                what: "tree has zero nodes".to_string(),
            });
        }
        let mut nodes = Vec::with_capacity(num_nodes);
        for i in 0..num_nodes {
            match r.tok("tree node tag")? {
                "l" => nodes.push(TreeNode::leaf(r.float("leaf value")?)),
                "s" => {
                    let feature = r.int("split feature")?;
                    let threshold = r.float("split threshold")?;
                    let left = r.int("split left child")?;
                    let right = r.int("split right child")?;
                    if feature >= num_features {
                        return Err(PersistError::Corrupt {
                            what: format!("node {i} splits on feature {feature} of {num_features}"),
                        });
                    }
                    // Trees are stored in pre-order: the left child is the
                    // next node and the right child comes after it, which
                    // keeps traversal of any accepted document finite.
                    if left != i + 1 || right <= left || right >= num_nodes {
                        return Err(PersistError::Corrupt {
                            what: format!(
                                "node {i} children ({left}, {right}) break pre-order \
                                 (need {} = left < right < {num_nodes})",
                                i + 1
                            ),
                        });
                    }
                    nodes.push(TreeNode {
                        threshold,
                        feature: narrow(feature, i, "feature")?,
                        right: narrow(right, i, "right child")?,
                    });
                }
                t => {
                    return Err(PersistError::Corrupt {
                        what: format!("unknown tree node tag `{t}`"),
                    })
                }
            }
        }
        Ok(DecisionTree::from_parts(nodes, num_features))
    }
}

/// Narrows node `i`'s `what` index to the `u32` of a tree node.
fn narrow(index: usize, i: usize, what: &str) -> Result<u32, PersistError> {
    u32::try_from(index)
        .ok()
        .filter(|&v| v != LEAF)
        .ok_or_else(|| PersistError::Corrupt {
            what: format!("node {i} {what} {index} does not fit a tree node"),
        })
}

impl Persist for RandomForest {
    const KIND: &'static str = "forest";

    fn write_payload(&self, w: &mut Writer) {
        w.int(self.num_features());
        w.int(self.num_trees());
        match self.oob_mse() {
            Some(v) => {
                w.tok("oob");
                w.float(v);
            }
            None => w.tok("no-oob"),
        }
        for tree in self.trees() {
            tree.write_payload(w);
        }
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        let num_features = r.count("forest feature count")?;
        let num_trees = r.count("forest tree count")?;
        if num_trees == 0 {
            return Err(PersistError::Corrupt {
                what: "forest has zero trees".to_string(),
            });
        }
        let oob_mse = match r.tok("forest oob tag")? {
            "oob" => Some(r.float("oob mse")?),
            "no-oob" => None,
            t => {
                return Err(PersistError::Corrupt {
                    what: format!("unknown forest oob tag `{t}`"),
                })
            }
        };
        let mut trees = Vec::with_capacity(num_trees);
        for k in 0..num_trees {
            let tree = DecisionTree::read_payload(r)?;
            if tree.num_features() != num_features {
                return Err(PersistError::Corrupt {
                    what: format!(
                        "tree {k} has {} features, forest has {num_features}",
                        tree.num_features()
                    ),
                });
            }
            trees.push(tree);
        }
        Ok(RandomForest::from_parts(trees, num_features, oob_mse))
    }
}

impl Persist for Ridge {
    const KIND: &'static str = "ridge";

    fn write_payload(&self, w: &mut Writer) {
        self.scaler().write_payload(w);
        let weights = self.raw_weights();
        w.int(weights.len());
        for &v in weights {
            w.float(v);
        }
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        let scaler = Scaler::read_payload(r)?;
        let k = r.count("ridge weight count")?;
        if k != scaler.num_features() + 1 {
            return Err(PersistError::Corrupt {
                what: format!(
                    "ridge has {k} weights for {} features (+1 intercept expected)",
                    scaler.num_features()
                ),
            });
        }
        let mut weights = Vec::with_capacity(k);
        for _ in 0..k {
            weights.push(r.float("ridge weight")?);
        }
        Ok(Ridge::from_parts(scaler, weights))
    }
}

impl Persist for Mlp {
    const KIND: &'static str = "mlp";

    fn write_payload(&self, w: &mut Writer) {
        let (scaler, net) = self.parts();
        scaler.write_payload(w);
        w.int(net.layers.len());
        for layer in &net.layers {
            w.int(layer.rows);
            w.int(layer.cols);
            for &v in &layer.w {
                w.float(v);
            }
            for &v in &layer.b {
                w.float(v);
            }
        }
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        let scaler = Scaler::read_payload(r)?;
        let num_layers = r.count("mlp layer count")?;
        if num_layers == 0 {
            return Err(PersistError::Corrupt {
                what: "mlp has zero layers".to_string(),
            });
        }
        let mut layers: Vec<Layer> = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let rows = r.count("layer rows")?;
            let cols = r.count("layer cols")?;
            if rows == 0 || cols == 0 {
                return Err(PersistError::Corrupt {
                    what: format!("layer {l} has degenerate shape {rows}x{cols}"),
                });
            }
            let expect_cols = if l == 0 {
                scaler.num_features()
            } else {
                layers[l - 1].rows
            };
            if cols != expect_cols {
                return Err(PersistError::Corrupt {
                    what: format!("layer {l} takes {cols} inputs, {expect_cols} produced"),
                });
            }
            let nw = rows.checked_mul(cols).filter(|&n| n <= MAX_COUNT).ok_or(
                PersistError::Corrupt {
                    what: format!("layer {l} shape {rows}x{cols} exceeds the format bound"),
                },
            )?;
            let mut weights = Vec::with_capacity(nw);
            for _ in 0..nw {
                weights.push(r.float("layer weight")?);
            }
            let mut biases = Vec::with_capacity(rows);
            for _ in 0..rows {
                biases.push(r.float("layer bias")?);
            }
            layers.push(Layer {
                w: weights,
                b: biases,
                rows,
                cols,
            });
        }
        if layers[num_layers - 1].rows != 1 {
            return Err(PersistError::Corrupt {
                what: format!(
                    "output layer produces {} values, regression needs 1",
                    layers[num_layers - 1].rows
                ),
            });
        }
        Ok(Mlp::from_parts(scaler, Network { layers }))
    }
}

impl Persist for ModelTree {
    const KIND: &'static str = "model_tree";

    fn write_payload(&self, w: &mut Writer) {
        w.int(self.num_features());
        w.int(self.nodes().len());
        for node in self.nodes() {
            match node {
                ModelTreeNode::Leaf {
                    model: LeafModel::Linear(ridge),
                } => {
                    w.tok("ll");
                    ridge.write_payload(w);
                }
                ModelTreeNode::Leaf {
                    model: LeafModel::Constant(c),
                } => {
                    w.tok("lc");
                    w.float(*c);
                }
                ModelTreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    w.tok("s");
                    w.int(*feature);
                    w.float(*threshold);
                    w.int(*left);
                    w.int(*right);
                }
            }
        }
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        let num_features = r.count("model-tree feature count")?;
        let num_nodes = r.count("model-tree node count")?;
        if num_nodes == 0 {
            return Err(PersistError::Corrupt {
                what: "model tree has zero nodes".to_string(),
            });
        }
        let mut nodes = Vec::with_capacity(num_nodes);
        for i in 0..num_nodes {
            match r.tok("model-tree node tag")? {
                "ll" => {
                    let ridge = Ridge::read_payload(r)?;
                    if ridge.num_features() != num_features {
                        return Err(PersistError::Corrupt {
                            what: format!(
                                "leaf {i} ridge has {} features, tree has {num_features}",
                                ridge.num_features()
                            ),
                        });
                    }
                    nodes.push(ModelTreeNode::Leaf {
                        model: LeafModel::Linear(ridge),
                    });
                }
                "lc" => nodes.push(ModelTreeNode::Leaf {
                    model: LeafModel::Constant(r.float("leaf constant")?),
                }),
                "s" => {
                    let feature = r.int("split feature")?;
                    let threshold = r.float("split threshold")?;
                    let left = r.int("split left child")?;
                    let right = r.int("split right child")?;
                    if feature >= num_features {
                        return Err(PersistError::Corrupt {
                            what: format!("node {i} splits on feature {feature} of {num_features}"),
                        });
                    }
                    if left <= i || left >= num_nodes || right <= i || right >= num_nodes {
                        return Err(PersistError::Corrupt {
                            what: format!(
                                "node {i} children ({left}, {right}) escape ({i}, {num_nodes})"
                            ),
                        });
                    }
                    nodes.push(ModelTreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    });
                }
                t => {
                    return Err(PersistError::Corrupt {
                        what: format!("unknown model-tree node tag `{t}`"),
                    })
                }
            }
        }
        Ok(ModelTree::from_parts(nodes, num_features))
    }
}

impl Persist for WeightedEnsemble {
    const KIND: &'static str = "ensemble";

    fn write_payload(&self, w: &mut Writer) {
        w.int(self.num_features());
        for weight in self.weights() {
            w.float(weight);
        }
        // Each member payload is prefixed by its own kind token, so a
        // reordered or truncated document fails on the token, not deep
        // inside the wrong member's structure.
        w.tok(RandomForest::KIND);
        self.forest().write_payload(w);
        w.tok(ModelTree::KIND);
        self.model_tree().write_payload(w);
        w.tok(Mlp::KIND);
        self.mlp().write_payload(w);
        w.tok(Ridge::KIND);
        self.ridge().write_payload(w);
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        let num_features = r.count("ensemble feature count")?;
        let mut weights = [0.0; NUM_MEMBERS];
        for (i, slot) in weights.iter_mut().enumerate() {
            let w = r.float("ensemble weight")?;
            if !w.is_finite() || w <= 0.0 {
                return Err(PersistError::Corrupt {
                    what: format!("ensemble weight {i} ({w}) is not positive and finite"),
                });
            }
            *slot = w;
        }
        r.expect(RandomForest::KIND)?;
        let forest = RandomForest::read_payload(r)?;
        r.expect(ModelTree::KIND)?;
        let model_tree = ModelTree::read_payload(r)?;
        r.expect(Mlp::KIND)?;
        let mlp = Mlp::read_payload(r)?;
        r.expect(Ridge::KIND)?;
        let ridge = Ridge::read_payload(r)?;
        for (name, got) in [
            ("forest", forest.num_features()),
            ("model tree", model_tree.num_features()),
            ("mlp", mlp.num_features()),
            ("ridge", ridge.num_features()),
        ] {
            if got != num_features {
                return Err(PersistError::Corrupt {
                    what: format!("{name} member has {got} features, ensemble has {num_features}"),
                });
            }
        }
        Ok(WeightedEnsemble::from_parts(
            forest,
            model_tree,
            mlp,
            ridge,
            weights,
            num_features,
        ))
    }
}

impl<M: Persist + Regressor> Persist for LogModel<M> {
    const KIND: &'static str = "log";

    fn write_payload(&self, w: &mut Writer) {
        w.tok(M::KIND);
        self.inner().write_payload(w);
    }

    fn read_payload(r: &mut Reader) -> Result<Self, PersistError> {
        expect_kind(r, M::KIND)?;
        Ok(LogModel::new(M::read_payload(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::RandomForestParams;
    use crate::linear::RidgeParams;
    use crate::log_space::LogOf;
    use crate::mlp::MlpParams;
    use crate::model_tree::ModelTreeParams;
    use crate::tree::DecisionTreeParams;
    use crate::Estimator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data() -> Dataset {
        let mut b = Dataset::builder(vec!["x".into(), "z".into()]);
        for i in 0..40 {
            let x = i as f64 / 4.0;
            let z = ((i * 5) % 7) as f64;
            b.push_row(vec![x, z], (x * x + z).max(0.1)).unwrap();
        }
        b.build().unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    /// Asserts encode → decode → predict is bit-identical over every row
    /// (and a couple of off-distribution probes), and that re-encoding the
    /// decoded model reproduces the exact same document.
    fn assert_round_trip<M: Persist + Regressor>(m: &M, d: &Dataset) {
        let text = encode(m);
        let back: M = decode(&text).expect("round trip decodes");
        for i in 0..d.len() {
            assert_eq!(
                m.predict_one(d.row(i)).to_bits(),
                back.predict_one(d.row(i)).to_bits(),
                "row {i} prediction drifted"
            );
        }
        for probe in [[-3.0, 0.0], [1e6, -5.0]] {
            assert_eq!(
                m.predict_one(&probe).to_bits(),
                back.predict_one(&probe).to_bits()
            );
        }
        assert_eq!(text, encode(&back), "re-encoding must be deterministic");
    }

    #[test]
    fn tree_round_trip() {
        let d = data();
        let m = DecisionTreeParams::default().fit(&d, &mut rng()).unwrap();
        assert_round_trip(&m, &d);
    }

    #[test]
    fn forest_round_trip_preserves_oob() {
        let d = data();
        let m = RandomForestParams {
            num_trees: 12,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        assert_round_trip(&m, &d);
        let back: RandomForest = decode(&encode(&m)).unwrap();
        assert_eq!(back.num_trees(), 12);
        assert_eq!(
            m.oob_mse().unwrap().to_bits(),
            back.oob_mse().unwrap().to_bits()
        );
    }

    #[test]
    fn ridge_round_trip_is_exact() {
        let d = data();
        let m = RidgeParams::default().fit(&d, &mut rng()).unwrap();
        assert_round_trip(&m, &d);
        let back: Ridge = decode(&encode(&m)).unwrap();
        assert_eq!(m, back, "ridge derives PartialEq; decoded value must match");
    }

    #[test]
    fn mlp_round_trip() {
        let d = data();
        let m = MlpParams {
            hidden: vec![6, 4],
            epochs: 40,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        assert_round_trip(&m, &d);
    }

    #[test]
    fn model_tree_round_trip() {
        let d = data();
        let m = ModelTreeParams::default().fit(&d, &mut rng()).unwrap();
        assert_round_trip(&m, &d);
    }

    fn quick_ensemble_params() -> crate::ensemble::EnsembleParams {
        crate::ensemble::EnsembleParams {
            forest: RandomForestParams {
                num_trees: 6,
                ..Default::default()
            },
            mlp: MlpParams {
                epochs: 20,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn ensemble_round_trip_preserves_weights() {
        let d = data();
        let m = quick_ensemble_params().fit(&d, &mut rng()).unwrap();
        assert_round_trip(&m, &d);
        let back: WeightedEnsemble = decode(&encode(&m)).unwrap();
        for (a, b) in m.weights().iter().zip(back.weights()) {
            assert_eq!(a.to_bits(), b.to_bits(), "weight drifted through persist");
        }
    }

    #[test]
    fn log_wrapped_ensemble_round_trip() {
        let d = data();
        let m = LogOf(quick_ensemble_params()).fit(&d, &mut rng()).unwrap();
        assert_round_trip(&m, &d);
        let any = decode_any(&encode(&m)).unwrap();
        assert_eq!(any.model_kind(), "log(ensemble)");
        assert_eq!(
            any.predict_one(d.row(4)).to_bits(),
            m.predict_one(d.row(4)).to_bits()
        );
        assert_eq!(any.encode_model(), encode(&m));
    }

    #[test]
    fn ensemble_decode_rejects_bad_weights_and_member_order() {
        let d = data();
        let m = quick_ensemble_params().fit(&d, &mut rng()).unwrap();
        let text = encode(&m);
        // Corrupt the first weight into a NaN bit pattern.
        let w0 = format!("{:016x}", m.weights()[0].to_bits());
        let nan = format!("{:016x}", f64::NAN.to_bits());
        let bad = text.replacen(&w0, &nan, 1);
        assert!(matches!(
            decode::<WeightedEnsemble>(&bad).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        // Swap the first member's kind token: fails on the token itself.
        let bad = text.replacen(" forest ", " mlp ", 1);
        assert!(matches!(
            decode::<WeightedEnsemble>(&bad).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
    }

    #[test]
    fn log_wrapped_round_trip() {
        let d = data();
        let m = LogOf(RandomForestParams {
            num_trees: 8,
            ..Default::default()
        })
        .fit(&d, &mut rng())
        .unwrap();
        assert_round_trip(&m, &d);
        let mt = LogOf(ModelTreeParams::default())
            .fit(&d, &mut rng())
            .unwrap();
        assert_round_trip(&mt, &d);
        let mlp = LogOf(MlpParams {
            epochs: 20,
            ..Default::default()
        })
        .fit(&d, &mut rng())
        .unwrap();
        assert_round_trip(&mlp, &d);
    }

    #[test]
    fn scaler_round_trip_is_exact() {
        let d = data();
        let s = Scaler::fit(&d);
        let back: Scaler = decode(&encode(&s)).unwrap();
        assert_eq!(s, back);
        for i in 0..d.len() {
            let a = s.transform_features(d.row(i));
            let b = back.transform_features(d.row(i));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn decode_any_dispatches_on_kind() {
        let d = data();
        let forest = RandomForestParams {
            num_trees: 6,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let any = decode_any(&encode(&forest)).unwrap();
        assert_eq!(any.model_kind(), "forest");
        assert_eq!(any.num_features(), 2);
        assert_eq!(
            any.predict_one(d.row(3)).to_bits(),
            forest.predict_one(d.row(3)).to_bits()
        );

        let log = LogOf(RandomForestParams {
            num_trees: 6,
            ..Default::default()
        })
        .fit(&d, &mut rng())
        .unwrap();
        let any = decode_any(&encode(&log)).unwrap();
        assert_eq!(any.model_kind(), "log(forest)");
        assert_eq!(
            any.predict_one(d.row(3)).to_bits(),
            log.predict_one(d.row(3)).to_bits()
        );
        // decode_any output re-encodes to the same document.
        assert_eq!(any.encode_model(), encode(&log));
    }

    #[test]
    fn version_and_format_are_enforced() {
        let d = data();
        let m = DecisionTreeParams::default().fit(&d, &mut rng()).unwrap();
        let text = encode(&m);
        let newer = text.replacen("v1", "v9", 1);
        assert_eq!(
            decode::<DecisionTree>(&newer).unwrap_err(),
            PersistError::Version {
                found: "v9".to_string()
            }
        );
        assert!(matches!(
            decode::<DecisionTree>("some other file\n").unwrap_err(),
            PersistError::Version { .. }
        ));
        assert!(matches!(
            decode::<DecisionTree>("").unwrap_err(),
            PersistError::Corrupt { .. }
        ));
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let d = data();
        let m = DecisionTreeParams::default().fit(&d, &mut rng()).unwrap();
        let err = decode::<RandomForest>(&encode(&m)).unwrap_err();
        assert_eq!(
            err,
            PersistError::KindMismatch {
                expected: "forest",
                found: "tree".to_string()
            }
        );
    }

    #[test]
    fn unknown_kind_is_typed() {
        let text = format!("{FORMAT} v{VERSION} blob 1 2 3\n");
        assert_eq!(
            decode_any(&text).unwrap_err(),
            PersistError::UnknownKind {
                kind: "blob".to_string()
            }
        );
    }

    #[test]
    fn truncated_and_trailing_documents_are_rejected() {
        let d = data();
        let m = RandomForestParams {
            num_trees: 4,
            ..Default::default()
        }
        .fit(&d, &mut rng())
        .unwrap();
        let text = encode(&m);
        let cut = &text[..text.len() - 20];
        assert!(matches!(
            decode::<RandomForest>(cut).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        let trailing = format!("{text} deadbeef");
        assert!(matches!(
            decode::<RandomForest>(&trailing).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
    }

    #[test]
    fn cyclic_child_indices_are_rejected() {
        // A split whose child points at itself would loop forever if
        // accepted; the arena invariant (children strictly after parent)
        // must reject it.
        let zero = format!("{:016x}", 0f64.to_bits());
        let text = format!("{FORMAT} v{VERSION} tree 1 2 s 0 {zero} 0 1 l {zero}\n");
        let err = decode::<DecisionTree>(&text).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt { what } if what.contains("children")),
            "{err}"
        );
    }

    #[test]
    fn splits_out_of_pre_order_are_rejected() {
        // Acyclic trees the former arena decoder accepted, but no writer
        // ever produced: the left child must be the next node.
        let zero = format!("{:016x}", 0f64.to_bits());
        for (nodes, bad) in [
            (format!("s 0 {zero} 2 1 l {zero} l {zero}"), "node 0"),
            (format!("s 0 {zero} 1 1 l {zero} l {zero}"), "node 0"),
            (
                format!("s 0 {zero} 1 4 s 0 {zero} 3 2 l {zero} l {zero} l {zero}"),
                "node 1",
            ),
        ] {
            let count = nodes.matches(['l', 's']).count();
            let text = format!("{FORMAT} v{VERSION} tree 1 {count} {nodes}\n");
            let err = decode::<DecisionTree>(&text).unwrap_err();
            assert!(
                matches!(&err, PersistError::Corrupt { what } if what.contains(bad) && what.contains("pre-order")),
                "{err}"
            );
        }
        // The same trees in pre-order decode.
        let text = format!("{FORMAT} v{VERSION} tree 1 3 s 0 {zero} 1 2 l {zero} l {zero}\n");
        assert!(decode::<DecisionTree>(&text).is_ok());
    }

    #[test]
    fn indices_beyond_u32_are_rejected() {
        let zero = format!("{:016x}", 0f64.to_bits());
        let big = u64::from(u32::MAX) + 1;
        for text in [
            format!("{FORMAT} v{VERSION} tree {big} 1 l {zero}\n"),
            format!("{FORMAT} v{VERSION} tree 1 {big} l {zero}\n"),
            format!("{FORMAT} v{VERSION} tree 1 3 s {big} {zero} 1 2 l {zero} l {zero}\n"),
            format!("{FORMAT} v{VERSION} tree 1 3 s 0 {zero} 1 {big} l {zero} l {zero}\n"),
            format!("{FORMAT} v{VERSION} tree 1 3 s 0 {zero} {big} 2 l {zero} l {zero}\n"),
        ] {
            assert!(
                matches!(
                    decode::<DecisionTree>(&text),
                    Err(PersistError::Corrupt { .. })
                ),
                "{text}"
            );
        }
        assert!(narrow(usize::try_from(big).unwrap(), 7, "feature")
            .unwrap_err()
            .to_string()
            .contains("node 7 feature"));
        assert!(narrow(LEAF as usize, 0, "right child").is_err());
        assert_eq!(narrow(5, 0, "feature"), Ok(5));
    }

    #[test]
    fn zero_tree_forest_document_is_rejected() {
        let text = format!("{FORMAT} v{VERSION} forest 2 0 no-oob\n");
        let err = decode::<RandomForest>(&text).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt { what } if what.contains("zero trees")),
            "{err}"
        );
    }

    #[test]
    fn nested_log_wrapper_is_rejected() {
        let text = format!("{FORMAT} v{VERSION} log log forest\n");
        assert!(matches!(
            decode_any(&text).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
    }

    #[test]
    fn huge_count_fails_before_allocating() {
        let text = format!("{FORMAT} v{VERSION} scaler 99999999999\n");
        assert!(matches!(
            decode::<Scaler>(&text).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
    }

    #[test]
    fn error_messages_follow_house_style() {
        // Lowercase start, no trailing period — same contract as MlError.
        for err in [
            PersistError::Version { found: "x".into() },
            PersistError::KindMismatch {
                expected: "forest",
                found: "tree".into(),
            },
            PersistError::UnknownKind { kind: "x".into() },
            PersistError::Corrupt { what: "y".into() },
        ] {
            let msg = err.to_string();
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }
}
