//! Code transformations triggered by weaver actions.

pub mod dce;
pub mod fold;
pub mod inline;
pub mod specialize;
pub(crate) mod subst;
pub mod tile;
pub mod unroll;
