//! Shared code for the workspace binaries: the flag parser ([`cli`]) and
//! the demo route list ([`demo_routes`]) the daemons and the load generator
//! agree on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_serve::RouteKey;

/// The three interpolation routes `sesr-netd` and every `sesr-clusterd`
/// member serve and `traffic-gen` drives — cheap enough that a loopback
/// driver exercises the front-end, not the SR math. The first is the
/// default route; the last runs the full paper preprocessing.
pub fn demo_routes() -> [RouteKey; 3] {
    [
        RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none()),
        RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none()),
        RouteKey::paper(SrModelKind::NearestNeighbor, 2),
    ]
}
