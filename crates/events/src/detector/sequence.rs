//! Sequence (`Seq`) pairing: a right-side occurrence combines with
//! strictly earlier left-side occurrences under each parameter context.

use crate::context::ParamContext;
use crate::occurrence::CompositeOccurrence;

use super::state::{Buffer, Env, NodeUndo};

/// Sequence pairing under each parameter context. Only left-side
/// occurrences are buffered; a right occurrence that finds no earlier
/// left can never participate later and is discarded. Drains the new
/// left occurrences `le` and right ones `re`, and appends detections to
/// `out`.
pub(super) fn pair_seq(
    id: usize,
    le: &mut Vec<CompositeOccurrence>,
    re: &mut Vec<CompositeOccurrence>,
    lbuf: &mut Buffer,
    env: &mut Env<'_>,
    out: &mut Vec<CompositeOccurrence>,
) {
    match env.context {
        ParamContext::Unrestricted => {
            for r in re.drain(..) {
                for l in lbuf.items.iter().filter(|l| l.end < r.start) {
                    out.push(CompositeOccurrence::merge(l, &r));
                }
            }
            for l in le.drain(..) {
                lbuf.push(id, 0, l, env);
            }
        }
        ParamContext::Recent => {
            for r in re.drain(..) {
                if let Some(l) = lbuf.items.back().filter(|l| l.end < r.start) {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in le.drain(..) {
                lbuf.retain_only(id, 0, l, env);
            }
        }
        ParamContext::Chronicle => {
            for r in re.drain(..) {
                if lbuf.items.front().map(|l| l.end < r.start).unwrap_or(false) {
                    let l = lbuf.pop_front(id, 0, env).expect("checked non-empty");
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in le.drain(..) {
                lbuf.push(id, 0, l, env);
            }
        }
        ParamContext::Continuous => {
            // Each buffered left is an open initiator; a right
            // terminates every strictly earlier one (one detection per
            // initiator) and consumes them.
            for r in re.drain(..) {
                if lbuf.items.iter().any(|l| l.end < r.start) {
                    for l in lbuf.items.iter().filter(|l| l.end < r.start) {
                        out.push(CompositeOccurrence::merge(l, &r));
                    }
                    if env.journaling() {
                        env.record(
                            id,
                            NodeUndo::RestoreSide {
                                side: 0,
                                items: lbuf.items.clone(),
                            },
                        );
                    }
                    lbuf.items.retain(|l| l.end >= r.start);
                }
            }
            for l in le.drain(..) {
                lbuf.push(id, 0, l, env);
            }
        }
        ParamContext::Cumulative => {
            for r in re.drain(..) {
                let r_start = r.start;
                if lbuf.items.iter().any(|l| l.end < r_start) {
                    let eligible = CompositeOccurrence::merge_all(
                        lbuf.items.iter().filter(|l| l.end < r_start),
                    );
                    out.push(CompositeOccurrence::merge(eligible, r));
                    // Journal the pre-retain contents, then consume the
                    // eligible prefix.
                    if env.journaling() {
                        env.record(
                            id,
                            NodeUndo::RestoreSide {
                                side: 0,
                                items: lbuf.items.clone(),
                            },
                        );
                    }
                    lbuf.items.retain(|l| l.end >= r_start);
                }
            }
            for l in le.drain(..) {
                lbuf.push(id, 0, l, env);
            }
        }
    }
}
