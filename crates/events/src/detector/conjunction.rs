//! Conjunction (`And`) pairing: how a new occurrence on one side
//! combines with the buffered occurrences of the other under each
//! parameter context.

use crate::context::ParamContext;
use crate::occurrence::CompositeOccurrence;

use super::state::{Buffer, Env};

/// Conjunction pairing under each parameter context: drains the new
/// left/right operand occurrences `le`/`re` and appends detections to
/// `out`.
pub(super) fn pair_and(
    id: usize,
    le: &mut Vec<CompositeOccurrence>,
    re: &mut Vec<CompositeOccurrence>,
    lbuf: &mut Buffer,
    rbuf: &mut Buffer,
    env: &mut Env<'_>,
    out: &mut Vec<CompositeOccurrence>,
) {
    match env.context {
        ParamContext::Unrestricted => {
            for l in le.iter() {
                for r in rbuf.items.iter() {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for r in re.iter() {
                for l in lbuf.items.iter() {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in le.iter() {
                for r in re.iter() {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in le.drain(..) {
                lbuf.push(id, 0, l, env);
            }
            for r in re.drain(..) {
                rbuf.push(id, 1, r, env);
            }
        }
        ParamContext::Recent => {
            // Each side retains at most its most recent occurrence. A new
            // arrival pairs with the retained occurrence of the opposite
            // side (which is kept — the initiator survives detections);
            // an arrival that finds no partner becomes the retained one.
            for l in le.drain(..) {
                if let Some(r) = rbuf.items.back() {
                    out.push(CompositeOccurrence::merge(l, r));
                } else {
                    lbuf.retain_only(id, 0, l, env);
                }
            }
            for r in re.drain(..) {
                if let Some(l) = lbuf.items.back() {
                    out.push(CompositeOccurrence::merge(l, r));
                } else {
                    rbuf.retain_only(id, 1, r, env);
                }
            }
        }
        ParamContext::Chronicle => {
            for l in le.drain(..) {
                match rbuf.pop_front(id, 1, env) {
                    Some(r) => out.push(CompositeOccurrence::merge(l, r)),
                    None => lbuf.push(id, 0, l, env),
                }
            }
            for r in re.drain(..) {
                match lbuf.pop_front(id, 0, env) {
                    Some(l) => out.push(CompositeOccurrence::merge(l, r)),
                    None => rbuf.push(id, 1, r, env),
                }
            }
        }
        ParamContext::Continuous => {
            // Every buffered occurrence opened its own detection window;
            // an opposite-side arrival terminates them all at once (one
            // detection per initiator) and consumes them. An arrival
            // with no open windows becomes an initiator itself.
            for l in le.drain(..) {
                if rbuf.len() > 0 {
                    for r in rbuf.items.iter() {
                        out.push(CompositeOccurrence::merge(&l, r));
                    }
                    rbuf.clear(id, 1, env);
                } else {
                    lbuf.push(id, 0, l, env);
                }
            }
            for r in re.drain(..) {
                if lbuf.len() > 0 {
                    for l in lbuf.items.iter() {
                        out.push(CompositeOccurrence::merge(l, &r));
                    }
                    lbuf.clear(id, 0, env);
                } else {
                    rbuf.push(id, 1, r, env);
                }
            }
        }
        ParamContext::Cumulative => {
            for l in le.drain(..) {
                lbuf.push(id, 0, l, env);
            }
            for r in re.drain(..) {
                rbuf.push(id, 1, r, env);
            }
            if lbuf.len() > 0 && rbuf.len() > 0 {
                out.push(CompositeOccurrence::merge_all(
                    lbuf.items.iter().chain(rbuf.items.iter()),
                ));
                lbuf.clear(id, 0, env);
                rbuf.clear(id, 1, env);
            }
        }
    }
}
