//! Native loop traces: the third execution tier.
//!
//! The register form ([`crate::reg`]) already fuses the dispatch-heavy
//! sequences of a metered loop into superinstructions, but every
//! iteration still pays a handful of dispatches plus `Value` traffic for
//! work whose *shape* is fixed for the whole loop. This module
//! recognizes three canonical float-kernel idioms of the mini-C
//! substrate — the reduce loop (`acc += A[base + i] * B[i]`, covering
//! dot products, sums of squares and matvec inner loops), the
//! three-tap affine stencil (`Out[i] = w0*In[i+o0] + w1*In[i] +
//! w2*In[i+o2]`) and the reduce fed by a declared temporary (`T t =
//! A[i]*B[i] + s*C[i]; acc += t*t`, the serving tier's probe kernel) —
//! and compiles each into a [`Trace`] descriptor that the VM executes
//! as a single native loop. The idioms are bounded on purpose: each is
//! one fixed register-code shape, not a general trace compiler.
//!
//! Bit-identity is preserved by construction, not by luck:
//!
//! * the native loop performs the **exact charge sequence** of the
//!   generic superinstructions, one `checked_add` per original charge in
//!   original order, with the budget checkpoints in their original
//!   places (after the loop tick, and at a mid-body meter check), so
//!   `BudgetExceeded` and `CostOverflow`
//!   surface at the same iteration with the same partial statistics;
//! * flop counting uses the same [`ExecStats::count_flops`] call per
//!   floating-point op, so `flop_energy` accumulates in the same order
//!   with the same per-op unit (one f64 add per flop — batching would
//!   change the rounding);
//! * stores quantize through the same `Type::quantize` per iteration,
//!   and a mid-loop failure leaves every slot, type binding and the
//!   precision stack exactly as the generic tier would;
//! * entry **validation** proves that no per-iteration error other than
//!   a charge failure is possible (slots bound and correctly typed,
//!   every index in bounds, every loaded element a float); anything the
//!   validator cannot prove falls back to the generic register tier,
//!   which produces the exact error at the exact point.
//!
//! A trace replaces the loop's head condition with
//! [`RInstr::TraceHead`]; the generic body stays in place after it and
//! its back edge re-enters the head, so fallback costs one extra
//! validation attempt per iteration and nothing else.

use crate::reg::{RInstr, IDX_MASK, TAG_CONST, TAG_MASK, TAG_SLOT};
use antarex_ir::ast::BinOp;
use antarex_ir::types::Type;
use antarex_ir::value::Value;

/// Where the loop bound comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bound {
    /// Constant bound, resolved at build time.
    Const(i64),
    /// An `int` slot, read (and type-checked) at every trace entry.
    Slot(u16),
}

/// Where the loop body's precision context comes from (the loop head's
/// fused push).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LoopPrec {
    /// `LoopTickPushPrecOf`: a slot's type binding, read at trace entry.
    Of(u16),
    /// `LoopTickPushPrec`: a declaration's static width (`None` keeps
    /// the outer context).
    Bits(Option<u8>),
}

/// The recognized loop body shape.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceKind {
    /// `acc += A[base + i] * B[i]`, where `base` is zero or an
    /// invariant `slot * factor` product whose integer charges are
    /// replayed every iteration (the matvec inner loop recomputes it).
    Reduce {
        acc: u16,
        arr_a: u16,
        arr_b: u16,
        base: Option<(u16, i64)>,
    },
    /// `Out[i] = w[0]*T0[i + offs[0]] + w[1]*T1[i] + w[2]*T2[i + offs[1]]`.
    Stencil3 {
        taps: [u16; 3],
        arr_out: u16,
        w: [f64; 3],
        offs: [i64; 2],
    },
    /// `T tmp = A[i] * B[i] + s * C[i]; acc += tmp * tmp;` with `s` a
    /// loop-invariant float: the serving kernel's body. The declaration
    /// is the head's precision window, the accumulation a second window
    /// under `acc`'s binding, and the static meter a mid-body budget
    /// checkpoint between them.
    FmaTemp {
        acc: u16,
        tmp: u16,
        tmp_ty: Type,
        scale: u16,
        arrs: [u16; 3],
    },
}

/// A compiled native loop: the loop-control scaffolding every kind
/// shares plus the body shape. All constants are resolved at build time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Trace {
    /// Loop counter slot (must hold an `Int` at entry).
    pub ctr: u16,
    /// Loop bound (`ctr < bound`, strict less-than only).
    pub bound: Bound,
    /// Step constant (`ctr += step`), `>= 1`.
    pub step: i64,
    /// Loop-tick charge.
    pub tick_cost: u64,
    /// Loop-tick memory traffic.
    pub tick_mem: u32,
    /// The precision context the loop tick pushes.
    pub prec: LoopPrec,
    /// The body's static meter charge: bottom of the loop for `Reduce`
    /// and `Stencil3`, the mid-body checkpoint for `FmaTemp`.
    pub meter_cost: u64,
    /// The body's static meter memory traffic.
    pub meter_mem: u32,
    /// Program counter just past the loop.
    pub exit: u32,
    /// Original head condition (for the generic fallback path).
    pub cond_l: u16,
    /// Original head condition, right operand.
    pub cond_r: u16,
    /// The body shape.
    pub kind: TraceKind,
}

#[inline]
fn as_slot(o: u16) -> Option<u16> {
    (o & TAG_MASK == TAG_SLOT).then_some(o & IDX_MASK)
}

#[inline]
fn as_plain(o: u16) -> Option<u16> {
    (o & TAG_MASK == 0).then_some(o)
}

fn const_int(consts: &[Value], o: u16) -> Option<i64> {
    if o & TAG_MASK != TAG_CONST {
        return None;
    }
    match consts.get((o & IDX_MASK) as usize) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

fn const_float(consts: &[Value], o: u16) -> Option<f64> {
    if o & TAG_MASK != TAG_CONST {
        return None;
    }
    match consts.get((o & IDX_MASK) as usize) {
        Some(Value::Float(v)) => Some(*v),
        _ => None,
    }
}

/// The loop-control scaffolding every trace shares: head condition at
/// `h`, tick at `h + 1`, step + back-edge at `h + len - 1`.
struct Scaffold {
    ctr: u16,
    bound: Bound,
    cond_l: u16,
    cond_r: u16,
    exit: u32,
    tick_cost: u64,
    tick_mem: u32,
    prec: LoopPrec,
}

fn scaffold(code: &[RInstr], consts: &[Value], h: usize, body_len: usize) -> Option<Scaffold> {
    let RInstr::BinJumpIfFalsy {
        op: BinOp::Lt,
        l,
        r,
        target,
    } = code[h]
    else {
        return None;
    };
    let ctr = as_slot(l)?;
    let bound = match as_slot(r) {
        Some(slot) => Bound::Slot(slot),
        None => Bound::Const(const_int(consts, r)?),
    };
    let exit = h.checked_add(body_len)? as u32;
    if target != exit || code.len() < exit as usize {
        return None;
    }
    let (tick_cost, tick_mem, prec) = match code[h + 1] {
        RInstr::LoopTickPushPrecOf {
            cost,
            mem_ops,
            slot,
        } => (cost, mem_ops, LoopPrec::Of(slot)),
        RInstr::LoopTickPushPrec {
            cost,
            mem_ops,
            bits,
        } => (cost, mem_ops, LoopPrec::Bits(bits)),
        _ => return None,
    };
    Some(Scaffold {
        ctr,
        bound,
        cond_l: l,
        cond_r: r,
        exit,
        tick_cost,
        tick_mem,
        prec,
    })
}

/// The trailing step + back-edge, with the bottom-of-loop meter it
/// carries (`None` when the body's meter sits elsewhere).
fn back_edge(
    code: &[RInstr],
    consts: &[Value],
    at: usize,
    ctr: u16,
    head: usize,
) -> Option<(Option<(u64, u32)>, i64)> {
    let (meter, op, l, r, slot, target) = match code[at] {
        RInstr::MeterBinStoreForStepJump {
            cost,
            mem_ops,
            op,
            l,
            r,
            slot,
            target,
        } => (Some((cost, mem_ops)), op, l, r, slot, target),
        RInstr::BinStoreForStepJump {
            op,
            l,
            r,
            slot,
            target,
        } => (None, op, l, r, slot, target),
        _ => return None,
    };
    if op != BinOp::Add || as_slot(l)? != ctr || slot != ctr || target as usize != head {
        return None;
    }
    let step = const_int(consts, r)?;
    (step >= 1).then_some((meter, step))
}

/// Recognizes a reduce loop at `h`:
/// ```text
/// h    BinJumpIfFalsy { Lt, ctr, bound, -> exit }
/// h+1  LoopTickPushPrecOf { acc }
///      -- direct form --               -- based form (matvec inner) --
/// h+2  ReadLoadIndex { acc, ta, A[ctr], tb }   Read { acc, ta }
/// h+3  BinLoad { Mul, tb, B[ctr], tb }         Binary { Mul, s, factor, t }
/// h+4  BinPopPrecStoreVar { Add, ta, tb, acc } BinLoadIndex { Add, t, ctr, A, t }
/// h+5  MeterBinStoreForStepJump { -> h }       BinLoad { Mul, t, B[ctr], t }
///                                              BinPopPrecStoreVar { Add, ta, t, acc }
///                                              MeterBinStoreForStepJump { -> h }
/// ```
fn match_reduce(code: &[RInstr], consts: &[Value], h: usize) -> Option<Trace> {
    // try the direct form first, then the based form
    for (body_len, based) in [(6usize, false), (8, true)] {
        if h + body_len > code.len() {
            continue;
        }
        let Some(s) = scaffold(code, consts, h, body_len) else {
            continue;
        };
        let ctr_opnd = TAG_SLOT | s.ctr;
        let (acc, ta, arr_a, arr_b, base, vb) = if based {
            let RInstr::Read { slot: acc, dst: ta } = code[h + 2] else {
                continue;
            };
            let RInstr::Binary {
                op: BinOp::Mul,
                l: bl,
                r: br,
                dst: t1,
            } = code[h + 3]
            else {
                continue;
            };
            let (bslot, bfac) = (as_slot(bl), const_int(consts, br));
            let RInstr::BinLoadIndex {
                op: BinOp::Add,
                l: il,
                r: ir,
                arr: arr_a,
                dst: t2,
            } = code[h + 4]
            else {
                continue;
            };
            let RInstr::BinLoad {
                op: BinOp::Mul,
                l: ml,
                arr: arr_b,
                idx,
                dst: vb,
            } = code[h + 5]
            else {
                continue;
            };
            if as_plain(il) != Some(t1)
                || ir != ctr_opnd
                || as_plain(ml) != Some(t2)
                || idx != ctr_opnd
            {
                continue;
            }
            let (Some(bslot), Some(bfac)) = (bslot, bfac) else {
                continue;
            };
            (acc, ta, arr_a, arr_b, Some((bslot, bfac)), vb)
        } else {
            let RInstr::ReadLoadIndex {
                pre: acc,
                pre_dst: ta,
                arr: arr_a,
                idx,
                dst: va,
            } = code[h + 2]
            else {
                continue;
            };
            let RInstr::BinLoad {
                op: BinOp::Mul,
                l: ml,
                arr: arr_b,
                idx: idx2,
                dst: vb,
            } = code[h + 3]
            else {
                continue;
            };
            if idx != ctr_opnd || idx2 != ctr_opnd || as_plain(ml) != Some(va) {
                continue;
            }
            (acc, ta, arr_a, arr_b, None, vb)
        };
        let store_at = h + body_len - 2;
        let RInstr::BinPopPrecStoreVar {
            op: BinOp::Add,
            l: sl,
            r: sr,
            slot,
        } = code[store_at]
        else {
            continue;
        };
        if as_plain(sl) != Some(ta)
            || as_plain(sr) != Some(vb)
            || slot != acc
            || s.prec != LoopPrec::Of(acc)
        {
            continue;
        }
        let (Some((meter_cost, meter_mem)), step) =
            back_edge(code, consts, h + body_len - 1, s.ctr, h)?
        else {
            return None;
        };
        return Some(Trace {
            ctr: s.ctr,
            bound: s.bound,
            step,
            tick_cost: s.tick_cost,
            tick_mem: s.tick_mem,
            prec: s.prec,
            meter_cost,
            meter_mem,
            exit: s.exit,
            cond_l: s.cond_l,
            cond_r: s.cond_r,
            kind: TraceKind::Reduce {
                acc,
                arr_a,
                arr_b,
                base,
            },
        });
    }
    None
}

/// Recognizes a three-tap stencil loop at `h`:
/// ```text
/// h    BinJumpIfFalsy { Lt, ctr, bound, -> exit }
/// h+1  LoopTickPushPrecOf
/// h+2  BinLoadIndex { Sub, ctr, o0, T0, v0 }
/// h+3  Binary  { Mul, w0, v0, t }
/// h+4  BinLoad { Mul, w1, T1[ctr], v1 }
/// h+5  Binary  { Add, t, v1, t }
/// h+6  BinLoadIndex { Add, ctr, o2, T2, v2 }
/// h+7  Binary  { Mul, w2, v2, u }
/// h+8  Binary  { Add, t, u, t }
/// h+9  PopPrec
/// h+10 StoreIndex { t, ctr, Out }
/// h+11 MeterBinStoreForStepJump { -> h }
/// ```
fn match_stencil(code: &[RInstr], consts: &[Value], h: usize) -> Option<Trace> {
    const BODY: usize = 12;
    if h + BODY > code.len() {
        return None;
    }
    let s = scaffold(code, consts, h, BODY)?;
    let ctr_opnd = TAG_SLOT | s.ctr;
    let RInstr::BinLoadIndex {
        op: BinOp::Sub,
        l: l0,
        r: r0,
        arr: t0,
        dst: v0,
    } = code[h + 2]
    else {
        return None;
    };
    let RInstr::Binary {
        op: BinOp::Mul,
        l: w0,
        r: m0r,
        dst: acc0,
    } = code[h + 3]
    else {
        return None;
    };
    let RInstr::BinLoad {
        op: BinOp::Mul,
        l: w1,
        arr: t1,
        idx: i1,
        dst: v1,
    } = code[h + 4]
    else {
        return None;
    };
    let RInstr::Binary {
        op: BinOp::Add,
        l: a1l,
        r: a1r,
        dst: acc1,
    } = code[h + 5]
    else {
        return None;
    };
    let RInstr::BinLoadIndex {
        op: BinOp::Add,
        l: l2,
        r: r2,
        arr: t2,
        dst: v2,
    } = code[h + 6]
    else {
        return None;
    };
    let RInstr::Binary {
        op: BinOp::Mul,
        l: w2,
        r: m2r,
        dst: u2,
    } = code[h + 7]
    else {
        return None;
    };
    let RInstr::Binary {
        op: BinOp::Add,
        l: a2l,
        r: a2r,
        dst: acc2,
    } = code[h + 8]
    else {
        return None;
    };
    if code[h + 9] != RInstr::PopPrec {
        return None;
    }
    let RInstr::StoreIndex {
        val,
        idx: si,
        slot: arr_out,
    } = code[h + 10]
    else {
        return None;
    };
    // operand wiring: every tap indexes the counter, every temp chains
    if l0 != ctr_opnd || i1 != ctr_opnd || l2 != ctr_opnd || si != ctr_opnd {
        return None;
    }
    if as_plain(m0r) != Some(v0)
        || as_plain(a1l) != Some(acc0)
        || as_plain(a1r) != Some(v1)
        || as_plain(a2l) != Some(acc1)
        || as_plain(m2r) != Some(v2)
        || as_plain(a2r) != Some(u2)
        || as_plain(val) != Some(acc2)
    {
        return None;
    }
    let o0 = const_int(consts, r0)?;
    let o2 = const_int(consts, r2)?;
    let w = [
        const_float(consts, w0)?,
        const_float(consts, w1)?,
        const_float(consts, w2)?,
    ];
    let (Some((meter_cost, meter_mem)), step) = back_edge(code, consts, h + 11, s.ctr, h)? else {
        return None;
    };
    Some(Trace {
        ctr: s.ctr,
        bound: s.bound,
        step,
        tick_cost: s.tick_cost,
        tick_mem: s.tick_mem,
        prec: s.prec,
        meter_cost,
        meter_mem,
        exit: s.exit,
        cond_l: s.cond_l,
        cond_r: s.cond_r,
        kind: TraceKind::Stencil3 {
            taps: [t0, t1, t2],
            arr_out,
            // the first tap's index is `ctr - o0`, the third's `ctr + o2`
            offs: [o0.checked_neg()?, o2],
            w,
        },
    })
}

/// Recognizes a reduce loop fed by a declared temporary at `h`:
/// ```text
/// h    BinJumpIfFalsy { Lt, ctr, bound, -> exit }
/// h+1  LoopTickPushPrec { bits }
/// h+2  LoadIndex { A[ctr], x }
/// h+3  BinLoad { Mul, x, B[ctr], x }
/// h+4  ReadLoadIndex { s, y, C[ctr], z }
/// h+5  Binary { Mul, y, z, y }
/// h+6  BinPopPrecStoreDecl { Add, x, y, tmp, ty }
/// h+7  MeterCheck
/// h+8  PushPrecOf(acc)
/// h+9  Read { acc, x2 }
/// h+10 Binary { Mul, tmp, tmp, y2 }
/// h+11 BinPopPrecStoreVar { Add, x2, y2, acc }
/// h+12 BinStoreForStepJump { -> h }
/// ```
/// Every written slot (`tmp`, `acc`, the counter) must be distinct from
/// every slot the body reads as loop-invariant, so that values proven at
/// entry stay proven for the whole loop.
fn match_fma_temp(code: &[RInstr], consts: &[Value], h: usize) -> Option<Trace> {
    const BODY: usize = 13;
    if h + BODY > code.len() {
        return None;
    }
    let s = scaffold(code, consts, h, BODY)?;
    let ctr_opnd = TAG_SLOT | s.ctr;
    let RInstr::LoadIndex {
        arr: arr_a,
        idx: ia,
        dst: x,
    } = code[h + 2]
    else {
        return None;
    };
    let RInstr::BinLoad {
        op: BinOp::Mul,
        l: ml,
        arr: arr_b,
        idx: ib,
        dst: x1,
    } = code[h + 3]
    else {
        return None;
    };
    let RInstr::ReadLoadIndex {
        pre: scale,
        pre_dst: y,
        arr: arr_c,
        idx: ic,
        dst: z,
    } = code[h + 4]
    else {
        return None;
    };
    let RInstr::Binary {
        op: BinOp::Mul,
        l: sl,
        r: sr,
        dst: y1,
    } = code[h + 5]
    else {
        return None;
    };
    let RInstr::BinPopPrecStoreDecl {
        op: BinOp::Add,
        l: dl,
        r: dr,
        slot: tmp,
        ty: tmp_ty,
    } = code[h + 6]
    else {
        return None;
    };
    let RInstr::MeterCheck {
        cost: meter_cost,
        mem_ops: meter_mem,
    } = code[h + 7]
    else {
        return None;
    };
    let RInstr::PushPrecOf(acc) = code[h + 8] else {
        return None;
    };
    let RInstr::Read {
        slot: acc_read,
        dst: x2,
    } = code[h + 9]
    else {
        return None;
    };
    let RInstr::Binary {
        op: BinOp::Mul,
        l: ql,
        r: qr,
        dst: y2,
    } = code[h + 10]
    else {
        return None;
    };
    let RInstr::BinPopPrecStoreVar {
        op: BinOp::Add,
        l: al,
        r: ar,
        slot: acc_store,
    } = code[h + 11]
    else {
        return None;
    };
    // operand wiring: every load indexes the counter, every temp chains
    if ia != ctr_opnd || ib != ctr_opnd || ic != ctr_opnd {
        return None;
    }
    if as_plain(ml) != Some(x)
        || as_plain(sl) != Some(y)
        || as_plain(sr) != Some(z)
        || as_plain(dl) != Some(x1)
        || as_plain(dr) != Some(y1)
        || as_slot(ql) != Some(tmp)
        || as_slot(qr) != Some(tmp)
        || as_plain(al) != Some(x2)
        || as_plain(ar) != Some(y2)
        || acc_read != acc
        || acc_store != acc
        || !tmp_ty.is_float()
    {
        return None;
    }
    // written slots never alias what the body reads as invariant
    let bound_slot = match s.bound {
        Bound::Slot(slot) => Some(slot),
        Bound::Const(_) => None,
    };
    let read = [
        Some(s.ctr),
        bound_slot,
        Some(scale),
        Some(arr_a),
        Some(arr_b),
        Some(arr_c),
    ];
    if tmp == acc || read.contains(&Some(tmp)) || read.contains(&Some(acc)) {
        return None;
    }
    let (None, step) = back_edge(code, consts, h + 12, s.ctr, h)? else {
        return None;
    };
    Some(Trace {
        ctr: s.ctr,
        bound: s.bound,
        step,
        tick_cost: s.tick_cost,
        tick_mem: s.tick_mem,
        prec: s.prec,
        meter_cost,
        meter_mem,
        exit: s.exit,
        cond_l: s.cond_l,
        cond_r: s.cond_r,
        kind: TraceKind::FmaTemp {
            acc,
            tmp,
            tmp_ty,
            scale,
            arrs: [arr_a, arr_b, arr_c],
        },
    })
}

/// Scans finished register code for traceable loops. Returns the traces
/// and rewrites each recognized head into [`RInstr::TraceHead`].
pub(crate) fn detect(code: &mut [RInstr], consts: &[Value]) -> Vec<Trace> {
    let mut traces = Vec::new();
    for h in 0..code.len() {
        if traces.len() >= u16::MAX as usize {
            break;
        }
        if let Some(trace) = match_reduce(code, consts, h)
            .or_else(|| match_stencil(code, consts, h))
            .or_else(|| match_fma_temp(code, consts, h))
        {
            code[h] = RInstr::TraceHead {
                trace: traces.len() as u16,
            };
            traces.push(trace);
        }
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use antarex_ir::cost::CostModel;
    use antarex_ir::parse_program;

    /// The text of `antarex_serve::kernel::DEFAULT_KERNEL` (the serving
    /// tier's probe kernel) with every float declaration at `ty`, as the
    /// precision knob rewrites it.
    fn serving_kernel(ty: &str) -> String {
        format!(
            "{ty} kernel({ty} a[], {ty} b[], int n) {{
    {ty} acc = 0.0;
    {ty} scale = 0.5;
    for (int i = 0; i < n; i++) {{
        {ty} t = a[i] * b[i] + scale * a[i];
        acc += t * t;
    }}
    return acc;
}}"
        )
    }

    #[test]
    fn the_fma_temporary_body_lowers_to_one_trace() {
        for (bits, ty) in [(52, "double"), (12, "float12")] {
            let program = parse_program(&serving_kernel(ty)).unwrap();
            let chunk =
                lower_function(program.function("kernel").unwrap(), &CostModel::new()).unwrap();
            assert_eq!(chunk.traces.len(), 1, "mantissa {bits}: {:?}", chunk.code);
            let trace = chunk.traces[0];
            assert!(
                matches!(
                    trace.kind,
                    TraceKind::FmaTemp { tmp_ty, .. } if tmp_ty.mantissa_bits() == Some(bits)
                ),
                "mantissa {bits}: {trace:?}"
            );
            assert_eq!(trace.prec, LoopPrec::Bits(Some(bits)));
        }
    }
}
