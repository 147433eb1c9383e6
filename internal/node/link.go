package node

import (
	"strconv"

	"failstop/internal/model"
	"failstop/internal/obs"
)

// LinkDecision is the fate a (possibly adversarial) network assigns to one
// message at send time. The zero value means normal delivery: one copy,
// host-chosen delay, FIFO position at the channel tail.
//
// LinkDecision generalizes a bare delay choice: the network may discard the
// message, hold it forever, deliver extra copies, or let it overtake the
// message queued immediately ahead of it. Hosts record the send event
// unconditionally — the sender executed it — and then apply the decision to
// what the channel actually carries.
type LinkDecision struct {
	// Drop discards the message: the send event is recorded, but no copy is
	// ever delivered.
	Drop bool
	// Park holds every delivered copy at the head of its channel forever
	// (and, channels being FIFO, everything queued behind it).
	Park bool
	// ExtraDelay adds this many ticks on top of the host's base delay for
	// every delivered copy.
	ExtraDelay int64
	// Duplicates is the number of additional copies the network delivers
	// beyond the original (0 = no duplication). Each copy is enqueued
	// independently with its own host-chosen base delay.
	Duplicates int
	// Reorder enqueues the message (and its copies) immediately before the
	// current channel tail instead of after it — a pairwise FIFO violation.
	// It has no effect when the channel holds at most one message.
	Reorder bool
	// Replace, when non-nil, substitutes the payload every delivered copy
	// carries — a Byzantine wire fault. The send event still records the
	// original payload: the sender executed that send; the network lied.
	Replace *Replacement
	// Replay, when non-nil, additionally injects a ghost copy of an earlier
	// wire payload on the same link, delayed by Replay.Delay beyond the
	// host's base delay — a Byzantine replay. The ghost is enqueued at the
	// channel tail and does not count as a duplicate of the current message.
	Replay *ReplayedCopy
}

// Replacement is the payload the network substitutes for every delivered
// copy of a message, with a short note ("corrupt", "equiv=g1") for fault-
// fate trace spans.
type Replacement struct {
	Payload Payload
	Note    string
}

// ReplayedCopy is a previously transmitted wire payload the network
// re-injects on the link, Delay ticks beyond the host's base delay.
type ReplayedCopy struct {
	Payload Payload
	Delay   int64
}

// Copies returns how many copies of the message the network delivers:
// 0 when dropped, otherwise 1 plus the duplicate count.
func (d LinkDecision) Copies() int {
	if d.Drop {
		return 0
	}
	return 1 + d.Duplicates
}

// WireBodyFn, when non-nil, locates the link-layer framed body inside a
// wire payload's data: it returns the offset at which the original
// (pre-framing) payload bytes begin, and ok=false for data that carries no
// such framing. The reliable delivery layer registers its frame decoder
// here at init, so the fault plane can reach through its header when a
// Byzantine rule must mutate or reseal the inner payload without breaking
// the framing — without the fault plane importing the layer (whose tests
// import the fault plane). Set once at init; never mutated afterwards.
var WireBodyFn func(data []byte) (offset int, ok bool)

// LinkFn decides the fate of each message at send time: it is consulted by
// the host (the deterministic simulator or the live runtime) once per send,
// with the sender, destination, payload, and current time in ticks.
// Implementations must be goroutine-safe for live hosts and must derive any
// randomness deterministically from their own seed and the call inputs, so
// that equal seeds reproduce equal fates.
type LinkFn func(from, to model.ProcID, p Payload, at int64) LinkDecision

// Note summarizes a non-trivial decision as a compact comma-joined string
// ("drop", "park,dup=2", "delay=+3"); the zero decision yields "". Hosts
// use it to label fault-fate trace spans identically on both backends.
func (d LinkDecision) Note() string {
	if !d.Drop && !d.Park && !d.Reorder && d.Duplicates == 0 && d.ExtraDelay == 0 &&
		d.Replace == nil && d.Replay == nil {
		return ""
	}
	var b []byte
	add := func(s string) {
		if len(b) > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	if d.Drop {
		add("drop")
	}
	if d.Park {
		add("park")
	}
	if d.Reorder {
		add("reorder")
	}
	if d.Duplicates > 0 {
		add("dup=" + strconv.Itoa(d.Duplicates))
	}
	if d.ExtraDelay != 0 {
		add("delay=+" + strconv.FormatInt(d.ExtraDelay, 10))
	}
	if d.Replace != nil {
		add(d.Replace.Note)
	}
	if d.Replay != nil {
		add("replay=+" + strconv.FormatInt(d.Replay.Delay, 10))
	}
	return string(b)
}

// Wire is the send pipeline both hosts share: the network's fate hook,
// the span recorder, and the traffic counters. A host hands every send it
// has recorded to Wire.Send, which decides what the channel carries; the
// host keeps only the crash check, the message id and send event, and the
// queue the copies land in.
type Wire struct {
	// Link decides each message's fate; nil delivers every message once.
	Link LinkFn
	// Spans, when non-nil, records the send, fate, drop and enqueue spans.
	Spans *obs.SpanRecorder
	// Counters tallies sent, dropped and duplicated messages here; the host
	// counts the rest.
	Counters
}

// Copy is one message copy the network lets onto a channel.
type Copy struct {
	// Payload is what the copy carries: the sender's payload, the
	// decision's Replace payload, or a Replay ghost.
	Payload Payload
	// Extra is the delay in ticks on top of the host's base delay.
	Extra int64
	// Park holds the copy (and the channel behind it) forever.
	Park bool
	// Reorder lets the copy overtake the channel's current tail (see
	// Enqueue).
	Reorder bool
	// Span is the copy's enqueue span, 0 when the message is unsampled.
	Span int64
}

// Send applies the network's fate to message id, which the host has just
// recorded as sent from from to to at time now (in ticks), inside the
// handler callback framed by span parent. It consults Link, records the
// send and fate spans, counts the send, and then either drops the message
// (counting and tracing the drop) or hands enqueue one Copy per delivered
// copy — the Replace payload when the network substitutes one — followed
// by the Replay ghost. It returns how many copies it handed over.
//
// Link sees the sender's payload; so does the host's delay choice, while
// the channel carries Copy.Payload. enqueue is called synchronously, once
// per copy, in copy order.
func (w *Wire) Send(from, to model.ProcID, id model.MsgID, p Payload, now, parent int64, enqueue func(Copy)) int {
	w.Sent.Inc()
	var dec LinkDecision
	if w.Link != nil {
		dec = w.Link(from, to, p, now)
	}
	var span int64
	if w.Spans != nil && w.Spans.Sampled(id) {
		span = w.Spans.Record(obs.Span{
			Parent: parent, Time: now, Kind: obs.SpanSend,
			Proc: from, Peer: to, Msg: id, Tag: p.Tag, Target: p.Subject,
		})
		if note := dec.Note(); note != "" {
			span = w.Spans.Record(obs.Span{
				Parent: span, Time: now, Kind: obs.SpanFate,
				Proc: from, Peer: to, Msg: id, Note: note,
			})
		}
	}
	if dec.Drop {
		w.Dropped.Inc()
		if span != 0 {
			w.Spans.Record(obs.Span{
				Parent: span, Time: now, Kind: obs.SpanDrop,
				Proc: from, Peer: to, Msg: id,
			})
		}
		return 0
	}
	w.Duplicated.Add(int64(dec.Duplicates))
	emit := func(payload Payload, extra int64) {
		c := Copy{Payload: payload, Extra: dec.ExtraDelay + extra, Park: dec.Park, Reorder: dec.Reorder}
		if span != 0 {
			c.Span = w.Spans.Record(obs.Span{
				Parent: span, Time: now, Kind: obs.SpanEnqueue,
				Proc: from, Peer: to, Msg: id,
			})
		}
		enqueue(c)
	}
	// A Byzantine network may substitute what the channel carries; the
	// host's send event still records the payload the sender passed in.
	wire := p
	if dec.Replace != nil {
		wire = dec.Replace.Payload
	}
	n := dec.Copies()
	for i := 0; i < n; i++ {
		emit(wire, 0)
	}
	if dec.Replay != nil {
		// A Byzantine replay: a ghost copy of an earlier wire payload rides
		// along, further delayed so it lands stale.
		emit(dec.Replay.Payload, dec.Replay.Delay)
		n++
	}
	return n
}

// Enqueue appends m to the channel queue q — or, for a Reorder copy on a
// queue holding more than one message, slots it in just before the
// current tail: a pairwise FIFO violation.
func Enqueue[M any](q []M, m M, reorder bool) []M {
	if !reorder || len(q) <= 1 {
		return append(q, m)
	}
	tail := len(q) - 1
	q = append(q, q[tail])
	q[tail] = m
	return q
}
